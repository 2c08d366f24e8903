package kvservice

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Recording is opt-in (Config.Record); these tests hold the two halves of
// that bargain. A service that records nothing is the same service — every
// counter, clock and durable byte — and retains nothing per event; and it
// cannot be mistaken for a recording one, because asking it for its trace
// panics instead of handing an analysis an empty run to approve.

// requirePanic runs fn and demands a panic whose message contains want.
func requirePanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("%s: recovered %q, want a panic mentioning %q", what, msg, want)
		}
	}()
	fn()
}

// TestTraceOfUnrecordedServicePanics: the sanitizer must never see the trace
// of a service that kept none.
func TestTraceOfUnrecordedServicePanics(t *testing.T) {
	_, svc := Run(SimConfig{Shards: 2, Batch: 8, Clients: 2000, Ops: 500})
	if svc.Stats().Fences == 0 {
		t.Fatal("run issued no fences")
	}
	for i := 0; i < svc.Shards(); i++ {
		if n := svc.Runtime(i).Trace.Len(); n != 0 {
			t.Fatalf("shard %d recorded %d events without Config.Record", i, n)
		}
	}
	requirePanic(t, "TraceSource", "Config.Record", func() { svc.TraceSource() })

	_, svc = Run(SimConfig{Shards: 2, Batch: 8, Clients: 2000, Ops: 500, Record: true})
	var got uint64
	for _, e := range drain(t, svc.TraceSource()) {
		if e.Kind == trace.KFence {
			got++
		}
	}
	if want := svc.Stats().Fences; got != want {
		t.Fatalf("recorded trace holds %d fences, the devices issued %d", got, want)
	}
}

// TestRecordedShardsBoundedByTID: the merged trace names each shard by a
// 16-bit TID, so a recorded service with more than 1<<16 shards is refused
// before any shard is built.
func TestRecordedShardsBoundedByTID(t *testing.T) {
	requirePanic(t, "New", "1<<16", func() { New(Config{Shards: 1<<16 + 1, Record: true}) })
}

// TestRecordingDoesNotPerturb: with recording on and off a run reports the
// same row, counters, space picture, latency histogram, log heads and
// durable bytes — on the read shape and on a churn shape that compacts, one
// shard and four, three seeds.
func TestRecordingDoesNotPerturb(t *testing.T) {
	churn := SimConfig{Batch: 8, Clients: 2000, Ops: 60_000, Keys: 1024, WritePct: 80, DeletePct: 5, SegBytes: 1 << 20}
	for _, shards := range []int{1, 4} {
		for name, cfg := range map[string]SimConfig{"read": desConfig("read", 20_000), "churn": churn} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg.Shards, cfg.Seed = shards, seed
				cell := fmt.Sprintf("%s shards=%d seed=%d", name, shards, seed)
				cfg.Record = false
				quiet, qs := Run(cfg)
				cfg.Record = true
				rec, rs := Run(cfg)
				if name == "churn" && quiet.Compactions < 5 {
					t.Fatalf("%s: %d compactions, the cell needs >= 5", cell, quiet.Compactions)
				}
				if quiet != rec {
					t.Fatalf("%s:\n SimResult %+v\n recording %+v", cell, quiet, rec)
				}
				if q, r := qs.Stats(), rs.Stats(); q != r {
					t.Fatalf("%s: Stats %+v, recording %+v", cell, q, r)
				}
				if q, r := qs.Space(), rs.Space(); q != r {
					t.Fatalf("%s: Space %+v, recording %+v", cell, q, r)
				}
				if q, r := qs.Latency().Snapshot(), rs.Latency().Snapshot(); !reflect.DeepEqual(q, r) {
					t.Fatalf("%s: latency histogram differs:\n %v\n %v", cell, q.Counts, r.Counts)
				}
				for i := 0; i < shards; i++ {
					qd, qv := qs.LogHeads(i)
					rd, rv := rs.LogHeads(i)
					if qd != rd || qv != rv {
						t.Fatalf("%s: shard %d heads (%d,%d), recording (%d,%d)", cell, i, qd, qv, rd, rv)
					}
					if !sameDurable(qs.Runtime(i).Dev, rs.Runtime(i).Dev) {
						t.Fatalf("%s: shard %d durable images differ", cell, i)
					}
				}
			}
		}
	}
}

// retained is what a finished run still holds: the live heap with the
// service reachable, and the sizes of the two things that heap should be
// made of — device pages and index keys — plus the events a recording
// service kept and the bytes they encode to, which is what a trace holds
// them in.
type retained struct {
	heap, pages, keys, events, packed int64
}

func retainedAfterRun(cfg SimConfig) retained {
	_, svc := Run(cfg)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := retained{heap: int64(ms.HeapAlloc)}
	for i, sh := range svc.shards {
		r.pages += int64(len(sh.rt.Dev.DurableImage()))
		r.keys += int64(len(sh.st.keys))
		tr := svc.Runtime(i).Trace
		r.events += int64(tr.Len())
		if tr.Len() > 0 {
			var buf bytes.Buffer
			if err := tr.Encode(&buf); err != nil {
				panic(err)
			}
			r.packed += int64(buf.Len())
		}
	}
	return r
}

// TestUnrecordedRunRetainsNothingPerEvent: on the read shape, what a service
// still holds after 2N requests against after N grows with the devices and
// the index, and not with the events — more than one per request, several
// bytes each when kept. A recording pair calibrates the measurement: its
// growth must exceed the other's by the trace it holds, the events' packed
// blocks.
func TestUnrecordedRunRetainsNothingPerEvent(t *testing.T) {
	const ops = 100_000
	growth := func(record bool) retained {
		cfg := desConfig("read", ops)
		cfg.Record = record
		a := retainedAfterRun(cfg)
		cfg.Ops = 2 * ops
		b := retainedAfterRun(cfg)
		return retained{b.heap - a.heap, b.pages - a.pages, b.keys - a.keys, b.events - a.events, b.packed - a.packed}
	}
	rec, quiet := growth(true), growth(false)
	traceBytes := rec.packed
	t.Logf("%d more requests: %d more events (%d B kept); heap grew %d B recording, %d B not; %d more device pages, %d more keys",
		ops, rec.events, traceBytes, rec.heap, quiet.heap, quiet.pages, quiet.keys)
	if rec.events < ops || quiet.events != 0 {
		t.Fatalf("%d more events recording and %d not, for %d more requests", rec.events, quiet.events, ops)
	}
	// Part-filled open blocks make the recording side's growth lumpy by up
	// to a block a shard either way, hence three quarters rather than all
	// of it.
	if rec.heap-quiet.heap < traceBytes*3/4 {
		t.Errorf("recording grew the heap %d B more than not recording, but the trace alone is %d B: the unrecorded run retains events",
			rec.heap-quiet.heap, traceBytes)
	}
	// A device page is held once, with its bookkeeping; half a KiB a key
	// covers the key-table entry and the key's string.
	if limit := quiet.pages*(pmem.PageBytes+pmem.PageOverheadBytes) + quiet.keys*512 + 512<<10; quiet.heap > limit {
		t.Errorf("unrecorded heap grew %d B; %d pages and %d keys account for at most %d", quiet.heap, quiet.pages, quiet.keys, limit)
	}
}
