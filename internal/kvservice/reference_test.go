package kvservice

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// The oracle: the request loop Run had while the deadline rule was a global
// scan, kept as the reference the shard-local rule in enqueue is compared
// against. With commitDue running before every arrival no shard ever reaches
// enqueue holding an overdue batch, so enqueue's own check cannot fire and
// the run is the old schedule exactly.

// commitDue commits every shard whose oldest pending request has waited
// MaxWait by simulated time now — the pre-pass the simulation used to make
// before each arrival, moved here unchanged.
func (s *Service) commitDue(now mem.Time) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.pending) > 0 {
			if due := sh.pending[0].arrival + s.cfg.MaxWait; due <= now {
				s.commitLocked(sh, max(due, sh.freeAt))
			}
		}
		sh.mu.Unlock()
	}
}

// referenceRun is Run as it was before the deadline rule moved into enqueue
// and the shards onto goroutines of their own: the same draws in the same
// order, keys through fmt, commitDue before every arrival, every shard
// simulated on the caller's goroutine one request at a time.
func referenceRun(cfg SimConfig) (SimResult, *Service) {
	cfg = cfg.withDefaults()
	svc := newSimService(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := workload.NewZipf(rng, cfg.ZipfS, cfg.Keys)
	meanGapNS := 1e9 / (float64(cfg.Clients) * cfg.ClientOpsPerSec)
	var t float64
	for i := 0; i < cfg.Ops; i++ {
		t += rng.ExpFloat64() * meanGapNS
		arrival := mem.Time(t)
		if arrival == 0 {
			arrival = 1
		}
		svc.commitDue(arrival)
		key := fmt.Sprintf("key%08d", zipf.Next())
		op := workload.KVOp{Kind: workload.OpRead, Key: key}
		if draw := rng.Intn(100); draw < cfg.WritePct {
			val := make([]byte, cfg.ValueLen)
			for j := range val {
				val[j] = byte('a' + (i+j)%26)
			}
			op = workload.KVOp{Kind: workload.OpUpdate, Key: key, Value: val}
		} else if draw < cfg.WritePct+cfg.DeletePct {
			op = workload.KVOp{Kind: workload.OpDelete, Key: key}
		}
		svc.enqueue(svc.shards[svc.ShardFor(key)], []request{{op: op, arrival: arrival}})
	}
	svc.drain()
	return svc.simResult(cfg, mem.Time(t)), svc
}

// referenceCrash is Service.Crash as it was before the shards recovered on
// goroutines of their own: one shard after another on the caller's
// goroutine, the first error kept.
func referenceCrash(s *Service, mode pmem.CrashMode, seed int64) error {
	var firstErr error
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.pending = sh.pending[:0]
		super := sh.st.super
		keys := len(sh.st.keys)
		sh.rt.Crash(mode, seed)
		st, _, err := openStore(sh.th, super, s.cfg.SegBytes, keys)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			st = newStore(sh.th, s.cfg.SegBytes)
		}
		sh.st = st
		s.observeSpaceLocked(sh)
		sh.freeAt = sh.rt.Clock.Now()
		sh.mu.Unlock()
	}
	return firstErr
}

// referenceOpenStore is openStore as it was before the scan split in two
// passes: one walk over each segment that converts every record's key to
// a string of its own and updates the key and segment tables before it
// loads the next record. Validation, loads and charges are openStore's;
// only the order of the host-side work differs.
func referenceOpenStore(th *persist.Thread, super mem.Addr, segBytes, keys int) (*store, int, error) {
	s := emptyStore(th, super, segBytes, keys)
	s.head = th.LoadU64(super + superHeadOff)
	n := th.LoadU64(super + superNSlotsOff)
	if n > maxSegs {
		return nil, 0, fmt.Errorf("kvservice: corrupt superblock: %d slots exceeds table size %d", n, maxSegs)
	}
	s.slots = make([]*segment, n)
	sb := uint64(segBytes)
	mapped := th.Runtime().Dev.Mapped()
	for i := range s.slots {
		a := super + superSlotTable + mem.Addr(slotBytes*i)
		base := mem.Addr(th.LoadU64(a))
		seq := th.LoadU64(a + 8)
		if base == 0 {
			s.freeSlots = append(s.freeSlots, i)
			continue
		}
		if end := base + mem.Addr(sb); !mem.IsPM(base) || end < base || end > mapped {
			return nil, 0, fmt.Errorf("kvservice: corrupt slot table: slot %d maps segment %d at %v, outside the mapped range [%v, %v)", i, seq, base, mem.PMBase, mapped)
		}
		if seq >= math.MaxUint64/sb {
			return nil, 0, fmt.Errorf("kvservice: corrupt slot table: slot %d maps segment %d, whose log offsets overflow", i, seq)
		}
		if dup, ok := s.segs[seq]; ok {
			return nil, 0, fmt.Errorf("kvservice: corrupt slot table: slots %d and %d both map segment %d", dup.slot, i, seq)
		}
		s.slots[i] = &segment{seq: seq, slot: i, base: base}
		s.segs[seq] = s.slots[i]
	}
	if s.head%sb != 0 {
		if _, ok := s.segs[s.head/sb]; !ok {
			return nil, 0, fmt.Errorf("kvservice: corrupt superblock: head %d lies in an unmapped segment", s.head)
		}
	}
	var seqs []uint64
	for seq := range s.segs {
		if seq*sb < s.head {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	var buf []byte
	records := 0
	for _, seq := range seqs {
		end := min((seq+1)*sb, s.head)
		for off := seq * sb; off < end; {
			a, rem := s.addr(off), end-off
			klen, vlen, ok := s.recAt(a, rem)
			if !ok {
				break
			}
			size := uint64(footprint(klen, vlen))
			if size > rem {
				return nil, 0, fmt.Errorf("kvservice: corrupt record at log offset %d: klen=%d vlen=%d exceeds segment remainder %d", off, klen, vlen, rem)
			}
			buf = slices.Grow(buf[:0], klen)[:klen]
			th.LoadInto(a+recHeader, buf)
			key := string(buf)
			k, seen := s.keys[key]
			s.addLive(s.segs[off/sb], footprint(klen, vlen))
			if seen && k.off != noRec {
				s.addLive(s.segs[k.off/sb], -footprint(klen, k.vlen))
			}
			th.VStore(2)
			s.keys[key] = keyState{off: off, vlen: vlen, recs: k.recs + 1}
			records++
			off += size
		}
	}
	return s, records, nil
}

// requireMatchesReference runs cfg through Run and referenceRun and demands
// the two agree on everything a caller can observe: the row, the counters,
// the space picture, the latency histogram and every shard's trace bytes.
func requireMatchesReference(t *testing.T, cfg SimConfig) SimResult {
	t.Helper()
	cfg.Record = true // the shard traces are compared byte for byte below
	got, gs := Run(cfg)
	want, ws := referenceRun(cfg)
	if got != want {
		t.Fatalf("%+v:\n SimResult %+v\n reference %+v", cfg, got, want)
	}
	if g, w := gs.Stats(), ws.Stats(); g != w {
		t.Fatalf("%+v: Stats %+v, reference %+v", cfg, g, w)
	}
	if g, w := gs.Space(), ws.Space(); g != w {
		t.Fatalf("%+v: Space %+v, reference %+v", cfg, g, w)
	}
	if g, w := gs.Latency().Snapshot(), ws.Latency().Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%+v: latency histogram differs:\n got %v\nwant %v", cfg, g.Counts, w.Counts)
	}
	for i := 0; i < gs.Shards(); i++ {
		var g, w bytes.Buffer
		if err := trace.EncodeV2(&g, trace.NewSliceSource(gs.Runtime(i).Trace)); err != nil {
			t.Fatal(err)
		}
		if err := trace.EncodeV2(&w, trace.NewSliceSource(ws.Runtime(i).Trace)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%+v: shard %d trace differs from the reference (%d vs %d events)",
				cfg, i, gs.Runtime(i).Trace.Len(), ws.Runtime(i).Trace.Len())
		}
	}
	return got
}

// atProcs runs fn at the test binary's GOMAXPROCS, then at 1 (every shard
// goroutine and the drawing one share a core) and at 4 (more cores than
// the benchmark box has): the shards' schedules must not depend on how
// their goroutines interleave.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	def := runtime.GOMAXPROCS(0)
	for i, procs := range []int{def, 1, 4} {
		if i > 0 && procs == def {
			continue
		}
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

// TestShardLocalDeadlineMatchesGlobalScan: the grid runs from
// deadline-dominated (500 clients: the mean gap is MaxWait, most batches
// close on the timer) through batch-full-dominated to saturated (32 000
// clients on few shards: commits queue behind freeAt).
func TestShardLocalDeadlineMatchesGlobalScan(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, shards := range []int{1, 2, 4} {
			for _, batch := range []int{1, 8, 32} {
				for _, clients := range []int{500, 8000, 32000} {
					for _, del := range []int{0, 10} {
						for seed := int64(1); seed <= 3; seed++ {
							requireMatchesReference(t, SimConfig{
								Shards: shards, Batch: batch, Clients: clients,
								Ops: 4000, Keys: 4096, WritePct: 40, DeletePct: del, Seed: seed,
							})
						}
					}
				}
			}
		}
	})
}

// TestShardLocalDeadlineMatchesGlobalScanUnderChurn puts compaction passes
// inside the compared batches: a small hot keyspace overwrites 1 MiB
// segments dead several times over.
func TestShardLocalDeadlineMatchesGlobalScanUnderChurn(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		res := requireMatchesReference(t, SimConfig{
			Shards: 1, Batch: 8, Clients: 2000, Ops: 40000, Keys: 1024,
			WritePct: 80, DeletePct: 5, SegBytes: 1 << 20, Seed: 1,
		})
		if res.Compactions == 0 {
			t.Fatal("churn cell never compacted; the comparison covered no compaction pass")
		}
	})
}

// crashFixture is a service in the state a crash finds worth the most: a
// churn run (small segments, so passes are frequent) left with a compaction
// pass in flight on some shard, a partial batch pending on every shard, and
// shard 0's group commit stopped partway through its PM events with lines
// still in flight for the adversary. Same arguments, same service.
func crashFixture(t *testing.T, shards int, seed int64) *Service {
	t.Helper()
	_, svc := Run(SimConfig{
		Shards: shards, Batch: 8, Clients: 2000, Ops: 6000, Keys: 512,
		WritePct: 80, DeletePct: 5, SegBytes: 1 << 13, Seed: seed,
	})
	inFlight := false
	for _, sh := range svc.shards {
		inFlight = inFlight || sh.st.pass.active
	}
	if !inFlight {
		t.Fatalf("shards=%d seed=%d: the run left no compaction pass in flight", shards, seed)
	}
	for i := 0; i < 4*shards; i++ {
		svc.Put(fmt.Sprintf("pending-%02d", i), []byte("lost with the crash, or torn"))
	}
	if len(svc.shards[0].pending) == 0 {
		t.Fatalf("shards=%d: no put routed to shard 0", shards)
	}
	if !svc.Runtime(0).AbortAt(5, nil, func() { svc.FlushShard(0) }) {
		t.Fatalf("shards=%d: shard 0's commit emitted fewer than 5 events", shards)
	}
	return svc
}

// TestCrashMatchesSerialRecovery: Crash, recovering every shard on a
// goroutine of its own, leaves each shard exactly as referenceCrash's one
// shard after another does — key table, log heads, clock, device
// counters, durable image — and returns the same error. Both sides' key
// and segment tables must also match their logs.
func TestCrashMatchesSerialRecovery(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
			for seed := int64(1); seed <= 3; seed++ {
				cell := fmt.Sprintf("shards=%d %v seed=%d", shards, mode, seed)
				got, want := crashFixture(t, shards, seed), crashFixture(t, shards, seed)
				if g, w := got.Crash(mode, seed), referenceCrash(want, mode, seed); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("%s: Crash returned %v, the serial loop %v", cell, g, w)
				}
				if g, w := got.Space(), want.Space(); g != w {
					t.Fatalf("%s: Space %+v, serial %+v", cell, g, w)
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Fatalf("%s: Stats %+v, serial %+v", cell, g, w)
				}
				for i := 0; i < shards; i++ {
					gs, ws := got.shards[i], want.shards[i]
					if !reflect.DeepEqual(gs.st.keys, ws.st.keys) {
						t.Fatalf("%s: shard %d recovered a different key table", cell, i)
					}
					requireTablesMatchLog(t, gs.st)
					requireTablesMatchLog(t, ws.st)
					gd, gv := got.LogHeads(i)
					wd, wv := want.LogHeads(i)
					if gd != wd || gv != wv {
						t.Fatalf("%s: shard %d heads (%d,%d), serial (%d,%d)", cell, i, gd, gv, wd, wv)
					}
					if g, w := gs.rt.Clock.Now(), ws.rt.Clock.Now(); g != w || gs.freeAt != ws.freeAt {
						t.Fatalf("%s: shard %d clock %d (free at %d), serial %d (%d)", cell, i, g, gs.freeAt, w, ws.freeAt)
					}
					if g, w := gs.rt.Dev.Stats(), ws.rt.Dev.Stats(); g != w {
						t.Fatalf("%s: shard %d device stats %+v, serial %+v", cell, i, g, w)
					}
					if !sameDurable(gs.rt.Dev, ws.rt.Dev) {
						t.Fatalf("%s: shard %d durable images differ", cell, i)
					}
				}
			}
		}
	}
}

// sameDurable reports whether two devices hold the same durable state: the
// mapped extent and every durable page.
func sameDurable(a, b *pmem.Device) bool {
	return a.Mapped() == b.Mapped() && slices.Equal(a.DurableImage(), b.DurableImage())
}

// referenceTrace is the merged trace as Service built it before the k-way
// merge: every shard's events copied end to end, then one stable sort by
// time.
func referenceTrace(s *Service) *trace.Trace {
	var events []trace.Event
	var vloads, vstores uint64
	for i, sh := range s.shards {
		for _, e := range sh.rt.Trace.Events() {
			e.TID = uint16(i)
			events = append(events, e)
		}
		vloads += sh.rt.Trace.VolatileLoads
		vstores += sh.rt.Trace.VolatileStores
	}
	sort.SliceStable(events, func(a, b int) bool {
		return events[a].Time < events[b].Time
	})
	merged := &trace.Trace{App: "kvservice", Layer: "native", Threads: len(s.shards),
		VolatileLoads: vloads, VolatileStores: vstores}
	for _, e := range events {
		merged.Append(e)
	}
	return merged
}

// drain reads src to its end and returns its events, failing t on an error,
// an empty chunk or one of more than DefaultBlockEvents events.
func drain(t *testing.T, src trace.EventSource) []trace.Event {
	t.Helper()
	var events []trace.Event
	for {
		c, err := src.NextChunk()
		if err == io.EOF {
			return events
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(c) == 0 || len(c) > trace.DefaultBlockEvents {
			t.Fatalf("a chunk of %d events, want 1 to %d", len(c), trace.DefaultBlockEvents)
		}
		events = append(events, c...)
	}
}

// TestTraceMergeMatchesStableSort: the merged stream holds the stable
// sort's events, Meta and volatile counters, on one shard, two and four,
// through a crash and recovery, and where shards' events share a timestamp
// (every shard formats its log at the same simulated instants, so ties are
// there from the first event). It is a snapshot: a request served after
// TraceSource returns is not in it. drain holds every chunk to 1 to
// DefaultBlockEvents events.
func TestTraceMergeMatchesStableSort(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		_, svc := Run(SimConfig{
			Shards: shards, Batch: 8, Clients: 8000, Ops: 6000, Keys: 4096,
			WritePct: 40, DeletePct: 10, SegBytes: 1 << 14, Record: true,
		})
		if err := svc.Crash(pmem.Strict, 1); err != nil {
			t.Fatal(err)
		}
		svc.Put("after", []byte("crash"))
		svc.Flush()
		src, want := svc.TraceSource(), referenceTrace(svc)
		svc.Put("later", []byte("than the snapshot"))
		svc.Flush()
		got := drain(t, src)
		if !slices.Equal(got, want.Events()) {
			t.Fatalf("%d shards: merged events differ from the stable sort (%d vs %d events)", shards, len(got), want.Len())
		}
		if m, w := src.Meta(), (trace.Meta{App: want.App, Layer: want.Layer, Threads: want.Threads}); m != w {
			t.Fatalf("%d shards: Meta() = %+v, want %+v", shards, m, w)
		}
		if l, s := src.Volatile(); l != want.VolatileLoads || s != want.VolatileStores {
			t.Fatalf("%d shards: Volatile() = %d, %d, want %d, %d", shards, l, s, want.VolatileLoads, want.VolatileStores)
		}
		if later := referenceTrace(svc).Len(); later <= len(got) {
			t.Fatalf("%d shards: the put after the snapshot recorded nothing (%d events, %d before)", shards, later, len(got))
		}
		ties := 0
		var prev trace.Event
		for _, e := range got {
			if e.Time == prev.Time && e.TID != prev.TID {
				ties++
			}
			prev = e
		}
		if shards > 1 && ties == 0 {
			t.Fatalf("%d shards: no two shards' events share a timestamp; tie order went untested", shards)
		}
	}
}

func TestKeyNameMatchesFmt(t *testing.T) {
	for _, n := range []uint64{0, 1, 9, 10, 65535, 99999999, 100000000, 123456789012, ^uint64(0)} {
		if got, want := keyName(n), fmt.Sprintf("key%08d", n); got != want {
			t.Errorf("keyName(%d) = %q, want %q", n, got, want)
		}
	}
}
