package hops

import (
	"math/rand"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// genReplayTrace builds a random trace with realistic transactional
// structure: per-thread runs of stores/flushes closed by fences, some
// inside transactions (making their last fence a dfence), some not.
func genReplayTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{App: "rand", Layer: "native", Threads: 4}
	clock := mem.Time(1)
	for i := 0; i < n; i++ {
		tid := int32(rng.Intn(4))
		clock += mem.Time(rng.Intn(500))
		e := trace.Event{TID: tid, Time: clock}
		switch r := rng.Intn(100); {
		case r < 40:
			e.Kind = trace.KStore
			e.Addr = mem.PMBase + mem.Addr(rng.Intn(256))*mem.LineSize
			e.Size = uint32(1 + rng.Intn(128))
		case r < 50:
			e.Kind = trace.KStoreNT
			e.Addr = mem.PMBase + mem.Addr(rng.Intn(256))*mem.LineSize
			e.Size = uint32(1 + rng.Intn(128))
		case r < 60:
			e.Kind = trace.KFlush
			e.Addr = mem.PMBase + mem.Addr(rng.Intn(256))*mem.LineSize
			e.Size = 64
		case r < 78:
			e.Kind = trace.KFence
		case r < 84:
			e.Kind = trace.KTxBegin
		case r < 92:
			e.Kind = trace.KTxEnd
		case r < 96:
			e.Kind = trace.KLoad
			e.Addr = mem.PMBase
		default:
			e.Kind = trace.KVStore
			e.Addr = 64
		}
		tr.Append(e)
	}
	return tr
}

// TestDfenceResolverMatchesMarks pins the streaming lookahead rule to the
// materialized marking: a fence is a dfence iff the thread's next ordering
// event is a commit.
func TestDfenceResolverMatchesMarks(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := genReplayTrace(seed, 2000)
		want := markDurabilityFences(tr)
		got := make(map[int]bool)
		i := 0
		d := newDfenceResolver(func(e trace.Event, dfence bool) {
			if dfence {
				got[i] = true
			}
			i++
		})
		evs := events(tr)
		for _, e := range evs {
			d.push(e)
		}
		d.finish()
		if i != len(evs) {
			t.Fatalf("seed %d: resolver released %d of %d events", seed, i, len(evs))
		}
		for j := range evs {
			if want[j] != got[j] {
				t.Fatalf("seed %d: event %d (%v): dfence=%v, serial says %v",
					seed, j, evs[j], got[j], want[j])
			}
		}
	}
}

// TestReplaySourceMatchesReplay asserts the streaming replay is cycle-
// identical to the oracle replay (whole-trace dfence marks) for every
// model.
func TestReplaySourceMatchesReplay(t *testing.T) {
	cfg := DefaultConfig()
	lat := mem.DefaultLatency()
	for seed := int64(0); seed < 6; seed++ {
		tr := genReplayTrace(seed, 3000)
		for _, m := range Models {
			want := replayMarked(tr, m, cfg, lat)
			got, err := ReplaySource(trace.NewSliceSource(tr), m, cfg, lat, ReplayObs{})
			if err != nil {
				t.Fatalf("seed %d model %v: %v", seed, m, err)
			}
			if got != want {
				t.Fatalf("seed %d model %v: stream %+v != serial %+v", seed, m, got, want)
			}
		}
	}
}

// TestNormalizedSourceMatchesNormalized checks the single-pass five-model
// lockstep replay against five oracle replays, one per model.
func TestNormalizedSourceMatchesNormalized(t *testing.T) {
	cfg := DefaultConfig()
	lat := mem.DefaultLatency()
	tr := genReplayTrace(42, 4000)
	base := replayMarked(tr, X86NVM, cfg, lat)
	want := map[Model]float64{X86NVM: 1.0}
	for _, m := range Models[1:] {
		want[m] = float64(replayMarked(tr, m, cfg, lat).Cycles) / float64(base.Cycles)
	}
	got, err := NormalizedSource(trace.NewSliceSource(tr), cfg, lat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("model count: got %d want %d", len(got), len(want))
	}
	for m, v := range want {
		if got[m] != v {
			t.Fatalf("model %v: stream %v != serial %v", m, got[m], v)
		}
	}
}
