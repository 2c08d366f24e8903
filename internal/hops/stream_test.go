package hops

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

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
		d := newDfenceResolver(func(e *trace.Event, dfence bool) {
			if dfence {
				got[i] = true
			}
			i++
		})
		evs := events(tr)
		for i := range evs {
			d.push(&evs[i])
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

// failingSource hands out k chunks of its source and then fails: with err,
// or by panicking with panicValue when that is set.
type failingSource struct {
	trace.EventSource
	k          int
	err        error
	panicValue any
}

func (s *failingSource) NextChunk() ([]trace.Event, error) {
	if s.k == 0 {
		if s.panicValue != nil {
			panic(s.panicValue)
		}
		return nil, s.err
	}
	s.k--
	return s.EventSource.NextChunk()
}

// requireGoroutines waits for the goroutine count to come back to base:
// stage 1 has closed its channel by the time the replay returns, but may
// not have exited yet.
func requireGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: the replay's stage 1 outlived it", runtime.NumGoroutine(), base)
		}
	}
}

// TestReplayFailuresReachCaller holds the two-stage driver to the serial
// replay's failure behaviour. A source error after k chunks is what
// NormalizedSource and ReplaySource return; a panic in the source, on the
// stage-1 goroutine, reaches the caller's recover with its own value; a
// panic in a back end, on the caller's goroutine, does not leave stage 1
// waiting for a free batch. No goroutine outlives any of them. The trace is
// long enough that stage 1 runs out of batches several times over.
func TestReplayFailuresReachCaller(t *testing.T) {
	tr := genReplayTrace(5, 20*replayBatches*replayBatchSize)
	cfg, lat := DefaultConfig(), mem.DefaultLatency()
	boom := errors.New("source failed")
	for _, k := range []int{0, 1, 6, 12} {
		base := runtime.NumGoroutine()
		if _, err := NormalizedSource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, err: boom}, cfg, lat, nil); err != boom {
			t.Errorf("k=%d: NormalizedSource returned %v, want the source's error", k, err)
		}
		if _, err := ReplaySource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, err: boom}, HOPSNVM, cfg, lat, ReplayObs{}); err != boom {
			t.Errorf("k=%d: ReplaySource returned %v, want the source's error", k, err)
		}
		requireGoroutines(t, base)

		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("k=%d: recovered %v, want the source's panic value", k, r)
				}
			}()
			NormalizedSource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, panicValue: boom}, cfg, lat, nil)
		}()
		requireGoroutines(t, base)
	}

	// A back end with a zero-entry persist buffer indexes an empty drain
	// queue at the first store.
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if _, ok := recover().(runtime.Error); !ok {
				t.Errorf("the back end's panic did not reach the caller")
			}
		}()
		drive(trace.NewSliceSource(tr), cfg, lat, []*replayer{{model: HOPSNVM}})
	}()
	requireGoroutines(t, base)
}
