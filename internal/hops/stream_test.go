package hops

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// ReplaySource reruns src's instruction stream under the given persistence
// model in one pass, in memory bounded by the threads and lines in flight,
// not by the trace's length. The instruments in ro are pure outputs and
// never change the Result; they are filled when the replay finishes.
func ReplaySource(src trace.EventSource, model Model, cfg Config, ro ReplayObs) (Result, error) {
	r := newReplayer(model, cfg, ro)
	if err := drive(src, []*replayer{r}); err != nil {
		return Result{Model: model}, err
	}
	return r.result(), nil
}

// genReplayTrace builds a random trace with realistic transactional
// structure: per-thread runs of stores/flushes closed by fences, some
// inside transactions (making their commit a dfence), some not.
func genReplayTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{App: "rand", Layer: "native", Threads: 4}
	clock := mem.Time(1)
	for i := 0; i < n; i++ {
		tid := uint16(rng.Intn(4))
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

// TestReplaySourceMatchesReplay asserts the staged streaming replay is
// cycle-identical to the same front and back end stepped serially, for
// every model.
func TestReplaySourceMatchesReplay(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(0); seed < 6; seed++ {
		tr := genReplayTrace(seed, 3000)
		for _, m := range Models {
			want := replaySerial(tr, m, cfg, nil)
			got, err := ReplaySource(trace.NewSliceSource(tr), m, cfg, ReplayObs{})
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
// replay against five serial replays, one per model.
func TestNormalizedSourceMatchesNormalized(t *testing.T) {
	cfg := DefaultConfig()
	tr := genReplayTrace(42, 4000)
	base := replaySerial(tr, X86NVM, cfg, nil)
	want := map[Model]float64{X86NVM: 1.0}
	for _, m := range Models[1:] {
		want[m] = float64(replaySerial(tr, m, cfg, nil).Cycles) / float64(base.Cycles)
	}
	got, err := NormalizedSource(trace.NewSliceSource(tr), cfg, nil)
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
// the back-end stages have signalled their exit by the time the replay
// returns, but may not have exited yet.
func requireGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a stage of the replay outlived it", runtime.NumGoroutine(), base)
		}
	}
}

// TestReplayFailuresReachCaller holds the staged driver to the serial
// replay's failure behaviour. A source error after k chunks is what
// NormalizedSource and ReplaySource return, whether the models have a
// persist buffer or not; a panic in the source, on the caller's goroutine,
// reaches the caller's recover with its own value once the back ends have
// stopped; a panic in a back end, on a goroutine of its own, does too, and
// does not leave stage 1 waiting for a free batch. No goroutine outlives
// any of them. The trace is long enough that stage 1 runs out of batches
// several times over.
func TestReplayFailuresReachCaller(t *testing.T) {
	tr := genReplayTrace(5, 20*replayBatches*replayBatchSize)
	cfg := DefaultConfig()
	boom := errors.New("source failed")
	for _, k := range []int{0, 1, 6, 12} {
		base := runtime.NumGoroutine()
		if _, err := NormalizedSource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, err: boom}, cfg, nil); err != boom {
			t.Errorf("k=%d: NormalizedSource returned %v, want the source's error", k, err)
		}
		for _, m := range []Model{HOPSNVM, X86NVM} {
			if _, err := ReplaySource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, err: boom}, m, cfg, ReplayObs{}); err != boom {
				t.Errorf("k=%d: ReplaySource(%v) returned %v, want the source's error", k, m, err)
			}
		}
		requireGoroutines(t, base)

		for _, m := range []Model{HOPSPWQ, Ideal} {
			func() {
				defer func() {
					if r := recover(); r != boom {
						t.Errorf("k=%d %v: recovered %v, want the source's panic value", k, m, r)
					}
				}()
				ReplaySource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, panicValue: boom}, m, cfg, ReplayObs{})
			}()
		}
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("k=%d: recovered %v, want the source's panic value", k, r)
				}
			}()
			NormalizedSource(&failingSource{EventSource: trace.NewSliceSource(tr), k: k, panicValue: boom}, cfg, nil)
		}()
		requireGoroutines(t, base)
	}

	// A HOPS (PWQ) back end with a zero-entry persist buffer indexes an
	// empty drain queue at the first store, on its own goroutine, while the
	// other four models replay as usual. The caller recovers that panic's
	// own value: the one the same store raises when replayed here.
	var want any
	func() {
		defer func() { want = recover() }()
		(&replayer{model: HOPSPWQ}).apply(&frontStep{kind: trace.KStore, lines: 1})
	}()
	if _, ok := want.(runtime.Error); !ok {
		t.Fatalf("a zero-entry persist buffer raised %v, want a runtime error", want)
	}
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != want {
				t.Errorf("recovered %v, want the back end's panic value %v", r, want)
			}
		}()
		rs := make([]*replayer, len(Models))
		for i, m := range Models {
			rs[i] = newReplayer(m, cfg, ReplayObs{})
			if m == HOPSPWQ {
				rs[i].pbEntries = 0
			}
		}
		drive(trace.NewSliceSource(tr), rs)
	}()
	requireGoroutines(t, base)
}

// countingSource counts the events its source hands out.
type countingSource struct {
	trace.EventSource
	events int
}

func (s *countingSource) NextChunk() ([]trace.Event, error) {
	chunk, err := s.EventSource.NextChunk()
	s.events += len(chunk)
	return chunk, err
}

// TestBackEndPanicReachesNormalizedSource: a back end that panics on its
// own goroutine — HOPS (PWQ) observing its persist-buffer occupancy into a
// histogram with no buckets — reaches NormalizedSource's caller with its
// own value, after stage 1 has stopped reading: stage 1 fills the batches
// there are, none comes back from the stage that panicked, and it reads no
// further than the chunk it is in. No goroutine outlives the replay.
func TestBackEndPanicReachesNormalizedSource(t *testing.T) {
	tr := genReplayTrace(5, 20*replayBatches*replayBatchSize)
	maxChunk := 0
	for src := trace.NewSliceSource(tr); ; {
		chunk, err := src.NextChunk()
		if err != nil {
			break
		}
		maxChunk = max(maxChunk, len(chunk))
	}
	src := &countingSource{EventSource: trace.NewSliceSource(tr)}
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if r, ok := recover().(runtime.Error); !ok {
				t.Errorf("recovered %v, want the back end's runtime error", r)
			}
		}()
		NormalizedSource(src, DefaultConfig(), func(m Model) ReplayObs {
			if m == HOPSPWQ {
				return ReplayObs{Occupancy: &obs.Histogram{}}
			}
			return ReplayObs{}
		})
		t.Error("NormalizedSource returned with a back end panicking")
	}()
	if limit := replayBatches*replayBatchSize + maxChunk; src.events > limit {
		t.Errorf("stage 1 read %d of %d events after a back end panicked, want at most %d", src.events, tr.Len(), limit)
	}
	requireGoroutines(t, base)
}
