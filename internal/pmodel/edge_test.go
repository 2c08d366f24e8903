package pmodel

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

func TestEmptyProgram(t *testing.T) {
	r := checkDSL(t, "", CheckConfig{})
	if r.States != 1 || len(r.Durable) != 1 {
		t.Fatalf("states=%d durable=%v; want exactly the initial state", r.States, r.Durable)
	}
	if !r.Clean() {
		t.Fatal("empty program not clean")
	}
	ex, err := execute(r.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Trace.Len() != 0 {
		t.Fatalf("empty program emitted %d events", ex.Trace.Len())
	}
}

func TestSingleOpThread(t *testing.T) {
	r := checkDSL(t, "thread:\n  st x 7\n", CheckConfig{})
	for _, want := range [][]uint64{vals(0), vals(7)} {
		if !r.Contains(want) {
			t.Errorf("durable set %v misses %v", r.Durable, want)
		}
	}
	if len(r.Durable) != 2 {
		t.Fatalf("durable = %v, want exactly two states", r.Durable)
	}
}

func TestZeroThreadsWithInvariant(t *testing.T) {
	// Threads=0 but variables exist (declared by the invariant): the
	// only durable state is all-zero, and execution still works — the
	// runtime is created with one idle thread.
	p := MustParse("invariant x == 0\n")
	r, err := Check(p, CheckConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Durable) != 1 || !r.Clean() {
		t.Fatalf("durable=%v clean=%v", r.Durable, r.Clean())
	}
	ex, err := execute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Final) != 1 || ex.Final[0] != 0 {
		t.Fatalf("final = %v", ex.Final)
	}
}

func TestFlushSizeZeroIsInvisible(t *testing.T) {
	// A size-0 flush is persist.Flush's documented no-op path: the model
	// folds it away, the device run emits no flush event, and the
	// trailing fence closes no work (pmsan's FenceNoWork diagnostic).
	src := `
thread:
  flush x 0
  fence
invariant x == 0
`
	r := checkDSL(t, src, CheckConfig{})
	if len(r.Durable) != 1 || !r.Clean() {
		t.Fatalf("durable=%v clean=%v", r.Durable, r.Clean())
	}
	ex, err := execute(r.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := ex.Trace.CountKind(trace.KFlush); n != 0 {
		t.Fatalf("size-0 flush emitted %d flush events", n)
	}
	rep := sanitize(ex.Trace)
	if rep.Sites(pmsan.FenceNoWork) == 0 {
		t.Fatal("fence over a no-op flush did not raise FenceNoWork")
	}
}

func TestFenceOnlyProgramClosesNoEpoch(t *testing.T) {
	// A fence with no preceding stores closes no epoch: the zero-line
	// epoch guard means the streaming epoch analysis sees nothing.
	ex, err := execute(MustParse("thread:\n  fence\n  fence\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := epoch.Analyze(ex.Trace)
	if res.TotalEpochs != 0 {
		t.Fatalf("fence-only run closed %d epochs", res.TotalEpochs)
	}
}

// sanitize runs pmsan over an in-memory trace.
func sanitize(tr *trace.Trace) *pmsan.Report {
	src := trace.NewSliceSource(tr)
	s := pmsan.New(src.Meta())
	for _, e := range tr.Events() {
		s.Observe(e)
	}
	return s.Finish()
}
