package echo_test

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// record runs app's paper mix through the suite's one driver on a
// recording runtime.
func record(t *testing.T, app string, clients, ops int, seed int64) *persist.Runtime {
	t.Helper()
	a, err := crashcheck.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	rt := persist.NewRuntime(a.Name, a.Layer, clients, persist.Config{})
	a.Run(rt, clients, ops, seed)
	return rt
}

func TestRunWorkloadProducesTrace(t *testing.T) {
	rt := record(t, "echo", 4, 5, 42)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TxEpochCounts) != 20 {
		t.Fatalf("transactions = %d, want 20 (4 clients x 5)", len(a.TxEpochCounts))
	}
	if a.TotalEpochs == 0 || a.MedianTxEpochs() < 10 {
		t.Fatalf("median epochs/tx = %d", a.MedianTxEpochs())
	}
	if a.DRAMAccesses == 0 {
		t.Fatal("no volatile traffic accounted")
	}
}

func TestDeterministicWorkload(t *testing.T) {
	run := func() int { return record(t, "echo", 2, 3, 7).Trace.Len() }
	if run() != run() {
		t.Fatal("same seed produced different traces")
	}
}
