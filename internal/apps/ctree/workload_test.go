package ctree_test

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

func TestRunWorkload(t *testing.T) {
	rt := record(t, "ctree", 4, 25, 21)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	// The tree's setup transaction, then 4 clients x 25 INSERTs.
	if len(a.TxEpochCounts) != 101 {
		t.Fatalf("transactions = %d, want 101", len(a.TxEpochCounts))
	}
	if a.SingletonFraction() < 0.5 {
		t.Errorf("singleton fraction = %.2f", a.SingletonFraction())
	}
}
