package memcache_test

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

func TestRunWorkloadMedianSmall(t *testing.T) {
	// memslap is GET-heavy, so the median transaction is tiny (paper: 4).
	rt := record(t, "memcached", 4, 100, 23)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	med := a.MedianTxEpochs()
	if med > 6 {
		t.Errorf("median epochs/tx = %d, paper reports 4", med)
	}
	// Only the durable (SET) transactions count for Figure 3; at 5% SET
	// over 400 ops that is a small number.
	if len(a.TxEpochCounts) < 5 {
		t.Fatalf("durable transactions = %d", len(a.TxEpochCounts))
	}
}
