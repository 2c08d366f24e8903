package nstore_test

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmsan"
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

func TestYCSBWorkload(t *testing.T) {
	rt := record(t, "ycsb", 2, 10, 11)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	// 2 preload txs + 20 workload txs.
	if len(a.TxEpochCounts) != 22 {
		t.Fatalf("transactions = %d", len(a.TxEpochCounts))
	}
	if a.MedianTxEpochs() < 10 {
		t.Fatalf("median epochs/tx = %d, want tens (paper: 42)", a.MedianTxEpochs())
	}
}

func TestTPCCWorkload(t *testing.T) {
	rt := record(t, "tpcc", 2, 10, 13)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TxEpochCounts) != 22 {
		t.Fatalf("transactions = %d", len(a.TxEpochCounts))
	}
	// NewOrder transactions are an order of magnitude bigger than YCSB's.
	max := 0
	for _, n := range a.TxEpochCounts {
		if n > max {
			max = n
		}
	}
	if max < 60 {
		t.Fatalf("largest tx = %d epochs, want >= 60 (paper median: 197)", max)
	}
}

// sanitize replays a whole run through the durability-ordering sanitizer:
// no line may reach commit dirty or unfenced, and — after the per-line
// deferred-flush tracking — commit must not re-flush lines an inline flush
// (undo record, neighbouring insert, allocator header) already covered.
func sanitize(t *testing.T, app string) {
	rt := record(t, app, 2, 6, 42)
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("ordering errors in %s trace:\n%s", app, rep)
	}
	if n := rep.Sites(pmsan.RedundantFlush); n != 0 {
		t.Fatalf("redundant flushes in %s trace: %d sites\n%s", app, n, rep)
	}
}

func TestYCSBTraceSanitizerClean(t *testing.T) { sanitize(t, "ycsb") }

func TestTPCCTraceSanitizerClean(t *testing.T) { sanitize(t, "tpcc") }
