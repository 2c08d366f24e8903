package redisstore_test

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
	// Two clients' worth of commands, all served by the one event loop.
	rt := record(t, "redis", 2, 100, 3)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TxEpochCounts) == 0 {
		t.Fatal("no transactions traced")
	}
	// Single-threaded server: everything on thread 0.
	for _, e := range rt.Trace.Events() {
		if e.TID != 0 {
			t.Fatal("event off the event-loop thread")
		}
	}
}
