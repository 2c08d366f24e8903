package whisper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestMetricsCoverEveryApp pins the tentpole's acceptance contract: running
// the whole suite leaves non-zero flush and fence counters for every app in
// the metrics snapshot — the stack is observable end to end.
func TestMetricsCoverEveryApp(t *testing.T) {
	ResetMetrics()
	defer ResetMetrics()
	if _, err := RunAllFused(Names(), Config{Ops: 5, Seed: 3}, FusedConfig{}, 2, nil); err != nil {
		t.Fatal(err)
	}
	snap := Metrics()
	for _, name := range Names() {
		for _, metric := range []string{"pmem_flushes_total", "pmem_fences_total", "pmem_stores_total"} {
			key := fmt.Sprintf("%s{app=%s}", metric, name)
			if snap.Counters[key] == 0 {
				t.Errorf("%s is zero or missing", key)
			}
		}
		if snap.Histograms[fmt.Sprintf("persist_epoch_lines{app=%s}", name)].Count == 0 {
			t.Errorf("persist_epoch_lines{app=%s} recorded no epochs", name)
		}
	}
}

// TestMetricsMatchTheTrace holds the persist instruments to the run they
// describe, for every suite member after Run: the threads' ordering points
// sum to the device's fence count, and persist_epoch_lines holds one
// observation per fence that closed an epoch with a store or NT-store line
// touch on its thread, summing to those epochs' line touches as the
// retained trace gives them. An instrument published late, or not at all,
// fails it.
func TestMetricsMatchTheTrace(t *testing.T) {
	defer ResetMetrics()
	for _, name := range Names() {
		ResetMetrics()
		rep, err := Run(name, Config{Ops: 20, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		snap := Metrics()
		var points uint64
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "persist_ordering_points_total{app="+name+",") {
				points += v
			}
		}
		if fences := snap.Counters["pmem_fences_total{app="+name+"}"]; points != fences || fences == 0 {
			t.Errorf("%s: threads' ordering points sum to %d, the device fenced %d times", name, points, fences)
		}
		touches := make(map[uint16]uint64)
		var epochs, lines uint64
		for _, chunk := range rep.Trace.tr.Chunks() {
			for _, e := range chunk {
				switch e.Kind {
				case trace.KStore, trace.KStoreNT:
					touches[e.TID] += uint64(mem.LinesSpanned(e.Addr, int(e.Size)))
				case trace.KFence:
					if n := touches[e.TID]; n > 0 {
						epochs, lines = epochs+1, lines+n
						touches[e.TID] = 0
					}
				}
			}
		}
		h := snap.Histograms["persist_epoch_lines{app="+name+"}"]
		if h.Count != epochs || h.Sum != lines || epochs == 0 {
			t.Errorf("%s: persist_epoch_lines count %d sum %d, the trace closes %d epochs of %d line touches",
				name, h.Count, h.Sum, epochs, lines)
		}
	}
}

// TestMetricsDoNotPerturbRuns pins the "byte-identical with metrics on"
// guarantee at the API level: a run wedged between metric resets and a run
// feeding a populated registry produce identical traces.
func TestMetricsDoNotPerturbRuns(t *testing.T) {
	ResetMetrics()
	a, err := Run("echo", Config{Clients: 2, Ops: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Second run on a now-populated registry (instruments hot).
	b, err := Run("echo", Config{Clients: 2, Ops: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var abuf, bbuf bytes.Buffer
	if err := a.Trace.Encode(&abuf); err != nil {
		t.Fatal(err)
	}
	if err := b.Trace.Encode(&bbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abuf.Bytes(), bbuf.Bytes()) {
		t.Fatal("metrics state changed the recorded trace")
	}
	ResetMetrics()
}

// TestMetricsSnapshotJSONRoundTrips checks the snapshot marshals to
// parseable JSON with the three top-level sections CI greps for.
func TestMetricsSnapshotJSONRoundTrips(t *testing.T) {
	ResetMetrics()
	defer ResetMetrics()
	if _, err := Run("hashmap", Config{Clients: 2, Ops: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(back.Counters)+len(back.Gauges)+len(back.Histograms) == 0 {
		t.Fatal("snapshot empty after a run")
	}
	if back.Counters["pmem_flushes_total{app=hashmap}"] == 0 {
		t.Fatal("flush counter missing from round-tripped JSON")
	}
}

// TestReportDeterministic20Runs is the map-iteration regression test: the
// rendered analysis report and the HOPS simulation output must be
// byte-identical across 20 repeated runs of the same seed.
func TestReportDeterministic20Runs(t *testing.T) {
	render := func() string {
		rep, err := Run("ycsb", Config{Clients: 2, Ops: 20, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		norm := SimulateHOPS(rep.Trace, DefaultHOPSConfig())
		out := rep.String()
		for _, m := range HOPSModels() {
			out += fmt.Sprintf("%s %.6f\n", m, norm[m])
		}
		return out
	}
	first := render()
	for i := 1; i < 20; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs first:\n%s", i, got, first)
		}
	}
}
