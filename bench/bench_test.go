package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestPickCapacity(t *testing.T) {
	ok := func(c int) ratePoint { return ratePoint{Clients: c, P99Us: 3, Backlog: 1.001} }
	for _, c := range []struct {
		name   string
		points []ratePoint
		want   int
	}{
		{"all meet the limit", []ratePoint{ok(500), ok(1000), ok(2000)}, 2000},
		{"p99 over the limit", []ratePoint{ok(500), {Clients: 1000, P99Us: 25.1, Backlog: 1}}, 500},
		{"p99 at the limit", []ratePoint{ok(500), {Clients: 1000, P99Us: 25, Backlog: 1}}, 1000},
		{"backlog still growing", []ratePoint{ok(8000), {Clients: 16000, P99Us: 3, Backlog: 1.06}}, 8000},
		{"a rejected request", []ratePoint{ok(500), {Clients: 1000, P99Us: 3, Backlog: 1, Rejects: 1}}, 500},
		{"none", []ratePoint{{Clients: 500, P99Us: 80, Backlog: 1}}, 0},
	} {
		if got := pickCapacity(c.points); got != c.want {
			t.Errorf("%s: capacity %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "pass", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "run", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 2, Name: "inner", StartNS: 20, EndNS: 30},
		{ID: 4, Parent: 1, Name: "run", StartNS: 60, EndNS: 90},
	}
	self := selfTimes(spans)
	want := map[string]int64{"pass": 30, "run": 60, "inner": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, self[name], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	tr.do("outer", func() {
		tr.do("inner", func() { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if in, out := tr.spans[1], tr.spans[0]; in.StartNS < out.StartNS || in.EndNS > out.EndNS || in.EndNS <= in.StartNS {
		t.Errorf("inner %+v not inside outer %+v", in, out)
	}
	var untraced *tracer
	if s := untraced.do("x", func() { time.Sleep(time.Millisecond) }); s < 0.001 {
		t.Errorf("untraced do timed %v s", s)
	}
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	var mf manifest
	if err := readJSON(filepath.Join("..", manifestPath), &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestManifestMatchesCatalogue keeps BENCHMARK.json and metrics.go in step.
func TestManifestMatchesCatalogue(t *testing.T) {
	mf := loadManifest(t)
	if len(mf.Workloads) != len(workloadNames) {
		t.Fatalf("manifest has %d workloads, harness %d", len(mf.Workloads), len(workloadNames))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, catalogue %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s %s: bound %v, catalogue %v", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd, true)
	check("per_layer", mf.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload at 1/50 scale, untraced and traced, and
// checks that each run emits exactly the metrics BENCHMARK.json declares
// for it, finite, with no failed operation.
func TestSmoke(t *testing.T) {
	mf := loadManifest(t)
	start := time.Now()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, tr := measure(name, runConfig{seed: 1, scale: smokeScale, trace: traced})
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", name, traced, res.Failed, res.Attempted)
			}
			if len(res.SimDigest) != 64 {
				t.Errorf("%s: sim_digest %q", name, res.SimDigest)
			}
			declared := mf.EndToEnd
			if traced {
				declared = mf.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", name, traced, d.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must be positive", name, d.Name, m.Value)
				}
			}
			if !traced {
				continue
			}
			// The root spans cover set-up and pass; every other span nests.
			var roots int64
			for _, s := range tr.spans {
				if s.Parent == 0 {
					roots += s.EndNS - s.StartNS
				}
			}
			var all int64
			for _, ns := range selfTimes(tr.spans) {
				all += ns
			}
			if roots == 0 || all != roots {
				t.Errorf("%s: self times sum to %d ns, root spans to %d ns", name, all, roots)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Logf("smoke run took %v (budget 10 s on the reference box)", d)
	}
}

func TestSmokeRefusedWithOutput(t *testing.T) {
	err := run(wSuite, 1, 0, 0, filepath.Join(t.TempDir(), "r.json"), true, false, nil)
	if err == nil {
		t.Fatal("-smoke with -o was accepted")
	}
}

func TestCompare(t *testing.T) {
	if d := relDiff(2, 2.2); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("relDiff = %v", d)
	}
	if d := relDiff(0, 0); d != 0 {
		t.Errorf("relDiff(0,0) = %v", d)
	}
	for _, c := range []struct {
		diff   float64
		better string
		want   string
	}{
		{0.05, "lower", "same"}, {-0.1, "lower", "same"},
		{0.2, "lower", "worse"}, {-0.2, "lower", "better"},
		{0.2, "higher", "better"}, {-0.2, "higher", "worse"},
	} {
		if got := verdict(c.diff, 0.1, c.better); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.diff, c.better, got, c.want)
		}
	}

	mf := loadManifest(t)
	set := func(wall float64, digest string) resultSet {
		return resultSet{Results: []result{{
			Workload: wSuite, SimDigest: digest,
			Metrics: map[string]metric{"wall_s": {wall, "s"}, "fences_per_op": {20, "1/op"}},
		}}}
	}
	for _, c := range []struct {
		name string
		b    resultSet
		want int
	}{
		{"identical", set(7, "d"), 0},
		{"within the bound", set(7.3, "d"), 0},
		{"slower than the bound", set(9, "d"), 1},
		{"digest differs", set(7, "e"), 1},
	} {
		if got := compareSets(io.Discard, mf, set(7, "d"), c.b); got != c.want {
			t.Errorf("%s: %d differences, want %d", c.name, got, c.want)
		}
	}
}
