package main

import (
	"fmt"
	"strings"

	whisper "github.com/whisper-pm/whisper"
)

// The metric catalogue. BENCHMARK.json at the repo root declares the same
// names, units and directions (bench_test.go holds the two in step); the
// catalogue adds what the manifest has no field for: the layer a metric
// belongs to, the end-to-end metric it should move, and the workloads it
// is measured on. A per-layer metric reads 0 on a workload that does not
// exercise its layer.

// Workload names, in the order `-workload all` runs them.
const (
	wSuite   = "suite"
	wAnalyze = "analyze"
	wChurn   = "kv_churn"
	wRead    = "kv_read"
	wRecover = "kv_recover"
)

var workloadNames = []string{wSuite, wAnalyze, wChurn, wRead, wRecover}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	Bound float64
	// Layer, Moves and On document a per-layer metric: its module, the
	// end-to-end metric it should move, and the workloads that measure it.
	Layer string
	Moves string
	On    []string
}

// endToEnd lists the metrics every workload reports from its untraced
// run. What "op" and "latency" mean per workload is in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "fences_per_op", Unit: "1/op", Better: "lower", Bound: 0.03},
	{Name: "write_amp", Unit: "B/B", Better: "lower", Bound: 0.06},
	{Name: "sim_latency_us", Unit: "us", Better: "lower", Bound: 0.25},
}

var (
	kvAll = []string{wChurn, wRead, wRecover}
	kvDES = []string{wChurn, wRead}
	dev   = []string{wSuite, wChurn, wRead, wRecover}
	all   = workloadNames
)

// Client-count ladders of the two DES workloads; refRate indexes the rate
// the latency and count metrics are read at.
var (
	churnRates = []int{500, 1000, 2000, 4000}
	readRates  = []int{8000, 16000, 24000, 32000}
)

const refRate = 1

var hopsModelKeys = []struct{ model, key string }{
	{"x86-64 (NVM)", "x86_nvm"},
	{"x86-64 (PWQ)", "x86_pwq"},
	{"HOPS (NVM)", "hops_nvm"},
	{"HOPS (PWQ)", "hops_pwq"},
	{"IDEAL (NON-CC)", "ideal"},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(layer, moves string, on []string, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, Layer: layer, Moves: moves, On: on})
		}
	}
	add("pmem", "wall_s, fences_per_op, write_amp", dev, "count", "lower",
		"pmem.stores", "pmem.nt_stores", "pmem.loads", "pmem.flushes", "pmem.fences",
		"pmem.lines_persisted", "pmem.bytes_stored")
	add("pmem", "wall_s", []string{wSuite}, "ns", "lower", "pmem.sff_wall_ns", "pmem.sff_sim_ns")
	add("persist", "wall_s", []string{wSuite}, "ns", "lower", "persist.sff_wall_ns", "persist.emit_wall_ns")
	add("persist", "wall_s", []string{wSuite}, "count", "lower", "persist.events")
	for _, lib := range []string{"nvml.tx", "mnemosyne.tx", "pmfs.write"} {
		layer := lib[:strings.IndexByte(lib, '.')]
		add(layer, "wall_s", []string{wSuite}, "ns", "lower", lib+"_wall_ns")
		add(layer, "fences_per_op, write_amp", []string{wSuite}, "1/op", "lower", lib+"_fences")
	}
	for _, app := range whisper.Names() {
		add("apps", "wall_s", []string{wSuite}, "s", "lower", "app."+app+".exec_s")
		add("apps", "wall_s", []string{wSuite}, "count", "lower", "app."+app+".events")
		add("apps", "fences_per_op", []string{wSuite}, "1/op", "lower", "app."+app+".fences_per_tx")
	}
	add("suite", "wall_s", []string{wSuite}, "Mev/s", "higher", "suite.mevents_per_s")

	an := []string{wAnalyze}
	add("trace", "wall_s, setup_s", an, "Mev/s", "higher",
		"trace.encode_v2_mev_s", "trace.decode_v2_mev_s", "trace.decode_mat_mev_s")
	add("trace", "wall_s, setup_s", an, "B", "lower", "trace.bytes_per_event")
	add("epoch", "wall_s", an, "Mev/s", "higher", "epoch.stream_mev_s")
	add("epoch", "peak_live_mb", an, "1/kev", "lower", "epoch.stream_allocs_per_kev")
	add("epoch", "wall_s", []string{wAnalyze, wSuite}, "Mev/s", "higher", "epoch.mat_mev_s")
	add("epoch", "peak_live_mb", []string{wAnalyze, wSuite}, "1/kev", "lower", "epoch.mat_allocs_per_kev")
	add("pmsan", "wall_s", an, "Mev/s", "higher", "pmsan.mev_s")
	add("pmsan", "none (must stay 0)", an, "count", "lower", "pmsan.errors")
	add("pmsan", "none", an, "count", "lower", "pmsan.diagnostics")
	add("cachesim", "wall_s", an, "Mev/s", "higher", "cachesim.mev_s")
	add("hops", "wall_s", an, "Mev/s", "higher", "hops.replay_mev_s")
	for _, m := range hopsModelKeys {
		add("hops", "none (simulated result)", an, "x", "lower", "hops.norm."+m.key)
	}
	add("analyze", "wall_s", an, "Mev/s", "higher", "analyze.mevents_per_s", "analyze.hops_mevents_per_s")

	add("kvservice", "fences_per_op", kvAll, "count", "lower", "kv.batches", "kv.fences", "kv.rejects")
	add("kvservice", "fences_per_op", kvAll, "1/op", "higher", "kv.mean_batch")
	add("kvservice", "sim_latency_us, write_amp", kvAll, "count", "lower",
		"kv.compactions", "kv.copied_bytes", "kv.segments", "kv.live_bytes", "kv.log_bytes")
	add("kvservice", "write_amp", kvAll, "B/B", "lower", "kv.space_amp")
	add("kvservice", "sim_latency_us", kvDES, "us", "lower", "kv.p50_us", "kv.p999_us")
	add("kvservice", "sim_latency_us", kvDES, "count", "higher", "kv.capacity_clients")
	add("kvservice", "wall_s", kvDES, "k/s", "higher", "kv.des_kops_per_s")
	for _, l := range []struct {
		w     string
		rates []int
	}{{wChurn, churnRates}, {wRead, readRates}} {
		for _, c := range l.rates {
			on := []string{l.w}
			add("kvservice", "sim_latency_us", on, "us", "lower", fmt.Sprintf("kv.p99_us.c%d", c))
			add("kvservice", "wall_s", on, "s", "lower", fmt.Sprintf("kv.wall_s.c%d", c))
			add("kvservice", "sim_latency_us", on, "x", "lower", fmt.Sprintf("kv.backlog_ratio.c%d", c))
		}
	}
	rec := []string{wRecover}
	add("kvservice", "setup_s, wall_s", rec, "ns", "lower", "kv.put_wall_ns", "kv.put_b1_wall_ns", "kv.get_wall_ns")
	add("kvservice", "wall_s", rec, "ms", "lower", "kv.recover_wall_ms", "kv.recover_wall_ms_max")
	add("kvservice", "sim_latency_us", rec, "count", "lower", "kv.recover_records", "kv.recover_lines_loaded")

	add("bench", "none (validity of the numbers above)", all, "%", "lower", "bench.trace_overhead_pct")
	add("bench", "none (validity of the numbers above)", all, "s", "lower", "bench.generator_s")
	add("bench", "peak_live_mb", all, "MB", "lower", "bench.sys_mb")
	return out
}

// appliesTo reports whether d is measured on workload w.
func (d metricDef) appliesTo(w string) bool {
	for _, x := range d.On {
		if x == w {
			return true
		}
	}
	return false
}
