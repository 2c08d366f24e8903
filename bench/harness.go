package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
)

// runConfig is what the command line fixes for one workload run.
type runConfig struct {
	seed int64
	// scale divides every op count: 1, or smokeScale under -smoke.
	scale int
	// seconds is the run length asked for; see passCount.
	seconds float64
	trace   bool
	// live collects the workload's live-heap samples; see liveHeap.
	live *liveHeap
}

// liveHeap tracks the largest live Go heap seen at a workload's sample
// points. A workload samples at the end of a span, while the span's
// results are still reachable, so the figure is the memory the system
// holds on to. Unlike MemStats.Sys, which also counts garbage awaiting
// collection and swung by a third between identical runs, it repeats.
type liveHeap struct{ peak uint64 }

// sample forces a collection and records the heap that survives it.
func (l *liveHeap) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.peak = max(l.peak, ms.HeapAlloc)
}

// smokeScale shrinks the workloads for the test suite's smoke run.
const smokeScale = 50

// scaled divides n by the run's scale, keeping at least lo.
func (c runConfig) scaled(n, lo int) int {
	return max(n/c.scale, lo)
}

// pass is what one run of a workload's timed region produced.
type pass struct {
	// spans holds the seconds of each timed span by name: together they
	// are the timed region. generator is the harness time spent making
	// inputs inside it, which no span includes.
	spans     map[string]float64
	generator float64
	// attempted counts operations and checks made, failed those that
	// errored, were rejected, or mismatched their oracle.
	attempted int
	failed    int
	// digest is the SHA-256 of the pass's simulated outputs.
	digest string
	// m holds the simulated end-to-end metrics and, on a traced pass,
	// the per-layer metrics the workload measures.
	m map[string]float64
}

func newPass() pass {
	return pass{spans: map[string]float64{}, m: map[string]float64{}}
}

// timed runs f as one span of the timed region and returns its seconds.
func (p *pass) timed(tr *tracer, name string, f func()) float64 {
	s := tr.do(name, f)
	p.spans[name] += s
	return s
}

// wall is the pass's whole timed region in seconds.
func (p *pass) wall() float64 {
	var t float64
	for _, s := range p.spans {
		t += s
	}
	return t
}

// sumOfMedians is the timed region's wall time over several passes: each
// span's median across the passes, summed. One slow span in one pass — a
// collection, a burst of page faults — then costs that span's median, not
// the whole pass's.
func sumOfMedians(passes []pass) float64 {
	by := map[string][]float64{}
	for _, p := range passes {
		for name, s := range p.spans {
			by[name] = append(by[name], s)
		}
	}
	var t float64
	for _, v := range by {
		t += median(v)
	}
	return t
}

// instance is one workload bound to a runConfig. setup (re)builds the
// state the next pass consumes; pass runs the timed region once and
// checks its outputs. A non-nil tracer makes both record spans, and makes
// pass take the extra per-layer measurements.
type instance interface {
	setup(tr *tracer)
	pass(tr *tracer) pass
}

var workloads = map[string]func(runConfig) instance{
	wSuite:   newSuite,
	wAnalyze: newAnalyze,
	wChurn:   func(c runConfig) instance { return newDES(c, wChurn) },
	wRead:    func(c runConfig) instance { return newDES(c, wRead) },
	wRecover: newRecover,
}

// minSetups is how many times set-up runs at least, so setup_s is a median.
const minSetups = 3

// passesAt10s is how many passes of its timed region each workload makes
// at the manifest's run_seconds of 10; -seconds scales it. The count is
// fixed, not taken from a stopwatch, so that two runs of one command
// always do the same work: a count that flipped with the box's speed
// would move the medians with it. The counts trade steadiness against the
// driver's time cap: suite's eleven short spans are the noisiest and get
// three passes, kv_churn's one pass already takes twice the ten seconds.
var passesAt10s = map[string]float64{wSuite: 3, wAnalyze: 3, wChurn: 0.6, wRead: 2, wRecover: 3}

// passCount returns how many passes (traced: pairs of an untraced and a
// traced pass) a run of the given length makes; at least one.
func passCount(name string, cfg runConfig) int {
	n := max(1, int(math.Round(cfg.seconds/10*passesAt10s[name])))
	if cfg.trace {
		n = (n + 1) / 2
	}
	return n
}

// result is one workload's metrics from one run.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Smoke     bool              `json:"smoke,omitempty"`
	Passes    int               `json:"passes"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	SimDigest string            `json:"sim_digest"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload: set-up and timed region alternate passCount
// times; setup_s is the median set-up, wall_s the sum of the timed spans'
// medians, and simulated metrics come from the first pass (every pass
// must reproduce its digest). With cfg.trace each untraced pass is paired with
// a traced one on fresh state, and the per-layer metrics are reported in
// place of the end-to-end ones.
func measure(name string, cfg runConfig) (result, *tracer) {
	cfg.live = &liveHeap{}
	inst := workloads[name](cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(name)
	}
	res := result{Workload: name, Trace: cfg.trace, Seed: cfg.seed, Smoke: cfg.scale != 1}
	var setups []float64
	var untraced, traced []pass
	account := func(p pass) {
		res.Passes++
		res.Attempted += p.attempted + 1
		res.Failed += p.failed
		// Same seed, same simulated behaviour — on every pass.
		if p.digest != untraced[0].digest {
			res.Failed++
		}
	}
	// Every set-up, pass and timed span starts from a collected heap, so
	// none is charged for the garbage of the one before it. The pages stay
	// mapped: handing them back to the OS first (debug.FreeOSMemory) made
	// every span pay the sandbox's page faults again and doubled the
	// run-to-run spread of wall_s.
	timedSetup := func(tr *tracer) {
		runtime.GC()
		setups = append(setups, tr.do("setup", func() { inst.setup(tr) }))
		runtime.GC()
	}
	for i := passCount(name, cfg); i > 0; i-- {
		timedSetup(nil)
		p := inst.pass(nil)
		untraced = append(untraced, p)
		account(p)
		if cfg.trace {
			timedSetup(tr)
			tr.do("pass", func() { p = inst.pass(tr) })
			traced = append(traced, p)
			account(p)
		}
	}
	for len(setups) < minSetups {
		timedSetup(nil)
	}
	res.SimDigest = untraced[0].digest

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	vals := map[string]float64{
		"setup_s":      median(setups),
		"wall_s":       sumOfMedians(untraced),
		"peak_live_mb": float64(cfg.live.peak) / 1e6,
	}
	defs := endToEnd
	src := untraced[0].m
	if cfg.trace {
		last := traced[len(traced)-1]
		defs = perLayer
		src = last.m
		vals = map[string]float64{
			"bench.trace_overhead_pct": (sumOfMedians(traced)/sumOfMedians(untraced) - 1) * 100,
			"bench.generator_s":        last.generator,
			"bench.sys_mb":             float64(ms.Sys) / 1e6,
		}
	}
	for k, v := range src {
		vals[k] = v
	}
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		applies := !cfg.trace || d.appliesTo(name)
		// A metric the workload should have measured but did not, or one
		// that is not a finite number, is a failed check.
		res.Attempted++
		if ok != applies || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Failed++
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, tr
}

// digester accumulates a workload's simulated outputs into its sim_digest.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perSec returns n/seconds scaled by unit (1e6 for M/s), 0 for a zero time.
func perSec(n int, seconds, unit float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(n) / seconds / unit
}
