package main

import (
	"fmt"
	"math"
	"runtime"

	whisper "github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/obs"
)

// suiteOps sizes each Table 1 member to roughly 0.3–1 s of wall time on
// the reference box (21.6 M events in all). redis is near its ceiling:
// its 1<<15-block nvml pool runs out somewhere below 100 000 ops.
var suiteOps = map[string]int{
	"echo": 300, "ycsb": 6000, "tpcc": 1500, "redis": 20000, "ctree": 6000,
	"hashmap": 8000, "vacation": 4000, "memcached": 40000, "nfs": 1200,
	"exim": 80, "mysql": 6000,
}

// suiteWorkload runs the eleven members serially through whisper.Run, the
// way a cmd/whisper user does: app, tx library, allocator, persist and
// pmem do the work, and Run's own materialized epoch analysis rides along.
type suiteWorkload struct {
	cfg runConfig
}

func newSuite(cfg runConfig) instance { return &suiteWorkload{cfg: cfg} }

// runApp is whisper.Run with an app's panic (the redis pool ceiling, a
// full PMFS) reported as the run's error.
func runApp(name string, cfg whisper.Config) (rep *whisper.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", name, r)
		}
	}()
	return whisper.Run(name, cfg)
}

// setup warms the process: every member once at a tenth of its size, so
// the timed passes start with a grown heap and faulted-in pages.
func (s *suiteWorkload) setup(tr *tracer) {
	for _, name := range whisper.Names() {
		tr.do("warm."+name, func() {
			// An app that fails here fails again, and is counted, in the pass.
			_, _ = runApp(name, whisper.Config{Ops: s.cfg.scaled(suiteOps[name]/10, 1), Seed: s.cfg.seed})
		})
	}
}

func finiteReport(r *whisper.Report) bool {
	vals := append([]float64{
		r.EpochsPerSecond, r.SingletonFraction, r.SmallSingletonFraction,
		r.SelfDeps, r.CrossDeps, r.NTIFraction, r.Amplification, r.PMShare,
	}, r.EpochSizes[:]...)
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// pmemCounters maps the device counters whisper.Run publishes per app to
// the per-layer metric they sum into.
var pmemCounters = []struct{ counter, metric string }{
	{"pmem_stores_total", "pmem.stores"},
	{"pmem_nt_stores_total", "pmem.nt_stores"},
	{"pmem_loads_total", "pmem.loads"},
	{"pmem_flushes_total", "pmem.flushes"},
	{"pmem_fences_total", "pmem.fences"},
	{"pmem_lines_persisted_total", "pmem.lines_persisted"},
	{"pmem_bytes_stored_total", "pmem.bytes_stored"},
}

func (s *suiteWorkload) pass(tr *tracer) pass {
	whisper.ResetMetrics()
	p := newPass()
	d := newDigester()
	var events, txs int
	var amp, simSeconds, analyzeS float64
	var analyzeAllocs uint64
	for _, name := range whisper.Names() {
		var rep *whisper.Report
		var err error
		p.attempted++
		runtime.GC()
		runS := p.timed(tr, "run."+name, func() {
			rep, err = runApp(name, whisper.Config{Ops: s.cfg.scaled(suiteOps[name], 2), Seed: s.cfg.seed})
		})
		if err != nil {
			p.failed++
			d.add("%s: %v\n", name, err)
			continue
		}

		var san *whisper.SanReport
		tr.do("check.sanitize."+name, func() { san = whisper.Sanitize(rep.Trace) })
		p.attempted += 2
		if san.Errors() != 0 {
			p.failed++
		}
		if !finiteReport(rep) {
			p.failed++
		}
		s.cfg.live.sample() // the report and its trace are still held

		n := rep.Trace.Events()
		events += n
		txs += rep.Transactions
		amp += rep.Amplification
		if rep.EpochsPerSecond > 0 {
			simSeconds += float64(rep.TotalEpochs) / rep.EpochsPerSecond
		}
		counters := whisper.Metrics().Counters
		fences := counters[obs.Key("pmem_fences_total", obs.Labels{"app": name})]
		d.add("%s%d events %d fences\n", rep, n, fences)

		if tr != nil {
			// Run analyses the trace it recorded; timing the same
			// analysis again splits Run's span into app and epoch layers.
			m0 := mallocs()
			aS := tr.do("analyze."+name, func() { whisper.Analyze(rep.Trace) })
			analyzeAllocs += mallocs() - m0
			analyzeS += aS
			p.m["app."+name+".exec_s"] = runS - aS
			p.m["app."+name+".events"] = float64(n)
			p.m["app."+name+".fences_per_tx"] = float64(fences) / float64(max(rep.Transactions, 1))
		}
	}

	counters := whisper.Metrics().Counters
	total := func(counter string) (t uint64) {
		for _, name := range whisper.Names() {
			t += counters[obs.Key(counter, obs.Labels{"app": name})]
		}
		return t
	}
	p.m["fences_per_op"] = float64(total("pmem_fences_total")) / float64(max(txs, 1))
	p.m["write_amp"] = amp / float64(len(whisper.Names()))
	p.m["sim_latency_us"] = simSeconds / float64(max(txs, 1)) * 1e6
	p.digest = d.sum()
	if tr == nil {
		return p
	}

	for _, c := range pmemCounters {
		p.m[c.metric] = float64(total(c.counter))
	}
	p.m["persist.events"] = float64(events)
	p.m["suite.mevents_per_s"] = perSec(events, p.wall(), 1e6)
	p.m["epoch.mat_mev_s"] = perSec(events, analyzeS, 1e6)
	p.m["epoch.mat_allocs_per_kev"] = float64(analyzeAllocs) / (float64(events) / 1e3)
	tr.do("ladder", func() { libraryRungs(s.cfg, tr, p.m) })
	return p
}
