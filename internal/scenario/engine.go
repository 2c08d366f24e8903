package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Config tunes one scenario run.
type Config struct {
	// Seed drives every random choice (schedule, keys, crash points). The
	// same spec and seed reproduce the run byte-for-byte.
	Seed int64
	// Metrics is the registry scenario instruments report into; nil means
	// the process-wide obs.Default(). Instruments never perturb the run.
	Metrics *obs.Registry
}

// Violation is one oracle failure at a recovery point, with everything
// needed to reproduce it: rerun the scenario at Seed and it fails at the
// same cycle and global op index.
type Violation struct {
	Tenant string `json:"tenant"`
	Cycle  int    `json:"cycle"` // -1 for the final post-traffic check
	Op     int    `json:"op"`    // global op index at the recovery point
	Mode   string `json:"mode"`
	Seed   int64  `json:"seed"`
	Err    string `json:"err"`
}

// TenantResult summarizes one tenant's traffic.
type TenantResult struct {
	Tenant  string `json:"tenant"`
	App     string `json:"app"`
	Ops     int    `json:"ops"`
	Reads   uint64 `json:"reads"`
	Writes  uint64 `json:"writes"`
	Deletes uint64 `json:"deletes"`
}

// DomainResult is the trace analysis of one persistence domain: the
// shared app runtime ("apps") or one kvservice tenant's merged shards.
type DomainResult struct {
	Domain       string  `json:"domain"`
	Events       uint64  `json:"events"`
	Fences       uint64  `json:"fences"`
	Flushes      uint64  `json:"flushes"`
	Epochs       int     `json:"epochs"`
	SingletonPct float64 `json:"singleton_pct"`
	SanErrors    int     `json:"san_errors"`
	SanSites     int     `json:"san_sites"`
}

// Result is a scenario run's deterministic report.
type Result struct {
	Scenario       string         `json:"scenario"`
	Seed           int64          `json:"seed"`
	Ops            int            `json:"ops"`
	CrashCycles    int            `json:"crash_cycles"`
	MidBatchAborts int            `json:"midbatch_aborts"`
	Checks         int            `json:"checks"` // oracle validations run
	Violations     []Violation    `json:"violations"`
	Tenants        []TenantResult `json:"tenants"`
	Domains        []DomainResult `json:"domains"`
}

// Ok reports whether the run finished with a clean oracle at every
// recovery point.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// SanErrors sums sanitizer error sites across domains.
func (r *Result) SanErrors() int {
	n := 0
	for _, d := range r.Domains {
		n += d.SanErrors
	}
	return n
}

// WriteJSON renders the report. Field order is fixed by the structs and
// slices are schedule-ordered, so the bytes depend only on (spec, seed).
func (r *Result) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// tenantState is one tenant's traffic cursor.
type tenantState struct {
	spec      Tenant
	tgt       target
	svc       *svcTarget // non-nil for kvservice tenants
	think     *persist.Thread
	rng       *rand.Rand
	phase     int
	phaseLeft int
	gen       interface{ Next() uint64 }
	remaining int
	done      int
	opsC      *obs.Counter
}

// nextOp draws the tenant's next operation, crossing phase boundaries as
// budgets run out.
func (t *tenantState) nextOp() op {
	for t.phaseLeft == 0 {
		t.phase++
		t.startPhase()
	}
	p := t.spec.Phases[t.phase]
	t.phaseLeft--
	o := op{key: t.gen.Next(), val: t.rng.Uint64(), vlen: p.ValueLen, think: p.Think}
	switch r := t.rng.Intn(100); {
	case r < p.WritePct:
		o.kind = opWrite
	case r < p.WritePct+p.DelPct:
		o.kind = opDel
	default:
		o.kind = opRead
	}
	return o
}

func (t *tenantState) startPhase() {
	p := t.spec.Phases[t.phase]
	t.phaseLeft = p.Ops
	if p.HotPct > 0 {
		t.gen = workload.NewHotspot(t.rng, t.spec.Keys, p.HotKeys, p.HotPct, p.Rotate)
	} else {
		t.gen = workload.NewZipf(t.rng, p.Zipf, t.spec.Keys)
	}
}

type engine struct {
	spec    *Spec
	cfg     Config
	rng     *rand.Rand
	rt      *persist.Runtime // shared runtime for app tenants; nil if none
	tenants []*tenantState
	res     *Result

	crashesC    map[string]*obs.Counter
	violationsC *obs.Counter
	midbatchC   *obs.Counter
	cycleOpsH   *obs.Histogram
}

// Run executes spec deterministically under cfg.Seed and returns the
// report. The whole run is single-goroutine, so results are identical at
// any GOMAXPROCS.
func Run(spec *Spec, cfg Config) (*Result, error) {
	e, err := execute(spec, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.analyze(); err != nil {
		return nil, err
	}
	return e.res, nil
}

// execute runs spec's traffic, crashes and final checks, leaving its
// domains' traces to analyze.
func execute(spec *Spec, cfg Config) (*engine, error) {
	norm := *spec // normalize a copy; the caller's spec is not mutated
	norm.Tenants = append([]Tenant(nil), spec.Tenants...)
	norm.withDefaults()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	e := &engine{
		spec: &norm,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		res: &Result{
			Scenario:   norm.Name,
			Seed:       cfg.Seed,
			Violations: []Violation{},
			Tenants:    []TenantResult{},
			Domains:    []DomainResult{},
		},
		crashesC:    map[string]*obs.Counter{},
		violationsC: reg.Counter("scenario_violations_total", obs.Labels{"scenario": norm.Name}),
		midbatchC:   reg.Counter("scenario_midbatch_aborts_total", obs.Labels{"scenario": norm.Name}),
		cycleOpsH: reg.Histogram("scenario_cycle_ops", obs.Labels{"scenario": norm.Name},
			obs.ExpBuckets(1, 2, 14)...),
	}
	for _, m := range []string{"strict", "adversarial"} {
		e.crashesC[m] = reg.Counter("scenario_crashes_total", obs.Labels{"scenario": norm.Name, "mode": m})
	}
	e.build(reg)
	e.drive()
	e.finish()
	return e, nil
}

// build instantiates tenants: app tenants share one runtime (one logical
// thread each), kvservice tenants own their sharded domains.
func (e *engine) build(reg *obs.Registry) {
	napps := 0
	for _, t := range e.spec.Tenants {
		if t.App != "kvservice" {
			napps++
		}
	}
	if napps > 0 {
		e.rt = persist.NewRuntime("scenario", "mixed", napps, persist.Config{
			Metrics:  reg,
			Instance: e.spec.Name,
		})
	}
	seen := map[string]int{}
	total := map[string]int{}
	for _, t := range e.spec.Tenants {
		total[t.App]++
	}
	tid := 0
	for _, spec := range e.spec.Tenants {
		label := spec.App
		if total[spec.App] > 1 {
			label = fmt.Sprintf("%s-%d", spec.App, seen[spec.App])
		}
		seen[spec.App]++
		ts := &tenantState{
			spec:      spec,
			rng:       rand.New(rand.NewSource(e.cfg.Seed*1315423911 + int64(len(e.tenants))*2654435761 + 97)),
			phase:     -1,
			remaining: 0,
			opsC:      reg.Counter("scenario_ops_total", obs.Labels{"scenario": e.spec.Name, "tenant": label}),
		}
		for _, p := range spec.Phases {
			ts.remaining += p.Ops
		}
		switch spec.App {
		case "kvservice":
			svc := newSvcTarget(label, spec, reg)
			ts.tgt, ts.svc = svc, svc
			ts.think = svc.svc.Runtime(0).Thread(0)
		case "ctree", "hashmap":
			ts.tgt = newU64Target(label, spec.App, e.rt, tid)
			ts.think = e.rt.Thread(tid)
			tid++
		default:
			ts.tgt = newStrTarget(label, spec.App, e.rt, tid)
			ts.think = e.rt.Thread(tid)
			tid++
		}
		e.tenants = append(e.tenants, ts)
	}
}

// drive runs the interleaved schedule: each step picks a tenant weighted
// by remaining budget, applies one op, and fires the crash plan on its
// cadence — all from one goroutine, all off one seeded stream.
func (e *engine) drive() {
	total := 0
	for _, t := range e.tenants {
		total += t.remaining
	}
	sinceCrash := 0
	globalOp := 0
	for total > 0 {
		pick := e.rng.Intn(total)
		var t *tenantState
		for _, c := range e.tenants {
			if pick < c.remaining {
				t = c
				break
			}
			pick -= c.remaining
		}
		o := t.nextOp()
		computeOn(t.think, o.think)
		t.tgt.apply(o)
		t.remaining--
		t.done++
		t.opsC.Inc()
		total--
		globalOp++
		e.res.Ops++
		sinceCrash++
		if e.spec.Crash.Every > 0 && sinceCrash >= e.spec.Crash.Every && total > 0 {
			e.crashCycle(globalOp)
			sinceCrash = 0
		}
	}
	if e.spec.Crash.Every > 0 {
		e.cycleOpsH.Observe(uint64(sinceCrash))
	}
}

// crashCycle power-fails every persistence domain under whatever traffic
// is in flight, reboots, and validates every tenant against its oracle.
func (e *engine) crashCycle(globalOp int) {
	cycle := e.res.CrashCycles
	mode := e.spec.Crash.Mode
	if mode == "alternate" {
		if cycle%2 == 0 {
			mode = "strict"
		} else {
			mode = "adversarial"
		}
	}
	devMode := pmem.Strict
	if mode == "adversarial" {
		devMode = pmem.Adversarial
	}
	seed := e.cfg.Seed*1_000_003 + int64(cycle)*8191 + 29

	// Abort one group commit mid-batch per service tenant: the abort lands
	// somewhere in the batch's PM instruction stream, so the crash hits
	// between record appends and head publish — or after the publish, or
	// inside the compaction pass that follows the batch. Whether the batch
	// survived is decided after recovery, against the durable head.
	aborts := map[*svcTarget]midAbort{}
	if e.spec.Crash.MidBatch {
		for _, t := range e.tenants {
			if t.svc != nil {
				if ab, ok := e.injectMidCommit(t.svc); ok {
					aborts[t.svc] = ab
				}
			}
		}
	}
	if e.rt != nil {
		e.rt.Crash(devMode, seed)
	}
	svcIdx := 0
	for _, t := range e.tenants {
		if t.svc != nil {
			svcIdx++
			if err := t.svc.svc.Crash(devMode, seed+int64(svcIdx)); err != nil {
				e.violationsC.Inc()
				e.res.Violations = append(e.res.Violations, Violation{
					Tenant: t.tgt.label(), Cycle: cycle, Op: globalOp,
					Mode: mode, Seed: e.cfg.Seed, Err: "recovery: " + err.Error(),
				})
			}
			// Resolve the mid-batch abort now that the durable image is
			// final: if the shard's durable head moved past its pre-commit
			// position, the batch's records and head publish both landed
			// before the abort (the head store follows the record fence),
			// so the oracle must keep the batch.
			if ab, ok := aborts[t.svc]; ok {
				if d, _ := t.svc.svc.LogHeads(ab.shard); d > ab.head {
					t.svc.commitShard(ab.shard)
				}
			}
		}
		t.tgt.crashed()
	}
	for _, t := range e.tenants {
		t.tgt.recoverState()
	}
	for _, t := range e.tenants {
		e.res.Checks++
		if err := t.tgt.check(); err != nil {
			e.violationsC.Inc()
			e.res.Violations = append(e.res.Violations, Violation{
				Tenant: t.tgt.label(), Cycle: cycle, Op: globalOp,
				Mode: mode, Seed: e.cfg.Seed, Err: err.Error(),
			})
		}
	}
	e.crashesC[mode].Inc()
	e.cycleOpsH.Observe(uint64(e.spec.Crash.Every))
	e.res.CrashCycles++
}

// midAbort records an aborted group commit pending resolution: the shard
// whose flush was panicked out of, and its durable head before the flush.
type midAbort struct {
	shard int
	head  uint64
}

// injectMidCommit forces an early commit of t's first pending batch and
// aborts it partway through the PM instruction stream. Puts append with
// two events and tombstones with one (a delete of an absent key with
// none), so the countdown can land anywhere: mid-append, after the head
// publish, or inside a compaction pass. The caller resolves the batch's
// fate against the post-crash durable head; a commit that outran the
// countdown entirely is promoted here.
func (e *engine) injectMidCommit(t *svcTarget) (midAbort, bool) {
	idx, n := t.pendingShard()
	if idx < 0 {
		return midAbort{}, false
	}
	d0, _ := t.svc.LogHeads(idx)
	countdown := 1 + e.rng.Intn(2*n)
	if !t.svc.Runtime(idx).AbortAt(countdown, nil, func() { t.svc.FlushShard(idx) }) {
		// The commit outran the countdown; the batch is durable after all.
		t.commitShard(idx)
		return midAbort{}, false
	}
	e.res.MidBatchAborts++
	e.midbatchC.Inc()
	return midAbort{shard: idx, head: d0}, true
}

// finish drains service batches and runs the final oracle sweep.
func (e *engine) finish() {
	for _, t := range e.tenants {
		if t.svc != nil {
			t.svc.svc.Flush()
			for sh := range t.svc.pending {
				t.svc.commitShard(sh)
			}
		}
	}
	for _, t := range e.tenants {
		e.res.Checks++
		if err := t.tgt.check(); err != nil {
			e.violationsC.Inc()
			e.res.Violations = append(e.res.Violations, Violation{
				Tenant: t.tgt.label(), Cycle: -1, Op: e.res.Ops,
				Mode: "final", Seed: e.cfg.Seed, Err: err.Error(),
			})
		}
		r, w, d := t.tgt.counts()
		e.res.Tenants = append(e.res.Tenants, TenantResult{
			Tenant: t.tgt.label(), App: t.spec.App, Ops: t.done,
			Reads: r, Writes: w, Deletes: d,
		})
	}
}

// analyze runs the epoch analysis and the durability sanitizer over every
// persistence domain. App tenants share one trace; each kvservice tenant
// contributes its merged shard trace (shard address windows are disjoint,
// but domains overlap each other, so they are analyzed separately).
func (e *engine) analyze() error {
	if e.rt != nil {
		d, err := domainResult("apps", trace.NewSliceSource(e.rt.Trace), e.rt.Dev.Stats().Fences)
		if err != nil {
			return err
		}
		e.res.Domains = append(e.res.Domains, d)
	}
	for _, t := range e.tenants {
		if t.svc != nil {
			d, err := domainResult(t.tgt.label(), t.svc.svc.TraceSource(), t.svc.svc.Stats().Fences)
			if err != nil {
				return err
			}
			e.res.Domains = append(e.res.Domains, d)
		}
	}
	return nil
}

// domainResult analyzes one domain's trace in one pass: the epoch analysis
// reads it through sanitizing, which feeds the sanitizer the same chunks.
// devFences is the fence count of the domain's devices: a trace holding any
// other number is not the record of what the devices did — a domain that
// was not recording hands over an empty one — and a sanitizer fed it would
// report 0 errors about nothing.
func domainResult(name string, src trace.EventSource, devFences uint64) (DomainResult, error) {
	san := sanitizing{src, pmsan.New(src.Meta())}
	an, err := epoch.AnalyzeStream(san)
	if err != nil {
		panic("scenario: in-memory trace stream failed: " + err.Error())
	}
	rep := san.s.Finish()
	d := DomainResult{Domain: name, Events: rep.Events, Fences: rep.Fences, Flushes: rep.Flushes}
	if d.Fences != devFences {
		return d, fmt.Errorf("scenario: domain %s: trace holds %d fences, its devices issued %d", name, d.Fences, devFences)
	}
	d.Epochs = an.TotalEpochs
	if an.TotalEpochs > 0 {
		d.SingletonPct = math.Round(1000*float64(an.Singletons)/float64(an.TotalEpochs)) / 10
	}
	d.SanErrors = rep.Errors()
	d.SanSites = len(rep.Violations)
	return d, nil
}

// sanitizing is an EventSource that also feeds every chunk it hands out to
// a sanitizer.
type sanitizing struct {
	trace.EventSource
	s *pmsan.Sanitizer
}

func (src sanitizing) NextChunk() ([]trace.Event, error) {
	c, err := src.EventSource.NextChunk()
	for _, e := range c {
		src.s.Observe(e)
	}
	return c, err
}
