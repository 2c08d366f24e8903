// Package crashcheck is the suite-wide crash-consistency checker and the
// one app table (suite.go) both it and the suite run: every application is
// one op-level workload, run by one driver in the suite's interleaving.
// The checker runs an app's workload, crashes it at systematically chosen
// points, reboots the app on the surviving durable image, and validates it
// against a volatile oracle.
//
// The adapter contract: an app's workload drives its store through the
// store's own method set, so its oracle wraps the store, forwards every
// call unchanged and emits no PM event of its own — a checked run records
// exactly the trace the suite measures (TestOracleAddsNoEvent). The oracle
// survives the crash; Recover reboots the wrapped store and Check judges
// the image by one discipline:
//
//   - operations acknowledged before the crash must be fully visible after
//     recovery (persistence of acknowledged work);
//   - the single operation in flight at the crash must be atomically
//     present or absent (or, for unjournaled PMFS file data, torn only
//     byte-wise inside the written range);
//   - structural invariants (hash placement, tree balance, WAL/state
//     machine legality, fsck) must hold in every recovered image.
//
// A row of the matrix is (app, mix): the paper's mix, and for the apps
// whose paper mix never issues an operation recovery must handle (a delete,
// an abort) the checker's mix too. Crash point k is the k-th operation of
// the interleaving, either at its boundary or stopped halfway through its
// PM event stream — exactly where the paper's epoch analysis says ordering
// bugs hide. AllPersisted freezes the boundary image under strict device
// semantics, MidEpoch stops mid-operation under strict semantics, and
// AdversarialSubset stops mid-operation and then lets the device keep or
// drop every line not yet explicitly made durable. Crash images never
// leave the process: a cell crashes its device in place and reboots the
// app on it.
package crashcheck

import (
	"fmt"
	"slices"
	"time"

	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Mode selects how a crash point is materialized.
type Mode int

const (
	// AllPersisted crashes at an operation boundary with strict device
	// semantics: exactly the explicitly persisted state survives.
	AllPersisted Mode = iota
	// MidEpoch crashes halfway through an operation's PM event stream
	// with strict device semantics.
	MidEpoch
	// AdversarialSubset crashes mid-operation and additionally lets the
	// device keep or drop each unpersisted dirty line independently.
	AdversarialSubset
)

func (m Mode) String() string {
	switch m {
	case AllPersisted:
		return "all-persisted"
	case MidEpoch:
		return "mid-epoch"
	case AdversarialSubset:
		return "adversarial-subset"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Modes returns all checker modes.
func Modes() []Mode { return []Mode{AllPersisted, MidEpoch, AdversarialSubset} }

// Config scales a checking run. The zero value picks defaults that keep a
// full matrix in the seconds range.
type Config struct {
	Clients int     // client threads (default 2)
	Ops     int     // operations per run, across clients (default DefaultOps)
	Seeds   []int64 // workload seeds (default 1..8)
	Points  []int   // crash points in [0, Ops) (default 0, 1, Ops/2, Ops-1)
	Modes   []Mode  // crash modes (default all three)
}

// DefaultOps is the number of operations per run when Config.Ops is zero.
const DefaultOps = 16

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 2
	}
	if c.Ops <= 0 {
		c.Ops = DefaultOps
	}
	if len(c.Seeds) == 0 {
		for s := int64(1); s <= 8; s++ {
			c.Seeds = append(c.Seeds, s)
		}
	}
	if len(c.Points) == 0 {
		c.Points = []int{0, 1, c.Ops / 2, c.Ops - 1}
	}
	seen := make(map[int]bool)
	var pts []int
	for _, p := range c.Points {
		if p < 0 {
			p = 0
		}
		if p >= c.Ops {
			p = c.Ops - 1
		}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	c.Points = pts
	if len(c.Modes) == 0 {
		c.Modes = Modes()
	}
	return c
}

// Violation is one failed (seed, point, mode) cell.
type Violation struct {
	App   string
	Mix   workload.Mix
	Mode  Mode
	Seed  int64
	Point int
	Err   error
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s seed=%d point=%d mode=%s: %v", v.App, v.Mix, v.Seed, v.Point, v.Mode, v.Err)
}

// Result summarizes checking one (app, mix) row.
type Result struct {
	App        string
	Mix        workload.Mix
	Cells      int // (seed, point, mode) cells executed
	Violations []Violation
	Elapsed    time.Duration
}

// Ok reports whether every cell passed.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// CheckApp runs the full (seeds x points x modes) crash matrix for the
// named suite application under mix, which must be one of its Mixes.
func CheckApp(name string, mix workload.Mix, cfg Config) (Result, error) {
	a, err := Lookup(name)
	if err != nil {
		return Result{}, err
	}
	if !slices.Contains(a.Mixes, mix) {
		return Result{}, fmt.Errorf("crashcheck: %s has no %s mix (have %v)", name, mix, a.Mixes)
	}
	return checkApp(a, mix, cfg)
}

func checkApp(a *App, mix workload.Mix, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{App: a.Name, Mix: mix}
	labels := obs.Labels{"app": a.Name, "mix": mix.String()}
	cells := obs.Default().Counter("crashcheck_cells_total", labels)
	violations := obs.Default().Counter("crashcheck_violations_total", labels)
	// Oracle checks are wall-clock work (no simulated time): microsecond
	// buckets from 1 µs to ~32 ms.
	oracleUS := obs.Default().Histogram("crashcheck_oracle_us", labels, obs.ExpBuckets(1, 2, 16)...)
	start := time.Now()
	for _, seed := range cfg.Seeds {
		golden, err := goldenRun(a, mix, cfg, seed)
		if err != nil {
			return res, fmt.Errorf("crashcheck: %s/%s: %w", a.Name, mix, err)
		}
		for _, point := range cfg.Points {
			for _, mode := range cfg.Modes {
				res.Cells++
				cells.Inc()
				verr, err := runCell(a, mix, cfg, seed, point, mode, golden, oracleUS)
				if err != nil {
					return res, fmt.Errorf("crashcheck: %s/%s: %w", a.Name, mix, err)
				}
				if verr != nil {
					violations.Inc()
					res.Violations = append(res.Violations, Violation{
						App: a.Name, Mix: mix, Mode: mode, Seed: seed, Point: point, Err: verr,
					})
				}
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// checkedRun builds a checked run of a: cfg.Ops operations spread over
// cfg.Clients threads, on a runtime that keeps no trace.
func checkedRun(a *App, mix workload.Mix, cfg Config, seed int64) (func(func(int, func()) bool), Oracle, *persist.Runtime) {
	rt := persist.NewRuntime(a.Name, a.Layer, cfg.Clients, persist.Config{NoTrace: true})
	drive, o := a.start(rt, mix, cfg.Clients, (cfg.Ops+cfg.Clients-1)/cfg.Clients, seed, true)
	return drive, o, rt
}

// goldenRun executes the first cfg.Ops operations without crashing,
// recording how many PM events each emits (the yardstick for
// mid-operation crash points) and validating that the application and its
// oracle agree on the final state — a broken oracle must fail here, not in
// a crash cell.
func goldenRun(a *App, mix workload.Mix, cfg Config, seed int64) ([]int, error) {
	drive, o, rt := checkedRun(a, mix, cfg, seed)
	events := 0
	rt.SetEventHook(func(trace.Event) { events++ })
	counts := make([]int, 0, cfg.Ops)
	drive(func(k int, op func()) bool {
		if k == cfg.Ops {
			return false
		}
		before := events
		op()
		counts = append(counts, events-before)
		return true
	})
	rt.SetEventHook(nil)
	if err := o.Check(0); err != nil {
		return nil, fmt.Errorf("golden run (seed %d) failed its own oracle: %w", seed, err)
	}
	return counts, nil
}

// runCell executes one (seed, point, mode) cell: run to the crash point,
// freeze and crash the device, reboot, recover, check. It returns the
// cell's violation: a panic out of Recover or Check is one (a corrupted
// image may legally make recovery blow up). A crash point the run never
// reached is the checker's own error. oracleUS records the wall-clock
// microseconds the oracle comparison took.
func runCell(a *App, mix workload.Mix, cfg Config, seed int64, point int, mode Mode, golden []int, oracleUS *obs.Histogram) (verr, err error) {
	frozen, o, rt, err := executeToCrash(a, mix, cfg, seed, point, mode, golden)
	if err != nil {
		return nil, err
	}
	frozen.Crash(deviceMode(mode), crashSeed(seed, point, mode))
	defer func() {
		if r := recover(); r != nil {
			verr = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	rt.Reboot(frozen)
	o.Recover()
	checkStart := time.Now()
	verr = o.Check(0)
	oracleUS.Observe(uint64(time.Since(checkStart).Microseconds()))
	return verr, nil
}

// executeToCrash runs the application up to the crash point and returns
// the frozen pre-crash device image (not yet crashed), the run's oracle and
// runtime. Boundary mode clones the image between operations; the
// mid-operation modes clone it halfway through operation `point`'s PM
// event stream (per the golden run) and abort the operation there
// (persist.Runtime.AbortAt), as a power failure stops the world mid-store.
// Runs are deterministic, so an operation that ends short of that event is
// a run the golden run never measured: an error, never a substitute cell.
func executeToCrash(a *App, mix workload.Mix, cfg Config, seed int64, point int, mode Mode, golden []int) (*pmem.Device, Oracle, *persist.Runtime, error) {
	drive, o, rt := checkedRun(a, mix, cfg, seed)
	var frozen *pmem.Device
	drive(func(k int, op func()) bool {
		if k < point {
			op()
			return true
		}
		if mode == AllPersisted {
			frozen = rt.Dev.Clone()
		} else {
			rt.AbortAt(max(1, golden[point]/2), func() { frozen = rt.Dev.Clone() }, op)
		}
		return false
	})
	if frozen == nil {
		return nil, nil, nil, fmt.Errorf("seed %d point %d mode %s: operation %d ran to its end before event %d of its golden run's %d",
			seed, point, mode, point, max(1, golden[point]/2), golden[point])
	}
	return frozen, o, rt, nil
}

func deviceMode(m Mode) pmem.CrashMode {
	if m == AdversarialSubset {
		return pmem.Adversarial
	}
	return pmem.Strict
}

// crashSeed derives the device crash seed (which drives adversarial
// keep/drop choices) deterministically from the cell coordinates.
func crashSeed(seed int64, point int, mode Mode) int64 {
	return seed*1000003 + int64(point)*8191 + int64(mode)*131 + 17
}

// SampleDurable materializes one durable image a crash at this instant
// could leave, without disturbing dev: the device is cloned and the clone
// is crashed under mode's adversary with the same cell-coordinate seed
// derivation every checker cell uses. The persistency-model checker
// (internal/pmodel) cross-validates its exhaustive durable-state
// enumeration against exactly these sampled images, so the two tools
// share one definition of "a state the device's crash adversary can
// produce".
func SampleDurable(dev *pmem.Device, mode Mode, seed int64, point int) *pmem.Device {
	c := dev.Clone()
	c.Crash(deviceMode(mode), crashSeed(seed, point, mode))
	return c
}
