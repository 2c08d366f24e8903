// Package crashcheck is the suite-wide crash-consistency checker: it runs
// any WHISPER application against the simulated PM device, crashes it at
// systematically chosen points, reboots a fresh application instance on the
// surviving durable image, and validates application-level invariants
// against a volatile oracle model.
//
// The oracle discipline, shared by every adapter:
//
//   - operations acknowledged before the crash must be fully visible after
//     recovery (persistence of acknowledged work);
//   - the single operation in flight at the crash must be atomically
//     present or absent (or, for unjournaled PMFS file data, torn only
//     byte-wise inside the written range);
//   - structural invariants (hash placement, tree balance, WAL/state
//     machine legality, fsck) must hold in every recovered image.
//
// Crash points come in two flavors: operation boundaries (the device image
// after k completed operations) and mid-operation points (an event hook
// stops the world halfway through operation k's PM event stream, exactly
// where the paper's epoch analysis says ordering bugs hide). The device's
// two crash modes map onto three checker modes: AllPersisted freezes the
// boundary image under strict semantics, MidEpoch stops mid-operation
// under strict semantics, and AdversarialSubset stops mid-operation and
// then lets the device independently keep or drop every line that was not
// yet explicitly made durable — the legal residual states of a real
// cache hierarchy.
//
// Crash images never leave the process: a cell crashes its device in place
// and reboots the application on that same device, so there is no image
// file format to write, read or keep compatible.
package crashcheck

import (
	"fmt"
	"time"

	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
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

// App is the adapter contract every checkable application implements.
// Setup builds the application on rt and scripts `ops` deterministic
// operations from seed; Do executes operation k; Recover reboots the
// application from the (possibly crashed) durable image; Check compares
// the recovered state against the adapter's volatile oracle model. The
// adapter object survives the simulated crash, so its model still knows
// which operations were acknowledged and which single one was in flight.
type App interface {
	Setup(rt *persist.Runtime, clients, ops int, seed int64)
	Do(k int)
	Recover()
	Check() error
}

// Config scales a checking run. The zero value picks defaults that keep a
// full ten-app matrix in the seconds range.
type Config struct {
	Clients int     // client threads (default 2)
	Ops     int     // scripted operations per run (default DefaultOps)
	Seeds   []int64 // workload seeds (default 1..8)
	Points  []int   // crash points in [0, Ops) (default 0, 1, Ops/2, Ops-1)
	Modes   []Mode  // crash modes (default all three)
}

// DefaultOps is the number of scripted operations per run when Config.Ops
// is zero.
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
	Mode  Mode
	Seed  int64
	Point int
	Err   error
}

func (v Violation) String() string {
	return fmt.Sprintf("%s seed=%d point=%d mode=%s: %v", v.App, v.Seed, v.Point, v.Mode, v.Err)
}

// Result summarizes checking one application.
type Result struct {
	App        string
	Cells      int // (seed, point, mode) cells executed
	Violations []Violation
	Elapsed    time.Duration
}

// Ok reports whether every cell passed.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// CheckApp runs the full (seeds x points x modes) crash matrix for the
// named suite application.
func CheckApp(name string, cfg Config) (Result, error) {
	ent, err := lookup(name)
	if err != nil {
		return Result{}, err
	}
	return checkEntry(ent, cfg)
}

func checkEntry(ent entry, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{App: ent.name}
	labels := obs.Labels{"app": ent.name}
	cells := obs.Default().Counter("crashcheck_cells_total", labels)
	violations := obs.Default().Counter("crashcheck_violations_total", labels)
	// Oracle checks are wall-clock work (no simulated time): microsecond
	// buckets from 1 µs to ~32 ms.
	oracleUS := obs.Default().Histogram("crashcheck_oracle_us", labels, obs.ExpBuckets(1, 2, 16)...)
	start := time.Now()
	for _, seed := range cfg.Seeds {
		golden, err := goldenRun(ent, cfg, seed)
		if err != nil {
			return res, fmt.Errorf("crashcheck: %s: %w", ent.name, err)
		}
		for _, point := range cfg.Points {
			for _, mode := range cfg.Modes {
				res.Cells++
				cells.Inc()
				if err := runCell(ent, cfg, seed, point, mode, golden, oracleUS); err != nil {
					violations.Inc()
					res.Violations = append(res.Violations, Violation{
						App: ent.name, Mode: mode, Seed: seed, Point: point, Err: err,
					})
				}
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// goldenRun executes the full workload without crashing, recording how many
// PM events each operation emits (the yardstick for mid-operation crash
// points) and validating that the application and its oracle agree on the
// final state — a broken oracle must fail here, not in a crash cell.
func goldenRun(ent entry, cfg Config, seed int64) ([]int, error) {
	rt := persist.NewRuntime(ent.name, ent.layer, cfg.Clients, persist.Config{NoTrace: true})
	app := ent.factory()
	app.Setup(rt, cfg.Clients, cfg.Ops, seed)
	events := 0
	rt.SetEventHook(func(trace.Event) { events++ })
	counts := make([]int, cfg.Ops)
	for k := 0; k < cfg.Ops; k++ {
		before := events
		app.Do(k)
		counts[k] = events - before
	}
	rt.SetEventHook(nil)
	if err := app.Check(); err != nil {
		return nil, fmt.Errorf("golden run (seed %d) failed its own oracle: %w", seed, err)
	}
	return counts, nil
}

// runCell executes one (seed, point, mode) cell: run to the crash point,
// freeze and crash the device, reboot, recover, check. A panic out of
// Recover or Check counts as a violation (a corrupted image may legally
// make recovery code blow up — that is a detection, not a checker crash).
// oracleUS, when non-nil, records the wall-clock microseconds the oracle
// comparison took.
func runCell(ent entry, cfg Config, seed int64, point int, mode Mode, golden []int, oracleUS *obs.Histogram) (err error) {
	frozen, app, rt := executeToCrash(ent, cfg, seed, point, mode, golden)
	frozen.Crash(deviceMode(mode), crashSeed(seed, point, mode))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panicked: %v", r)
		}
	}()
	rt.Reboot(frozen)
	app.Recover()
	checkStart := time.Now()
	err = app.Check()
	oracleUS.Observe(uint64(time.Since(checkStart).Microseconds()))
	return err
}

// executeToCrash builds the application, runs it up to the crash point and
// returns the frozen pre-crash device image (not yet crashed). For
// boundary mode the image is cloned between operations; for mid-operation
// modes an event hook clones it halfway through operation `point`'s PM
// event stream (per the golden run) and aborts the operation there
// (persist.Runtime.AbortAt), exactly as a power failure would stop the
// world mid-store.
func executeToCrash(ent entry, cfg Config, seed int64, point int, mode Mode, golden []int) (*pmem.Device, App, *persist.Runtime) {
	rt := persist.NewRuntime(ent.name, ent.layer, cfg.Clients, persist.Config{NoTrace: true})
	app := ent.factory()
	app.Setup(rt, cfg.Clients, cfg.Ops, seed)
	for k := 0; k < point; k++ {
		app.Do(k)
	}
	if mode == AllPersisted {
		return rt.Dev.Clone(), app, rt
	}
	var frozen *pmem.Device
	rt.AbortAt(max(1, golden[point]/2), func() { frozen = rt.Dev.Clone() }, func() { app.Do(point) })
	if frozen == nil {
		// The operation emitted fewer events than its golden twin — runs
		// are deterministic so this should not happen; degrade to the
		// post-operation boundary rather than fail the cell.
		frozen = rt.Dev.Clone()
	}
	return frozen, app, rt
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
