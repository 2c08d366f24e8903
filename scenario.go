package whisper

import (
	"io"

	"github.com/whisper-pm/whisper/internal/scenario"
	"github.com/whisper-pm/whisper/internal/scenario/prims"
)

// Scenario engine (internal/scenario). Where the benchmark suite drives
// each app with its paper-fixed workload, a scenario declares the traffic:
// multi-tenant mixes of apps and the kvservice, zipfian or rotating-
// hotspot skew, phase changes and think-time spikes, and crash storms
// that power-fail every persistence domain under live load. Every app
// tenant is judged at every recovery point by crashcheck.Model, the same
// oracle wcrash's matrix uses; a kvservice tenant by the engine's own
// two-layer batch oracle.
// The companion primitives microsuite decomposes app costs into the four
// canonical PM update primitives under identical traffic.

// ScenarioReport wraps one deterministic scenario run.
type ScenarioReport struct {
	res *scenario.Result
}

// Ok reports whether every oracle check at every recovery point passed.
func (r *ScenarioReport) Ok() bool { return r.res.Ok() }

// Ops returns the number of operations driven.
func (r *ScenarioReport) Ops() int { return r.res.Ops }

// CrashCycles returns the number of crash+recovery cycles injected.
func (r *ScenarioReport) CrashCycles() int { return r.res.CrashCycles }

// Violations returns the oracle failures, schedule-ordered.
func (r *ScenarioReport) Violations() []string {
	var out []string
	for _, v := range r.res.Violations {
		out = append(out, v.Tenant+": "+v.Err)
	}
	return out
}

// SanErrors sums unsuppressed durability-sanitizer error sites across the
// run's persistence domains.
func (r *ScenarioReport) SanErrors() int { return r.res.SanErrors() }

// WriteJSON renders the byte-stable report.
func (r *ScenarioReport) WriteJSON(w io.Writer) error { return r.res.WriteJSON(w) }

// ScenarioNames returns the builtin scenario names in suite order.
func ScenarioNames() []string { return scenario.Names() }

// RunScenario runs a builtin scenario at the given seed.
func RunScenario(name string, seed int64) (*ScenarioReport, error) {
	spec, err := scenario.Builtin(name)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(spec, scenario.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &ScenarioReport{res: res}, nil
}

// RunScenarioSpec parses a scenario spec in the text format and runs it.
func RunScenarioSpec(src string, seed int64) (*ScenarioReport, error) {
	spec, err := scenario.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := scenario.Run(spec, scenario.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &ScenarioReport{res: res}, nil
}

// PrimitiveNames returns the PM update-primitive classes in suite order.
func PrimitiveNames() []string { return prims.Names() }

// PrimitiveRow is one primitive's cost decomposition.
type PrimitiveRow = prims.Row

// RunPrimitives benchmarks the four update primitives under identical
// traffic at the given seed and returns the decomposition rows.
func RunPrimitives(seed int64) ([]PrimitiveRow, error) {
	return prims.RunSuite(prims.Config{Seed: seed})
}
