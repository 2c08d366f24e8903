package whisper

import (
	"fmt"
	"strings"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/hops"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Report is the epoch-level analysis of one benchmark run — every number
// the paper's evaluation reports, computed from the attached trace.
type Report struct {
	// App and Layer identify the benchmark.
	App   string
	Layer string

	// Trace is the raw recorded trace (reusable for HOPS simulation or
	// offline analysis). It is nil for reports produced by the streaming
	// path (RunAllFused, AnalyzeReader), which never materializes events.
	Trace *Trace

	// TotalEpochs is the number of epochs (store sets between sfences).
	TotalEpochs int
	// EpochsPerSecond is the Table 1 rate on the simulated clock.
	EpochsPerSecond float64
	// Transactions is the number of completed durable transactions.
	Transactions int
	// MedianTxEpochs is the Figure 3 statistic.
	MedianTxEpochs int
	// EpochSizes is the Figure 4 histogram (fractions over the buckets
	// 1, 2, 3, 4, 5, 6–63, >=64 cache lines).
	EpochSizes [7]float64
	// SingletonFraction is the share of one-line epochs; paper: ~75% for
	// native/library applications.
	SingletonFraction float64
	// SmallSingletonFraction is the share of singletons under 10 bytes;
	// paper: ~60%.
	SmallSingletonFraction float64
	// SelfDeps and CrossDeps are the Figure 5 fractions (0..1).
	SelfDeps  float64
	CrossDeps float64
	// NTIFraction is the byte share of PM writes issued non-temporally
	// (§5.2; paper: ~96% in PMFS, ~67% in Mnemosyne).
	NTIFraction float64
	// Amplification is extra PM bytes per user byte (§5.2; 3.0 = "300%").
	Amplification float64
	// PMShare is PM accesses over all memory accesses (Figure 6; paper
	// average: 3.54%).
	PMShare float64
}

// SizeBucketLabels are the Figure 4 bucket names.
var SizeBucketLabels = epoch.SizeBucketLabels

// newReport shapes an epoch analysis into the public Report. t may be nil
// when the analysis came from the streaming path, which never materializes
// a trace.
func newReport(a *epoch.Analysis, t *Trace) *Report {
	return &Report{
		App:                    a.App,
		Layer:                  a.Layer,
		Trace:                  t,
		TotalEpochs:            a.TotalEpochs,
		EpochsPerSecond:        a.EpochsPerSecond(),
		Transactions:           len(a.TxEpochCounts),
		MedianTxEpochs:         a.MedianTxEpochs(),
		EpochSizes:             a.SizeDistribution(),
		SingletonFraction:      a.SingletonFraction(),
		SmallSingletonFraction: a.SmallSingletonFraction(),
		SelfDeps:               a.SelfDepFraction(),
		CrossDeps:              a.CrossDepFraction(),
		NTIFraction:            a.NTIFraction(),
		Amplification:          a.Amplification(),
		PMShare:                a.PMFraction(),
	}
}

// Analyze computes a Report from a previously recorded trace.
func Analyze(t *Trace) *Report {
	a, _ := pipeline(trace.NewSliceSource(t.tr), nil) // a slice source cannot fail
	return newReport(a, t)
}

// String renders the report as a compact table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): %d epochs, %.3g epochs/s, %d txs, median %d epochs/tx\n",
		r.App, r.Layer, r.TotalEpochs, r.EpochsPerSecond, r.Transactions, r.MedianTxEpochs)
	fmt.Fprintf(&b, "  epoch sizes:")
	for i, f := range r.EpochSizes {
		fmt.Fprintf(&b, " %s:%.0f%%", SizeBucketLabels[i], f*100)
	}
	fmt.Fprintf(&b, "\n  deps: self %.1f%% cross %.2f%% | NTI %.0f%% | amp %.0f%% | PM share %.2f%%\n",
		r.SelfDeps*100, r.CrossDeps*100, r.NTIFraction*100, r.Amplification*100, r.PMShare*100)
	return b.String()
}

// HOPSConfig sizes the simulated HOPS hardware for SimulateHOPS. A zero
// PBEntries or MemoryControllers means the paper's §6.4 value; DrainAt is
// clamped to [1, PBEntries], so zero is the fully eager drain, not the
// paper's 16 — start from DefaultHOPSConfig for the evaluated machine.
type HOPSConfig struct {
	// PBEntries is the per-thread persist buffer capacity (paper: 32).
	PBEntries int
	// DrainAt is the occupancy that triggers background flushing (16).
	DrainAt int
	// MemoryControllers is the MC count (2).
	MemoryControllers int
}

// DefaultHOPSConfig returns the paper's §6.4 configuration.
func DefaultHOPSConfig() HOPSConfig {
	c := hops.DefaultConfig()
	return HOPSConfig{PBEntries: c.PBEntries, DrainAt: c.DrainAt, MemoryControllers: c.MCs}
}

// HOPSModels lists the Figure 10 model names in presentation order.
func HOPSModels() []string {
	var names []string
	for _, m := range hops.Models {
		names = append(names, m.String())
	}
	return names
}

// SimulateHOPS replays the trace under the five Figure 10 persistence
// models and returns runtimes normalized to the x86-64 (NVM) baseline,
// keyed by model name. Each model's persist-buffer occupancy and drain
// stalls are recorded into the process metrics registry (see Metrics) as
// hops_pb_occupancy and hops_drain_stall_cycles, labelled {app, model};
// the histograms are filled when the replay finishes, not per observation.
func SimulateHOPS(t *Trace, cfg HOPSConfig) map[string]float64 {
	hc := hops.Config{PBEntries: cfg.PBEntries, DrainAt: cfg.DrainAt, MCs: cfg.MemoryControllers}
	instruments := func(m hops.Model) hops.ReplayObs {
		labels := obs.Labels{"app": t.tr.App, "model": m.String()}
		return hops.ReplayObs{
			Occupancy: obs.Default().Histogram("hops_pb_occupancy", labels,
				obs.ExpBuckets(1, 2, 8)...),
			DrainStall: obs.Default().Histogram("hops_drain_stall_cycles", labels,
				obs.ExpBuckets(1, 2, 14)...),
		}
	}
	norm, err := hops.NormalizedSource(trace.NewSliceSource(t.tr), hc, mem.DefaultLatency(), instruments)
	if err != nil {
		panic("whisper: in-memory trace stream failed: " + err.Error())
	}
	out := make(map[string]float64, len(norm))
	for m, v := range norm {
		out[m.String()] = v
	}
	return out
}
