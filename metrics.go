package whisper

import (
	"time"

	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
)

// HistogramMetric is one histogram in a metrics snapshot: Counts has one
// entry per bound plus a final overflow bucket.
type HistogramMetric = obs.HistogramSnapshot

// MetricsSnapshot is a point-in-time copy of every metric the stack has
// recorded this process, keyed by canonical metric name ("name{k=v,...}"
// with label keys sorted). Marshalling a snapshot of equal state always
// yields identical bytes; WriteJSON comes with the type.
//
// The layers report:
//
//   - pmem_*_total{app}: device operation counts (stores, NT stores,
//     loads, CLWBs, SFENCEs, lines persisted, bytes stored, crashes);
//   - persist_epoch_lines{app} / persist_ordering_points_total{app,thread}:
//     epoch sizes in line touches and fences per thread (Figures 3–4),
//     published by each thread at its transaction ends and at every fence
//     outside a transaction, so exact once the run has returned;
//   - hops_pb_occupancy / hops_drain_stall_cycles{app,model}: persist-
//     buffer pressure in the Figure 10 replay, added when each replay
//     finishes, not per observation;
//   - crashcheck_*{app,mix}: cells run, violations, oracle wall-clock;
//   - suite_*{app}: wall-clock and operation rate per benchmark run.
type MetricsSnapshot = obs.Snapshot

// Metrics snapshots the process-wide metrics registry. Instruments
// accumulate across runs; use ResetMetrics for a per-experiment baseline.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// ResetMetrics drops every recorded metric.
func ResetMetrics() { obs.Default().Reset() }

// publishRunMetrics folds one benchmark run's device counters and wall
// clock into the process registry. Called after the run completes, so it
// cannot perturb simulated time or the trace.
func publishRunMetrics(name string, rt *persist.Runtime, wall time.Duration, ops int) {
	reg := obs.Default()
	labels := obs.Labels{"app": name}
	st := rt.Dev.Stats()
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"pmem_stores_total", st.Stores},
		{"pmem_nt_stores_total", st.NTStores},
		{"pmem_loads_total", st.Loads},
		{"pmem_flushes_total", st.Flushes},
		{"pmem_fences_total", st.Fences},
		{"pmem_lines_persisted_total", st.LinesPersist},
		{"pmem_bytes_stored_total", st.BytesStored},
		{"pmem_crashes_total", st.Crashes},
	} {
		reg.Counter(c.name, labels).Add(c.v)
	}
	reg.Counter("suite_runs_total", labels).Inc()
	reg.Counter("suite_ops_total", labels).Add(uint64(ops))
	us := wall.Microseconds()
	reg.Gauge("suite_wall_us", labels).Set(us)
	if us > 0 {
		reg.Gauge("suite_ops_per_sec", labels).Set(int64(float64(ops) / wall.Seconds()))
	}
}
