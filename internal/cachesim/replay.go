package cachesim

import "github.com/whisper-pm/whisper/internal/trace"

// ReplayTrace drives the hierarchy with every memory event in a trace.
// Volatile accesses participate only when the trace was recorded with
// per-event volatile tracing (persist.Config.TraceVolatile); aggregated
// volatile counters cannot be replayed through caches and are ignored
// here (Figure 6 uses the counters directly).
func ReplayTrace(h *Hierarchy, tr *trace.Trace) Stats {
	for _, c := range tr.Chunks() {
		for _, e := range c {
			replayEvent(h, e)
		}
	}
	return h.Stats()
}
