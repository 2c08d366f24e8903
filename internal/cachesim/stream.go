package cachesim

import (
	"io"

	"github.com/whisper-pm/whisper/internal/trace"
)

// ReplaySource drives the hierarchy with every memory event from an event
// source, in O(1) memory per event. The recorder keeps volatile traffic
// only as aggregate counters (trace.Trace.VolatileLoads/VolatileStores),
// which cannot be replayed through caches and are ignored here (Figure 6
// uses the counters directly); a KVLoad/KVStore event in a hand-built
// trace is replayed like any other access.
func ReplaySource(h *Hierarchy, src trace.EventSource) (Stats, error) {
	for {
		chunk, err := src.NextChunk()
		if err == io.EOF {
			return h.Stats(), nil
		}
		if err != nil {
			return h.Stats(), err
		}
		for _, e := range chunk {
			h.Access(e)
		}
	}
}
