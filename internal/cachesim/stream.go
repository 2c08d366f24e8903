package cachesim

import (
	"io"

	"github.com/whisper-pm/whisper/internal/trace"
)

// ReplaySource drives the hierarchy with every memory event from an event
// source, in O(1) memory per event. Volatile accesses participate only
// when the trace was recorded with per-event volatile tracing
// (persist.Config.TraceVolatile); aggregated volatile counters cannot be
// replayed through caches and are ignored here (Figure 6 uses the counters
// directly).
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
			replayEvent(h, e)
		}
	}
}

func replayEvent(h *Hierarchy, e trace.Event) {
	tid := int(e.TID) % h.cfg.Threads
	switch e.Kind {
	case trace.KStore, trace.KVStore:
		h.Write(tid, e.Addr, int(e.Size))
	case trace.KLoad, trace.KVLoad:
		h.Read(tid, e.Addr, int(e.Size))
	case trace.KStoreNT:
		h.WriteNT(tid, e.Addr, int(e.Size))
	case trace.KFlush:
		h.Flush(tid, e.Addr, int(e.Size))
	}
}
