package epoch

import (
	"io"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// The one epoch analysis. Epochs are per-thread by definition (§5.1): a
// thread's segmentation depends only on its own stores and fences, so the
// analysis is one state machine per TID; events arrive in global order,
// so every epoch classifies against the last-writer table (Figure 5) the
// moment its fence closes it. Everything runs on the calling goroutine,
// and memory is the open epochs plus the last-writer pages, independent
// of trace length. The map-per-epoch walk in reference_test.go is the
// oracle the equality tests compare this against.

// threadState is one thread's in-progress epoch plus transaction state.
// The open epoch's lines are a mem.LineSet, emptied at the fence: a small
// epoch pays a short scan per store and no hashing, and a run of large ones
// (every 4 KiB PMFS write) allocates nothing.
type threadState struct {
	lines   mem.LineSet
	bytes   int
	start   mem.Time
	dirty   bool
	inTx    bool
	txCount int
}

// AnalyzeStream runs the full epoch analysis over an event source without
// materializing the trace; memory use is independent of trace length.
// The events it consumes are counted in pipeline_events_total{app,
// stage="demux"} (the label value predates the single path and is kept so
// metrics snapshots stay comparable).
func AnalyzeStream(src trace.EventSource) (*Analysis, error) {
	m := src.Meta()
	consumed := obs.Default().Counter("pipeline_events_total", obs.Labels{"app": m.App, "stage": "demux"})

	a := &Analysis{}
	var writers mem.LineTable[writerSlot]
	var states trace.TIDTable[threadState]
	var lastTID uint16
	var lastST *threadState
	var (
		first mem.Time
		last  mem.Time
		any   bool
	)

	for {
		c, err := src.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !any {
			first = c[0].Time
			any = true
		}
		last = c[len(c)-1].Time
		consumed.Add(uint64(len(c)))
		for i := range c {
			e := c[i]
			st := lastST
			if st == nil || e.TID != lastTID {
				st = states.Get(e.TID)
				lastTID, lastST = e.TID, st
			}
			switch e.Kind {
			case trace.KStore, trace.KStoreNT:
				if !st.dirty {
					st.start = e.Time
					st.dirty = true
				}
				for l, n := e.Lines(); n > 0; l, n = l+1, n-1 {
					st.lines.Add(l)
				}
				st.bytes += int(e.Size)
				if e.Kind == trace.KStore {
					a.CacheableStores++
					a.CacheableBytes += uint64(e.Size)
				} else {
					a.NTStores++
					a.NTBytes += uint64(e.Size)
				}
				a.TotalPMBytes += uint64(e.Size)
				a.PMAccesses++

			case trace.KLoad:
				a.PMAccesses++

			case trace.KVLoad, trace.KVStore:
				a.DRAMAccesses++

			case trace.KFence:
				n := st.lines.Len()
				if n == 0 {
					// Empty epoch: §5.1 measures epochs in unique 64 B
					// lines written between fences, so a fence preceded
					// only by flushes (the legal dfence-style ordering
					// idiom) or by zero-byte stores orders nothing and
					// closes no epoch. Reset the zero-line open state so a
					// stale start time cannot leak into the next real one.
					st.dirty = false
					st.bytes = 0
					continue
				}
				a.TotalEpochs++
				a.SizeHist[sizeBucket(n)]++
				if n == 1 {
					a.Singletons++
					if st.bytes < 10 {
						a.SmallSingletons++
					}
				}
				self, cross := classify(&writers, e.TID, st.start, e.Time, st.lines.Lines())
				if self {
					a.SelfDepEpochs++
				}
				if cross {
					a.CrossDepEpochs++
				}
				st.lines.Reset()
				st.bytes = 0
				st.dirty = false
				if st.inTx {
					st.txCount++
				}

			case trace.KTxBegin:
				st.inTx = true
				st.txCount = 0

			case trace.KTxEnd:
				if st.inTx {
					// Read-only transactions contain no ordering points
					// and are not durable transactions; Figure 3 measures
					// epochs per durable transaction.
					if st.txCount > 0 {
						a.TxEpochCounts = append(a.TxEpochCounts, st.txCount)
					}
					st.inTx = false
				}

			case trace.KUserData:
				a.UserBytes += uint64(e.Size)

			case trace.KReleased:
				panic("epoch: an event read after its chunk was released")
			}
		}
	}

	a.App, a.Layer, a.Threads = m.App, m.Layer, m.Threads
	if any {
		a.Duration = last - first
	}
	vloads, vstores := src.Volatile()
	a.DRAMAccesses += vloads + vstores
	return a, nil
}

// writerSlot remembers the last epoch that wrote a line: the last-writer
// table behind the Figure 5 WAW classification.
type writerSlot struct {
	thread uint16
	set    bool
	end    mem.Time
}

// classify replays one closed epoch against the last-writer table: each
// line is checked for a self/cross WAW within DependencyWindow — measured
// on the global clock between the earlier epoch's completion and this
// epoch's first store — and then claims the slot. Line order within an
// epoch is immaterial: an epoch's lines are unique, so each touches a
// distinct slot.
func classify(writers *mem.LineTable[writerSlot], tid uint16, start, end mem.Time, lines []mem.Line) (self, cross bool) {
	for _, l := range lines {
		w := writers.Get(l)
		if w.set {
			if start >= w.end && start-w.end <= DependencyWindow {
				if w.thread == tid {
					self = true
				} else {
					cross = true
				}
			} else if start < w.end && end-w.end <= DependencyWindow {
				// Overlapping epochs (interleaved threads): still a WAW
				// within the window.
				if w.thread == tid {
					self = true
				} else {
					cross = true
				}
			}
		}
		w.thread, w.end, w.set = tid, end, true
	}
	return self, cross
}
