package trace

import "io"

// A trace can be read while it is still being recorded. When Append fills
// the open block it hands it to the trace's Tail with one channel send, and
// a reader on another goroutine analyses it while the application goes on
// recording. The reader never sees a block before it is full; the last,
// part-filled one follows when the run ends.
//
// A reader done with a block hands its buffer back with Release (a Fanout
// does once every branch is past it), and the recorder writes its next
// block there, so the recording goroutine, the run's critical path,
// allocates nothing past the first blocks. A Reader and a SliceSource take
// their chunks back the same way, through a blockPool of their own.

// tailDepth bounds the blocks queued to the tail's reader: 128 Ki events,
// about 20 ms of recording. At eight, a reader the scheduler held up for a
// few milliseconds stalled the recorder: its hand-offs took 0.03–0.28 s a
// suite pass on a busy two-core box, 0.02–0.03 at 32.
const tailDepth = 32

// poolDepth bounds the blocks a Reader or a SliceSource keeps for reuse.
// Behind a Fanout, fanoutDepth+2 sit between the pump and its slowest
// branch and one is the pump's next, so a released block finds room.
const poolDepth = fanoutDepth + 3

// freeDepth bounds the buffers waiting for the recorder: a tail also has
// up to tailDepth queued, so a released buffer finds room unless the
// recorder made one while another was on its way back.
const freeDepth = tailDepth + poolDepth

// Tail is the read end of a trace under recording. It implements
// EventSource: each chunk arrives once Append has filled it, the last one
// when the recorder calls Close, and belongs to the reader. The reader
// must consume the stream to its end (io.EOF or the recorder's error), or
// the recorder blocks on a full queue.
type Tail struct {
	ch        chan []Event // full blocks; the recorder closes it at the end
	blockPool              // released buffers, for the recorder's next blocks
	tr        *Trace

	// Written by the recorder strictly before close(ch) and read by the
	// reader only after the channel is drained; the same edge orders the
	// recorder's writes to tr.VolatileLoads/VolatileStores before Volatile.
	err error
}

// Tail attaches a reader to t, which must not hold events yet. The trace
// keeps no event it hands over: its read surface (Len aside) stays empty,
// and a reader that wants the events kept collects them (Collect).
func (t *Trace) Tail() *Tail {
	if t.n != 0 || t.tail != nil {
		panic("trace: Tail on a trace that already holds events or a tail")
	}
	t.tail = &Tail{tr: t, ch: make(chan []Event, tailDepth), blockPool: newBlockPool(freeDepth)}
	return t.tail
}

// Close ends the stream: the recorder hands over the part-filled last
// chunk, and the reader then sees err, or io.EOF when err is nil. Only the
// recording goroutine may call it, once, after its last Append to the
// tail. The trace takes Appends again after Close, as a trace of its own.
func (tl *Tail) Close(err error) {
	t := tl.tr
	if len(t.open) > 0 {
		tl.ch <- t.open // blocks are handed over when full: the last is not yet
	}
	t.open = nil
	t.tail = nil
	tl.err = err
	close(tl.ch)
}

// Meta returns the trace's run metadata.
func (tl *Tail) Meta() Meta {
	return Meta{App: tl.tr.App, Layer: tl.tr.Layer, Threads: tl.tr.Threads}
}

// NextChunk returns the next chunk, io.EOF after the last, or the error
// the recorder closed the tail with.
func (tl *Tail) NextChunk() ([]Event, error) {
	if chunk, ok := <-tl.ch; ok {
		return chunk, nil
	}
	if tl.err != nil {
		return nil, tl.err
	}
	return nil, io.EOF
}

// Volatile returns the trace's aggregate DRAM counters; complete only
// after NextChunk has returned io.EOF.
func (tl *Tail) Volatile() (loads, stores uint64) {
	return tl.tr.VolatileLoads, tl.tr.VolatileStores
}

// blockPool holds the full-size blocks a source's reader has released, for
// the source to write later chunks into. A Tail, a Reader and a SliceSource
// each embed one, which gives them the Release a Fanout hands each chunk
// back through once every branch is past it; a reader that never releases
// a chunk keeps it, as EventSource has it.
type blockPool struct{ free chan []Event }

// newBlockPool returns a pool that holds up to depth released blocks.
func newBlockPool(depth int) blockPool { return blockPool{free: make(chan []Event, depth)} }

// Release hands a chunk back to the source to write a later one into; the
// reader must not touch it again, and under the race detector every event
// in it reads as KReleased (race.go). It never blocks: a chunk that is not
// a full-size block, or finds no room, is left to the collector.
func (p blockPool) Release(chunk []Event) {
	poison(chunk)
	if cap(chunk) != DefaultBlockEvents {
		return
	}
	select {
	case p.free <- chunk:
	default:
	}
}

// block returns n events to write a chunk into: a released block when one
// is free and n fits in it, else a new slice.
func (p blockPool) block(n int) []Event {
	if n <= DefaultBlockEvents {
		select {
		case b := <-p.free:
			return b[:n]
		default:
		}
	}
	return make([]Event, n)
}
