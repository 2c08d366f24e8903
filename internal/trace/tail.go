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
// allocates nothing past the first blocks.

// tailDepth bounds the blocks queued to the tail's reader: 128 Ki events,
// about 20 ms of recording. At eight, a reader the scheduler held up for a
// few milliseconds stalled the recorder: its hand-offs took 0.03–0.28 s a
// suite pass on a busy two-core box, 0.02–0.03 at 32.
const tailDepth = 32

// freeDepth bounds the buffers waiting for the recorder. Behind a Fanout
// at most tailDepth are queued, fanoutDepth+2 sit between the pump and its
// slowest branch and one is open, so a released buffer finds room unless
// the recorder made one while another was on its way back.
const freeDepth = tailDepth + fanoutDepth + 3

// Tail is the read end of a trace under recording. It implements
// EventSource: each chunk arrives once Append has filled it, the last one
// when the recorder calls Close, and belongs to the reader. The reader
// must consume the stream to its end (io.EOF or the recorder's error), or
// the recorder blocks on a full queue.
type Tail struct {
	ch   chan []Event // full blocks; the recorder closes it at the end
	free chan []Event // released buffers, for the recorder's next blocks
	tr   *Trace

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
	t.tail = &Tail{tr: t, ch: make(chan []Event, tailDepth), free: make(chan []Event, freeDepth)}
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

// Release hands a chunk back to the recorder to write a later block into;
// the reader must not touch it again. It never blocks: a chunk that is not
// a full-size buffer, or finds no room, is left to the collector.
func (tl *Tail) Release(chunk []Event) {
	if cap(chunk) != DefaultBlockEvents {
		return
	}
	select {
	case tl.free <- chunk:
	default:
	}
}

// Volatile returns the trace's aggregate DRAM counters; complete only
// after NextChunk has returned io.EOF.
func (tl *Tail) Volatile() (loads, stores uint64) {
	return tl.tr.VolatileLoads, tl.tr.VolatileStores
}
