package trace

import (
	"io"
	"slices"
)

// A trace can be read while it is still being recorded. When Append fills
// the open block it hands it to the trace's Tail with one channel send, and
// a reader on another goroutine analyses it while the application goes on
// recording. The reader never sees a block before it is full; the last,
// part-filled one follows when the run ends.
//
// A trace that keeps its events keeps what the reader packs: the reader
// seals each full block it is handed into the trace's v2 payloads and,
// once its caller is done with the block, hands the buffer back for the
// recorder's next one. So the recording goroutine, the run's critical
// path, neither packs nor allocates past the first blocks, and the
// retained trace is about 7 bytes an event.

// tailDepth bounds the chunks queued between the recorder and a dropping
// tail's reader: deep enough that neither side waits on every chunk,
// shallow enough that a trace which drops what it hands over keeps only a
// few thousand events alive.
const tailDepth = 8

// keptDepth bounds the blocks queued to a keeping tail's reader: 128 Ki
// events, about 20 ms of recording. The recorder is the run's critical
// path, and with eight blocks queued a reader the scheduler held up for a
// few milliseconds stalled it: on a busy two-core box the recorder's
// hand-offs took 0.03–0.28 s a suite pass at eight, 0.02–0.03 at 32, the
// sends themselves costing about 0.02.
const keptDepth = 32

// freeDepth bounds the buffers a keeping tail's reader hands back. The
// recorder makes a full-size buffer only when none is waiting, that is
// with every other one queued, in the reader's hands or open: at most
// keptDepth+2 exist, so a hand-back always fits and none is made twice.
const freeDepth = keptDepth + 2

// droppedChunkEvents caps a chunk of a trace that does not keep what it
// hands over: with tailDepth chunks queued, the events in flight are a few
// thousand however long the run.
const droppedChunkEvents = 512

// Tail is the read end of a trace under recording. It implements
// EventSource: each chunk arrives once Append has filled it, the last one
// when the recorder calls Close. The reader must consume the stream to its
// end (io.EOF or the recorder's error), or the recorder blocks on a full
// queue.
//
// A keeping tail is the one EventSource whose chunks do not pass to the
// caller: a chunk is the recorder's own buffer, valid until the next
// NextChunk call, which hands it back to be written again. Its one reader
// is whisper.Run's epoch analysis, which copies each event out and keeps
// no chunk; Fanout, whose branches keep chunks, refuses it.
type Tail struct {
	ch   chan []Event // full blocks; the recorder closes it at the end
	tr   *Trace
	keep bool

	// A keeping tail's reader owns kept, the blocks it has sealed, and
	// lent, the chunk its caller holds, which it hands back on free at the
	// next call; last is the part-filled chunk Close handed over. At the
	// end of the stream kept and last become the trace's sealed and open
	// blocks, ahead of anything appended since Close, and all of them are
	// dropped.
	kept blockStore
	lent []Event
	last []Event
	free chan []Event

	// Written by the recorder strictly before close(ch) and read by the
	// reader only after the channel is drained; the same edge orders the
	// recorder's writes to tr.VolatileLoads/VolatileStores before Volatile.
	err error
}

// Tail attaches a reader to t, which must not hold events yet. Either way
// the trace's own read surface (Len aside) is empty while the run lasts.
// With keep, once the reader has reached the end of the stream the trace
// holds every event, as an unfollowed recording would have left it;
// without, a chunk belongs to the reader alone once handed over, chunks
// stop growing at droppedChunkEvents and the trace keeps no event.
func (t *Trace) Tail(keep bool) *Tail {
	if t.n != 0 || t.tail != nil {
		panic("trace: Tail on a trace that already holds events or a tail")
	}
	tl := &Tail{tr: t, keep: keep}
	if keep {
		tl.ch, tl.free = make(chan []Event, keptDepth), make(chan []Event, freeDepth)
	} else {
		tl.ch = make(chan []Event, tailDepth)
	}
	t.tail = tl
	return tl
}

// Close ends the stream: the recorder hands over the part-filled last
// chunk, and the reader then sees err, or io.EOF when err is nil. Only the
// recording goroutine may call it, once, after its last Append to the
// tail. The trace takes Appends again after Close; a keeping tail's reader
// puts them after the tail's events when it reaches the end of the stream,
// so they must not race that last NextChunk.
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
// the recorder closed the tail with. A keeping tail's chunk is valid only
// until the next call (see Tail).
func (tl *Tail) NextChunk() ([]Event, error) {
	if tl.lent != nil {
		select {
		case tl.free <- tl.lent:
		default: // cannot happen (freeDepth); dropping the buffer is safe
		}
		tl.lent = nil
	}
	if chunk, ok := <-tl.ch; ok {
		switch {
		case !tl.keep:
		case len(chunk) == DefaultBlockEvents:
			tl.kept.seal(chunk)
			tl.lent = chunk
		default: // the last, which only Close hands over part-filled
			tl.last = slices.Clone(chunk) // not the whole buffer
		}
		return chunk, nil
	}
	if tl.free != nil {
		tl.kept.trim()
		t := tl.tr
		// Anything appended since Close, which found no tail, goes after
		// what the reader kept.
		since := &Trace{sealed: t.sealed, open: t.open,
			n: t.n - len(tl.kept.blocks)*DefaultBlockEvents - len(tl.last)}
		t.sealed, t.open = tl.kept, tl.last
		for _, e := range since.Events() {
			t.Append(e)
		}
		t.n -= since.n
		tl.kept, tl.last, tl.free = blockStore{}, nil, nil
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
