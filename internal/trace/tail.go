package trace

import (
	"io"
	"slices"
)

// A trace can be read while it is still being recorded. Chunks never move
// once written, so a full chunk is finished work the moment Append has to
// open the next one: the recording goroutine hands it to the trace's Tail
// with one channel send, and a reader on another goroutine analyses it
// while the application goes on recording. The reader never sees the open
// chunk; the last, part-filled chunk follows when the run ends.
//
// A trace that keeps its events keeps the reader's copies: the reader
// clones each sealed chunk and hands the buffer back for the recorder's
// next full-size chunk. So the recording goroutine, the run's critical
// path, neither zeroes nor first-touches the retained trace's memory, and
// a retained chunk has no part-filled slack.

// tailDepth bounds the sealed chunks queued between the recorder and the
// tail's reader: deep enough that neither side waits on every chunk,
// shallow enough that a trace which drops what it hands over keeps only a
// few thousand events alive.
const tailDepth = 8

// freeDepth bounds the buffers a keeping tail's reader hands back. The
// recorder makes a full-size buffer only when none is waiting, that is
// with every other one queued, in the reader's hands or open: at most
// tailDepth+2 exist, so a hand-back always fits and none is made twice.
const freeDepth = tailDepth + 2

// droppedChunkEvents caps a chunk of a trace that does not keep what it
// hands over: with tailDepth chunks queued, the events in flight are a few
// thousand however long the run.
const droppedChunkEvents = 512

// Tail is the read end of a trace under recording. It implements
// EventSource: each chunk arrives once Append has sealed it, the last one
// when the recorder calls Close. The reader must consume the stream to its
// end (io.EOF or the recorder's error), or the recorder blocks on a full
// queue.
type Tail struct {
	ch   chan []Event // sealed chunks; the recorder closes it at the end
	tr   *Trace
	keep bool

	// A keeping tail's reader owns kept, the copies it has handed out, and
	// hands full-size buffers back on free. At the end of the stream kept
	// becomes the trace's chunks and both are dropped.
	kept [][]Event
	free chan []Event

	// Written by the recorder strictly before close(ch) and read by the
	// reader only after the channel is drained; the same edge orders the
	// recorder's writes to tr.VolatileLoads/VolatileStores before Volatile.
	err error
}

// Tail attaches a reader to t, which must not hold events yet. Either way
// the trace's own read surface (Chunks, a SliceSource) sees only the open
// chunk while the run lasts, and Len counts every event. With keep the
// reader is handed copies of the sealed chunks, and once it has reached
// the end of the stream they are the trace's chunks, as an unfollowed
// recording would have left them; without, a chunk belongs to the reader
// alone once handed over and chunks stop growing at droppedChunkEvents.
func (t *Trace) Tail(keep bool) *Tail {
	if t.n != 0 || t.tail != nil {
		panic("trace: Tail on a trace that already holds events or a tail")
	}
	t.tail = &Tail{ch: make(chan []Event, tailDepth), tr: t, keep: keep}
	if keep {
		t.tail.free = make(chan []Event, freeDepth)
	}
	return t.tail
}

// Close ends the stream: the recorder hands over the part-filled last
// chunk, and the reader then sees err, or io.EOF when err is nil. Only the
// recording goroutine may call it, once, after its last Append.
func (tl *Tail) Close(err error) {
	t := tl.tr
	if k := len(t.chunks) - 1; k >= 0 {
		tl.ch <- t.chunks[k] // chunks are sealed lazily: the last is never yet sent
	}
	t.chunks = nil
	t.tail = nil
	tl.err = err
	close(tl.ch)
}

// Meta returns the trace's run metadata.
func (tl *Tail) Meta() Meta {
	return Meta{App: tl.tr.App, Layer: tl.tr.Layer, Threads: tl.tr.Threads}
}

// NextChunk returns the next sealed chunk — the trace's retained copy when
// it keeps its chunks, so read-only either way — io.EOF after the last, or
// the error the recorder closed the tail with.
func (tl *Tail) NextChunk() ([]Event, error) {
	if chunk, ok := <-tl.ch; ok {
		if !tl.keep {
			return chunk, nil
		}
		kept := slices.Clip(slices.Clone(chunk)) // Event holds no pointers: no zeroing first
		tl.kept = append(tl.kept, kept)
		if cap(chunk) == maxChunkEvents {
			select {
			case tl.free <- chunk:
			default: // cannot happen (freeDepth); dropping the buffer is safe
			}
		}
		return kept, nil
	}
	if tl.free != nil {
		// Ahead of anything appended since Close, which found no chunks.
		tl.tr.chunks = append(tl.kept, tl.tr.chunks...)
		tl.kept, tl.free = nil, nil
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
