package trace

import (
	"io"
	"sync"
)

// Fanout: one event stream, several independent consumers, one pass.
// A pump goroutine reads the source in chunks and broadcasts each chunk
// to every branch over a bounded channel, so a trace is decoded (or a
// benchmark executed) exactly once no matter how many analyses consume
// it — the epoch pipeline, the durability sanitizer, and the cache
// simulator can all ride the same tap instead of replaying the trace
// once each. Every branch sees the identical event sequence in order,
// which keeps each consumer's output byte-identical to what it would
// produce reading the source alone.

// fanoutDepth bounds each branch's queue. The pump advances at the pace
// of the slowest branch, so total buffered memory is
// branches × depth × chunk.
const fanoutDepth = 4

// fanout is the shared pump state.
type fanout struct {
	src      EventSource
	branches []*Branch

	// Written by the pump strictly before it closes the branch channels;
	// read by consumers only after their channel is drained (the close is
	// the synchronization edge), matching the EventSource contract that
	// Volatile is complete only at io.EOF.
	err     error
	vloads  uint64
	vstores uint64

	// panicked is the source's panic value, which every branch re-raises
	// on its reader's goroutine in place of the end of the stream.
	panicked any
}

// Branch is one consumer's view of a fanned-out stream. It implements
// EventSource; chunks are shared read-only with the other branches, so a
// consumer must not mutate the slices NextChunk returns. A consumer that
// stops early must call Close to release the pump — io.EOF and stream
// errors close the branch automatically.
type Branch struct {
	ch   chan []Event // the pump closes it at the end of the stream
	f    *fanout
	stop chan struct{}
	once sync.Once
}

// Fanout starts a pump goroutine over src and returns n branches that
// each replay the full stream. The pump runs at the pace of the slowest
// branch (bounded buffering, no unbounded fan-out queue); a branch that
// is abandoned early must be Closed or the pump stalls forever. It panics
// on a keeping Tail, whose chunks are written again once the pump asks for
// the next.
func Fanout(src EventSource, n int) []*Branch {
	if tl, ok := src.(*Tail); ok && tl.keep {
		panic("trace: Fanout over a keeping Tail: its chunks are recycled on the next NextChunk, and a branch keeps them longer")
	}
	f := &fanout{src: src, branches: make([]*Branch, n)}
	for i := range f.branches {
		f.branches[i] = &Branch{ch: make(chan []Event, fanoutDepth), f: f, stop: make(chan struct{})}
	}
	go f.pump()
	return f.branches
}

// pump ends the stream when the source does, with its error, and also
// when it panics: the panic then reaches every branch's reader rather than
// ending the process on the pump's goroutine.
func (f *fanout) pump() {
	defer func() {
		f.panicked = recover()
		for _, b := range f.branches {
			close(b.ch)
		}
	}()
	for {
		chunk, err := f.src.NextChunk()
		if err != nil {
			if err != io.EOF {
				f.err = err
			}
			f.vloads, f.vstores = f.src.Volatile()
			return
		}
		for _, b := range f.branches {
			select {
			case b.ch <- chunk:
			case <-b.stop:
			}
		}
	}
}

// Meta returns the source's run metadata.
func (b *Branch) Meta() Meta { return b.f.src.Meta() }

// NextChunk returns the branch's next batch of events, io.EOF at the end
// of a well-formed stream, or the source's error; where the source
// panicked it panics with the source's value. The returned slice is
// shared with the other branches and must be treated as read-only.
func (b *Branch) NextChunk() ([]Event, error) {
	if chunk, ok := <-b.ch; ok {
		return chunk, nil
	}
	if b.f.panicked != nil {
		panic(b.f.panicked)
	}
	if b.f.err != nil {
		return nil, b.f.err
	}
	return nil, io.EOF
}

// Volatile returns the source's aggregate DRAM counters; complete only
// after NextChunk has returned io.EOF.
func (b *Branch) Volatile() (loads, stores uint64) { return b.f.vloads, b.f.vstores }

// Close releases the branch: the pump stops delivering to it and will
// not block on it again. Consumers that drain to io.EOF need not call
// it; consumers that may stop early must, or the pump (and the other
// branches) stall.
func (b *Branch) Close() {
	b.once.Do(func() { close(b.stop) })
	// Drain anything already queued so the pump's buffered sends are not
	// mistaken for progress by this branch's future reads.
	for {
		select {
		case _, ok := <-b.ch:
			if !ok {
				return
			}
		default:
			return
		}
	}
}
