package trace

import (
	"io"
	"sync"
	"sync/atomic"
)

// Fanout: one event stream, several independent consumers, one pass.
// A pump goroutine reads the source in chunks and broadcasts each chunk
// to every branch over a bounded channel, so a trace is decoded (or a
// benchmark executed) exactly once no matter how many analyses consume
// it — the epoch pipeline, the durability sanitizer, and the cache
// simulator can all ride the same tap instead of replaying the trace
// once each. Every branch sees the identical event sequence in order,
// which keeps each consumer's output byte-identical to what it would
// produce reading the source alone. The last branch past a chunk hands it
// to the source's Release, if it has one (a Tail, a Reader and a
// SliceSource do); nothing else calls Release.

// fanoutDepth bounds each branch's queue. The pump advances at the pace
// of the slowest branch, so total buffered memory is
// branches × depth × chunk.
const fanoutDepth = 4

// fanout is the shared pump state.
type fanout struct {
	src      EventSource
	rel      interface{ Release([]Event) } // src, if it takes chunks back
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

// shared is a chunk and the branches not yet past it.
type shared struct {
	events []Event
	left   atomic.Int32
}

// done marks one branch past c; the last one releases it to the source.
func (f *fanout) done(c *shared) {
	if c != nil && c.left.Add(-1) == 0 && f.rel != nil {
		f.rel.Release(c.events)
	}
}

// Branch is one consumer's view of a fanned-out stream. It implements
// EventSource, but its chunks do not pass to the caller: a chunk is shared
// read-only with the other branches and valid only until the branch's next
// NextChunk or Close. A consumer that stops early must call Close to
// release the pump — io.EOF and stream errors end the branch by themselves.
type Branch struct {
	ch   chan *shared // the pump closes it at the end of the stream
	f    *fanout
	held *shared // the chunk the consumer was last handed
	stop chan struct{}
	once sync.Once
}

// Fanout starts a pump goroutine over src and returns n branches that
// each replay the full stream. The pump runs at the pace of the slowest
// branch (bounded buffering, no unbounded fan-out queue); a branch that
// is abandoned early must be Closed or the pump stalls forever.
func Fanout(src EventSource, n int) []*Branch {
	f := &fanout{src: src, branches: make([]*Branch, n)}
	f.rel, _ = src.(interface{ Release([]Event) })
	for i := range f.branches {
		f.branches[i] = &Branch{ch: make(chan *shared, fanoutDepth), f: f, stop: make(chan struct{})}
	}
	go f.pump()
	return f.branches
}

// pump ends the stream when the source does, with its error, and also
// when it panics: the panic then reaches every branch's reader rather than
// ending the process on the pump's goroutine. A chunk it skips for a
// closed branch is done for it, and at the end so is one it queued there
// as the branch closed.
func (f *fanout) pump() {
	defer func() {
		f.panicked = recover()
		for _, b := range f.branches { // before any branch sees the end
			select {
			case <-b.stop:
				b.drain()
			default:
			}
		}
		for _, b := range f.branches {
			close(b.ch)
		}
	}()
	for {
		events, err := f.src.NextChunk()
		if err != nil {
			if err != io.EOF {
				f.err = err
			}
			f.vloads, f.vstores = f.src.Volatile()
			return
		}
		c := &shared{events: events}
		c.left.Store(int32(len(f.branches)))
		for _, b := range f.branches {
			select {
			case b.ch <- c:
			case <-b.stop:
				f.done(c)
			}
		}
	}
}

// drain counts every chunk queued to b as done.
func (b *Branch) drain() {
	for {
		select {
		case c, ok := <-b.ch:
			if !ok {
				return
			}
			b.f.done(c)
		default:
			return
		}
	}
}

// Meta returns the source's run metadata.
func (b *Branch) Meta() Meta { return b.f.src.Meta() }

// NextChunk moves the branch past its last chunk and returns the next
// batch of events, io.EOF at the end of a well-formed stream, or the
// source's error; where the source panicked it panics with the source's
// value.
func (b *Branch) NextChunk() ([]Event, error) {
	b.f.done(b.held)
	b.held = <-b.ch
	if b.held != nil {
		return b.held.events, nil
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

// Close releases the branch: it moves past its last chunk and everything
// queued to it, and the pump will not block on it again. Consumers that
// drain to io.EOF need not call it; consumers that may stop early must, or
// the pump (and the other branches) stall.
func (b *Branch) Close() {
	b.once.Do(func() {
		close(b.stop)
		b.f.done(b.held)
		b.held = nil
		b.drain()
	})
}
