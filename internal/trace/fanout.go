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

// fanoutChunkEvents is the pump's batch size for Next-only sources; a
// ChunkSource's own batches pass through whole.
const fanoutChunkEvents = 4096

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
}

// Branch is one consumer's view of a fanned-out stream. It implements
// ChunkSource; chunks are shared read-only with the other branches, so a
// consumer must not mutate the slices NextChunk returns. A consumer that
// stops early must call Close to release the pump — io.EOF and stream
// errors close the branch automatically.
type Branch struct {
	chunkStream
	f    *fanout
	stop chan struct{}
	once sync.Once
}

// chunkStream is the consumer end of a bounded channel of chunks — what a
// Branch and a Tail both are. The sender closes ch at the end of the
// stream; what the end means (io.EOF or an error) is the owner's to say.
type chunkStream struct {
	ch  chan []Event
	cur []Event
	pos int
}

// next returns the stream's next event, false once ch is closed and drained.
func (s *chunkStream) next() (Event, bool) {
	for s.pos >= len(s.cur) {
		chunk, ok := <-s.ch
		if !ok {
			return Event{}, false
		}
		s.cur, s.pos = chunk, 0
	}
	e := s.cur[s.pos]
	s.pos++
	return e, true
}

// nextChunk returns what is left of the current chunk, else the next one
// whole; false once ch is closed and drained.
func (s *chunkStream) nextChunk() ([]Event, bool) {
	if s.pos < len(s.cur) {
		chunk := s.cur[s.pos:]
		s.pos = len(s.cur)
		return chunk, true
	}
	chunk, ok := <-s.ch
	if !ok {
		return nil, false
	}
	s.cur, s.pos = chunk, len(chunk)
	return chunk, true
}

// Fanout starts a pump goroutine over src and returns n branches that
// each replay the full stream. The pump runs at the pace of the slowest
// branch (bounded buffering, no unbounded fan-out queue); a branch that
// is abandoned early must be Closed or the pump stalls forever.
func Fanout(src EventSource, n int) []*Branch {
	f := &fanout{src: src, branches: make([]*Branch, n)}
	for i := range f.branches {
		f.branches[i] = &Branch{
			chunkStream: chunkStream{ch: make(chan []Event, fanoutDepth)},
			f:           f,
			stop:        make(chan struct{}),
		}
	}
	go f.pump()
	return f.branches
}

func (f *fanout) pump() {
	cs, chunked := f.src.(ChunkSource)
	for {
		var chunk []Event
		var err error
		if chunked {
			chunk, err = cs.NextChunk()
		} else {
			// Next-only source: fill a fresh buffer per chunk — every
			// branch retains a reference until it finishes the chunk, so
			// the buffer cannot be reused.
			chunk, err = f.fill()
		}
		if len(chunk) > 0 {
			for _, b := range f.branches {
				select {
				case b.ch <- chunk:
				case <-b.stop:
				}
			}
		}
		if err != nil {
			if err != io.EOF {
				f.err = err
			}
			f.vloads, f.vstores = f.src.Volatile()
			for _, b := range f.branches {
				close(b.ch)
			}
			return
		}
	}
}

// fill batches events from a Next-only source into a freshly allocated
// chunk. It returns any events read even when the stream ends or errors
// mid-chunk, so consumers observe the same prefix a direct reader would.
func (f *fanout) fill() ([]Event, error) {
	chunk := make([]Event, 0, fanoutChunkEvents)
	for len(chunk) < fanoutChunkEvents {
		e, err := f.src.Next()
		if err != nil {
			return chunk, err
		}
		chunk = append(chunk, e)
	}
	return chunk, nil
}

// Meta returns the source's run metadata.
func (b *Branch) Meta() Meta { return b.f.src.Meta() }

// Next returns the branch's next event, io.EOF at the end of a
// well-formed stream, or the source's error.
func (b *Branch) Next() (Event, error) {
	if e, ok := b.next(); ok {
		return e, nil
	}
	return Event{}, b.end()
}

// NextChunk returns the branch's next batch of events. The returned
// slice is shared with the other branches and must be treated as
// read-only.
func (b *Branch) NextChunk() ([]Event, error) {
	if chunk, ok := b.nextChunk(); ok {
		return chunk, nil
	}
	return nil, b.end()
}

func (b *Branch) end() error {
	if b.f.err != nil {
		return b.f.err
	}
	return io.EOF
}

// Volatile returns the source's aggregate DRAM counters; complete only
// after Next/NextChunk has returned io.EOF.
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
