package hops

import (
	"io"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Streaming replay. The only part of the timing replay that needs the
// future is the ofence/dfence split: a KFence is a dfence exactly when
// the thread's next ordering event (KFence or KTxEnd) is a KTxEnd — the
// last fence of each transaction. dfenceResolver implements that rule
// (pinned against the index-marking oracle in timing_test.go) with a
// bounded lookahead queue: events buffer only while some thread has a
// fence whose classification is still unknown, which in practice is the
// short distance to that thread's next ordering point.

// pendingEvent is one buffered event awaiting dfence resolution.
type pendingEvent struct {
	e      trace.Event
	dfence bool
	await  bool // an unresolved KFence; blocks draining
}

// openFence is one thread's unresolved KFence, by stream position.
type openFence struct {
	pos  int
	open bool
}

// dfenceResolver buffers events until every fence ahead of them is
// classified, then releases them in input order via the emit callback.
// queue[head:] is the buffer; the released prefix is reclaimed by
// truncation when the buffer empties and by a copy once it is at least as
// long as what remains, so a release costs O(events released).
type dfenceResolver struct {
	queue      []pendingEvent
	head       int                       // queue[:head] has been released
	base       int                       // stream position of queue[0]
	pos        int                       // stream position of the next pushed event
	unresolved trace.TIDTable[openFence] // each thread's open fence
	// emit is handed each released event, valid only during the call.
	emit func(e *trace.Event, dfence bool)
}

func newDfenceResolver(emit func(*trace.Event, bool)) *dfenceResolver {
	return &dfenceResolver{emit: emit}
}

// push adds e, which is copied if it has to wait, to the stream.
func (d *dfenceResolver) push(e *trace.Event) {
	switch e.Kind {
	case trace.KFence:
		// A newer fence of the same thread makes the older one an ofence.
		f := d.unresolved.Get(e.TID)
		if f.open {
			d.queue[f.pos-d.base].await = false
		}
		d.queue = append(d.queue, pendingEvent{e: *e, await: true})
		f.pos, f.open = d.pos, true
	case trace.KTxEnd:
		// Commit: the thread's open fence is its durability point.
		if f := d.unresolved.Get(e.TID); f.open {
			d.queue[f.pos-d.base].await = false
			d.queue[f.pos-d.base].dfence = true
			f.open = false
		}
		fallthrough
	default:
		if len(d.queue) == 0 {
			// Nothing buffered and nothing to resolve: bypass the queue.
			d.pos++
			d.base++
			d.emit(e, false)
			return
		}
		d.queue = append(d.queue, pendingEvent{e: *e})
	}
	d.pos++
	d.drain()
}

func (d *dfenceResolver) drain() {
	i := d.head
	for ; i < len(d.queue) && !d.queue[i].await; i++ {
		d.emit(&d.queue[i].e, d.queue[i].dfence)
	}
	d.head = i
	if rest := len(d.queue) - i; rest <= i {
		copy(d.queue, d.queue[i:])
		d.queue = d.queue[:rest]
		d.base += i
		d.head = 0
	}
}

// finish releases everything still buffered: fences with no later commit
// are ofences.
func (d *dfenceResolver) finish() {
	for i := d.head; i < len(d.queue); i++ {
		d.queue[i].await = false
	}
	d.drain()
}

// The replay runs in two stages joined by a small ring of batches. Stage 1,
// on a goroutine of its own, reads the source, resolves dfences and advances
// the front; stage 2, on the caller's goroutine, runs each back end over a
// whole batch in turn. The front and the back ends see the events in stream
// order either way, so the result does not depend on how the two stages
// interleave or on how many cores they share.

// replayBatchSize is the number of resolved events in one batch: enough that
// a hand-off (two channel operations) is noise beside the back ends' work on
// it, few enough that a batch stays in the second-level cache.
const replayBatchSize = 2048

// replayBatches is the number of batches circulating between the stages:
// stage 1 fills up to replayBatches-1 ahead of the one stage 2 replays.
const replayBatches = 4

// feeder is stage 1 of the replay. It fills batch, hands it to full and
// takes an empty one from free; full has room for every batch, so only
// taking from free can wait, and it gives up once stop is closed.
type feeder struct {
	front   *front
	batch   []frontStep
	free    chan []frontStep
	full    chan []frontStep
	stop    chan struct{}
	stopped bool // stage 2 has returned: drop events, read no further
}

func (fd *feeder) emit(e *trace.Event, dfence bool) {
	if fd.stopped {
		return
	}
	n := len(fd.batch)
	fd.batch = fd.batch[:n+1]
	st := &fd.batch[n]
	fd.front.next(e, st)
	st.dfence = dfence
	if n+1 == replayBatchSize {
		fd.full <- fd.batch
		select {
		case fd.batch = <-fd.free:
		case <-fd.stop:
			fd.batch, fd.stopped = nil, true
		}
	}
}

// run pushes every event of src through the resolver, releases what is
// still buffered when the stream ends and hands over the last, part-filled
// batch.
func (fd *feeder) run(src trace.EventSource) error {
	d := newDfenceResolver(fd.emit)
	var err error
	for !fd.stopped {
		var chunk []trace.Event
		chunk, err = src.NextChunk()
		if err == io.EOF {
			d.finish()
			err = nil
			break
		}
		if err != nil {
			break
		}
		for i := range chunk {
			d.push(&chunk[i])
		}
	}
	if len(fd.batch) > 0 {
		fd.full <- fd.batch
	}
	return err
}

// drive runs the back ends rs over src: stage 1 on a new goroutine,
// stage 2 here. It returns src's error, re-raises a panic of stage 1 with
// its own value, and returns — normally or by a back end's panic — only
// after stage 1 has exited. The back ends' tallies are flushed once the
// stream has been replayed.
func drive(src trace.EventSource, rs []*replayer) error {
	fd := &feeder{
		front: &front{},
		free:  make(chan []frontStep, replayBatches),
		full:  make(chan []frontStep, replayBatches),
		stop:  make(chan struct{}),
	}
	for i := 1; i < replayBatches; i++ {
		fd.free <- make([]frontStep, 0, replayBatchSize)
	}
	fd.batch = make([]frontStep, 0, replayBatchSize)

	// Both are written before full is closed and read after it is drained.
	var err error
	var panicked any
	go func() {
		defer close(fd.full)
		defer func() { panicked = recover() }()
		err = fd.run(src)
	}()
	defer func() {
		close(fd.stop)
		for range fd.full {
		}
	}()

	for batch := range fd.full {
		for _, r := range rs {
			r.applyAll(batch)
		}
		fd.free <- batch[:0]
	}
	if panicked != nil {
		panic(panicked)
	}
	for _, r := range rs {
		r.flush()
	}
	return err
}

// ReplaySource reruns src's instruction stream under the given persistence
// model in one pass and O(open lookahead) memory. The instruments in ro
// are pure outputs and never change the Result; they are filled when the
// replay finishes.
func ReplaySource(src trace.EventSource, model Model, cfg Config, ro ReplayObs) (Result, error) {
	r := newReplayer(model, cfg, ro)
	if err := drive(src, []*replayer{r}); err != nil {
		return Result{Model: model}, err
	}
	return r.result(), nil
}

// NormalizedSource computes the Figure 10 presentation — every model's
// runtime normalized to the x86-64 (NVM) baseline — from a single pass
// over an event source: one front does the trace bookkeeping once per
// resolved event and the five models' back ends replay its answers batch
// by batch. When instruments is non-nil, instruments(m) supplies the
// ReplayObs for model m's replayer; they are filled when the replay
// finishes.
func NormalizedSource(src trace.EventSource, cfg Config, instruments func(Model) ReplayObs) (map[Model]float64, error) {
	rs := make([]*replayer, len(Models))
	for i, m := range Models {
		ro := ReplayObs{}
		if instruments != nil {
			ro = instruments(m)
		}
		rs[i] = newReplayer(m, cfg, ro)
	}
	if err := drive(src, rs); err != nil {
		return nil, err
	}

	out := make(map[Model]float64, len(Models))
	var base mem.Cycles
	for i, m := range Models {
		if m == X86NVM {
			base = rs[i].result().Cycles
		}
	}
	for i, m := range Models {
		if m == X86NVM {
			out[m] = 1.0
			continue
		}
		out[m] = float64(rs[i].result().Cycles) / float64(base)
	}
	return out, nil
}
