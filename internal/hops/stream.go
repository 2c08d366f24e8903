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
	emit       func(e trace.Event, dfence bool)
}

func newDfenceResolver(emit func(trace.Event, bool)) *dfenceResolver {
	return &dfenceResolver{emit: emit}
}

func (d *dfenceResolver) push(e trace.Event) {
	switch e.Kind {
	case trace.KFence:
		// A newer fence of the same thread makes the older one an ofence.
		f := d.unresolved.Get(e.TID)
		if f.open {
			d.queue[f.pos-d.base].await = false
		}
		d.queue = append(d.queue, pendingEvent{e: e, await: true})
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
		d.queue = append(d.queue, pendingEvent{e: e})
	}
	d.pos++
	d.drain()
}

func (d *dfenceResolver) drain() {
	i := d.head
	for ; i < len(d.queue) && !d.queue[i].await; i++ {
		d.emit(d.queue[i].e, d.queue[i].dfence)
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

// run pushes every event of src through the resolver and releases what is
// still buffered when the stream ends.
func (d *dfenceResolver) run(src trace.EventSource) error {
	for {
		chunk, err := src.NextChunk()
		if err == io.EOF {
			d.finish()
			return nil
		}
		if err != nil {
			return err
		}
		for _, e := range chunk {
			d.push(e)
		}
	}
}

// ReplaySource reruns src's instruction stream under the given persistence
// model in one pass and O(open lookahead) memory. The instruments in ro
// are pure outputs and never change the Result.
func ReplaySource(src trace.EventSource, model Model, cfg Config, lat mem.Latency, ro ReplayObs) (Result, error) {
	r := newReplayer(model, cfg, lat, ro, newFront(cfg, lat))
	if err := newDfenceResolver(r.step).run(src); err != nil {
		return Result{Model: model}, err
	}
	return r.result(), nil
}

// NormalizedSource computes the Figure 10 presentation — every model's
// runtime normalized to the x86-64 (NVM) baseline — from a single pass
// over an event source: one front does the trace bookkeeping once per
// resolved event and the five models' back ends advance in lockstep on its
// answer. When instruments is non-nil, instruments(m) supplies the
// ReplayObs for model m's replayer.
func NormalizedSource(src trace.EventSource, cfg Config, lat mem.Latency, instruments func(Model) ReplayObs) (map[Model]float64, error) {
	f := newFront(cfg, lat)
	rs := make([]*replayer, len(Models))
	for i, m := range Models {
		ro := ReplayObs{}
		if instruments != nil {
			ro = instruments(m)
		}
		rs[i] = newReplayer(m, cfg, lat, ro, f)
	}
	d := newDfenceResolver(func(e trace.Event, dfence bool) {
		st := f.next(e)
		for _, r := range rs {
			r.apply(e, dfence, st)
		}
	})
	if err := d.run(src); err != nil {
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
