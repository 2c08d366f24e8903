package hops

import (
	"io"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Streaming replay. Nothing in the timing replay needs the future: the
// front decides the HOPS durability point when a commit arrives (timing.go),
// so each event is replayed as it is read.
//
// The replay runs in two stages joined by a small ring of batches. Stage 1,
// on a goroutine of its own, reads the source and advances the front; stage
// 2, on the caller's goroutine, runs each back end over a whole batch in
// turn. The front and the back ends see the events in stream order either
// way, so the result does not depend on how the two stages interleave or on
// how many cores they share.

// replayBatchSize is the number of events in one batch: enough that a
// hand-off (two channel operations) is noise beside the back ends' work on
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
	stopped bool // stage 2 has returned: read no further
}

// emit advances the front over e into the batch's next step and hands the
// batch over when it is full.
func (fd *feeder) emit(e *trace.Event) {
	n := len(fd.batch)
	fd.batch = fd.batch[:n+1]
	fd.front.next(e, &fd.batch[n])
	if n+1 == replayBatchSize {
		fd.full <- fd.batch
		select {
		case fd.batch = <-fd.free:
		case <-fd.stop:
			fd.batch, fd.stopped = nil, true
		}
	}
}

// run advances the front over every event of src and hands over the last,
// part-filled batch.
func (fd *feeder) run(src trace.EventSource) error {
	var err error
	for !fd.stopped {
		var chunk []trace.Event
		chunk, err = src.NextChunk()
		if err == io.EOF {
			err = nil
			break
		}
		if err != nil {
			break
		}
		for i := 0; i < len(chunk) && !fd.stopped; i++ {
			fd.emit(&chunk[i])
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

// NormalizedSource computes the Figure 10 presentation — every model's
// runtime normalized to the x86-64 (NVM) baseline — from a single pass
// over an event source: one front does the trace bookkeeping once per
// event and the five models' back ends replay its answers batch by batch.
// When instruments is non-nil, instruments(m) supplies the ReplayObs for
// model m's replayer; they are filled when the replay finishes.
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
