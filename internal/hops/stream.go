package hops

import (
	"io"
	"sync/atomic"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/par"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Streaming replay. Nothing in the timing replay needs the future: the
// front decides the HOPS durability point when a commit arrives (timing.go),
// so each event is replayed as it is read.
//
// The replay runs in stages joined by a small ring of batches. Stage 1, on
// the caller's goroutine, reads the source and advances the front. Every
// model with a persist buffer (HOPS (NVM), HOPS (PWQ)) is a back-end stage
// on a goroutine of its own, stepping through each batch. The models
// without one (the x86 models and IDEAL) charge each event a constant of
// its kind, so their replay of a batch is a sum over it: the first
// back-end stage also builds each batch's summary and applies it to them
// (they make a stage of their own when no model has a buffer). So the
// five-model replay is three stages of about equal cost whatever the core
// count. Every back end sees the batches in stream order, so the result
// does not depend on how the stages interleave or on how many cores they
// share.

// replayBatchSize is the number of events in one batch: enough that a
// hand-off (a channel operation per stage and a countdown) is noise beside
// the back ends' work on it, few enough that a batch stays in the
// second-level cache.
const replayBatchSize = 2048

// replayBatches is the number of batches circulating between the stages:
// stage 1 fills up to replayBatches-1 ahead of the oldest one a back end
// is still replaying.
const replayBatches = 4

// replayBatch is one batch of front steps. left counts the back-end stages
// yet to finish it; the last one hands it back to stage 1.
type replayBatch struct {
	steps []frontStep
	left  atomic.Int32
}

// backEnd is one back-end stage: a model with a persist buffer stepped over
// each batch, the models without one replayed from its summary, or both.
type backEnd struct {
	in   chan *replayBatch
	step *replayer
	sums []*replayer
	sum  batchSum
}

// replay runs the stage's back ends over one batch.
func (b *backEnd) replay(steps []frontStep) {
	if b.step != nil {
		b.step.applyAll(steps)
	}
	if len(b.sums) > 0 {
		b.sum.of(steps)
		for _, r := range b.sums {
			r.applySum(&b.sum)
		}
	}
}

// backEnds groups rs into stages: one per model with a persist buffer, the
// others with the first of those, or on their own when there is none.
func backEnds(rs []*replayer) []*backEnd {
	var stages []*backEnd
	var sums []*replayer
	for _, r := range rs {
		if r.buffered() {
			stages = append(stages, &backEnd{step: r})
		} else {
			sums = append(sums, r)
		}
	}
	if len(sums) > 0 {
		if len(stages) == 0 {
			stages = append(stages, &backEnd{})
		}
		stages[0].sums = sums
	}
	return stages
}

// feeder is stage 1 of the replay. It fills batch, hands it to every
// back-end stage and takes an empty one from free. No channel holds more
// than the replayBatches batches there are, so only taking from free can
// wait, and it gives up once a back end that panicked signals abort.
type feeder struct {
	front  *front
	batch  *replayBatch
	stages []*backEnd
	free   chan *replayBatch
	abort  chan struct{}
	// stopped is set once a back end has failed: read no further.
	stopped bool
}

// handOver gives the batch to every back-end stage.
func (fd *feeder) handOver() {
	fd.batch.left.Store(int32(len(fd.stages)))
	for _, b := range fd.stages {
		b.in <- fd.batch
	}
}

// emit advances the front over e into the batch's next step and hands the
// batch over when it is full.
func (fd *feeder) emit(e *trace.Event) {
	b := fd.batch
	n := len(b.steps)
	b.steps = b.steps[:n+1]
	fd.front.next(e, &b.steps[n])
	if n+1 == replayBatchSize {
		fd.handOver()
		select {
		case fd.batch = <-fd.free:
		case <-fd.abort:
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
	if fd.batch != nil && len(fd.batch.steps) > 0 {
		fd.handOver()
	}
	return err
}

// drive runs the back ends rs over src: stage 1 here, each back-end stage
// on a goroutine of its own (par.Go). It returns src's error once every
// stage has exited, and then flushes the back ends' tallies. A panic of
// stage 1 reaches the caller after every back-end stage has exited; so does
// a back end's panic (the lowest stage's, if several panicked), with its
// own value, which supersedes stage 1's.
func drive(src trace.EventSource, rs []*replayer) error {
	stages := backEnds(rs)
	batches := make([]replayBatch, replayBatches)
	fd := &feeder{
		front:  &front{},
		stages: stages,
		free:   make(chan *replayBatch, replayBatches),
		abort:  make(chan struct{}, len(stages)), // one signal per stage that can panic: none blocks
	}
	for i := range batches {
		batches[i].steps = make([]frontStep, 0, replayBatchSize)
		fd.free <- &batches[i]
	}
	fd.batch = <-fd.free

	for _, b := range stages {
		b.in = make(chan *replayBatch, replayBatches)
	}
	join := par.Go(len(stages), func(i int) {
		b := stages[i]
		replayed := false
		defer func() {
			if !replayed { // a panic: stage 1 must not wait for this stage's batches
				fd.abort <- struct{}{}
			}
		}()
		for batch := range b.in {
			b.replay(batch.steps)
			if batch.left.Add(-1) == 0 {
				batch.steps = batch.steps[:0]
				fd.free <- batch
			}
		}
		replayed = true
	})

	err := func() error {
		defer func() {
			for _, b := range stages {
				close(b.in)
			}
			join()
		}()
		return fd.run(src)
	}()
	for _, r := range rs {
		r.flush()
	}
	return err
}

// NormalizedSource computes the Figure 10 presentation — every model's
// runtime normalized to the x86-64 (NVM) baseline — from a single pass
// over an event source: one front does the trace bookkeeping once per
// event and the five models' back ends replay its answers batch by batch,
// in three stages.
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
