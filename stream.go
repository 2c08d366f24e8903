package whisper

import (
	"io"
	"sync"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/trace"
)

// One pass, any number of consumers. Every analysis entry point of the
// package — a live run, a saved file or a retained trace — is
// pipeline(src, taps): the epoch analysis reads src, and whatever else
// wants the events (the sanitizer, the cache simulation, the v2 trace
// writer; see fused) rides the same pass as a tap on its own trace.Fanout
// branch. Each consumer sees the identical event sequence, so its output
// is byte-identical to reading the source alone, and the source is
// executed or decoded exactly once.

// tap is one extra consumer of a pipeline pass. It drains its branch and
// keeps its own result; an error from any tap fails the pass.
type tap func(*trace.Branch) error

// pipeline runs the epoch analysis over src on the calling goroutine
// with every tap consuming the same events concurrently. Without taps
// nothing is fanned out: the analysis reads src directly.
func pipeline(src trace.EventSource, taps []tap) (*epoch.Analysis, error) {
	if len(taps) == 0 {
		return epoch.AnalyzeStream(src)
	}
	branches := trace.Fanout(src, 1+len(taps))
	errs := make([]error, len(taps))
	var wg sync.WaitGroup
	for i, t := range taps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A tap that gives up early must release the pump, or the
			// other branches stall behind its full queue.
			defer branches[1+i].Close()
			errs[i] = t(branches[1+i])
		}()
	}
	a, err := epoch.AnalyzeStream(branches[0])
	branches[0].Close()
	wg.Wait()
	for _, terr := range errs {
		if err == nil {
			err = terr
		}
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// writeV2 is the trace-file tap: it copies its branch to w in the chunked
// v2 format.
func writeV2(w io.Writer, src *trace.Branch) error {
	tw, err := trace.NewWriter(w, src.Meta())
	if err != nil {
		return err
	}
	for {
		chunk, err := src.NextChunk()
		if err == io.EOF {
			return tw.Close(src.Volatile())
		}
		if err != nil {
			return err
		}
		for _, e := range chunk {
			if err := tw.Write(e); err != nil {
				return err
			}
		}
	}
}

// Live runs: the benchmark executes in its own goroutine with a persist
// event sink installed, and its events reach the pipeline through a
// bounded channel of chunks, so the full event slice is never
// materialized. The resulting Report is identical to Run's
// (TestStreamMatchesSerial asserts it on every suite member); only its
// Trace field is nil, since there is no retained trace to attach.

// streamChunk is the producer-side batch size: the benchmark goroutine
// hands events over in chunks so channel synchronization amortizes across
// events.
const streamChunk = 512

// streamDepth bounds the chunks in flight between the benchmark and its
// consumer: enough that neither side waits on every chunk, small enough
// that a run's memory stays a few thousand events.
const streamDepth = 8

// chanSource adapts a bounded channel of event chunks to
// trace.ChunkSource. The producer closes the channel when the run
// completes (after publishing volatile counters and any run error), so
// Volatile is complete once Next has returned io.EOF.
type chanSource struct {
	meta trace.Meta
	ch   chan []trace.Event

	cur []trace.Event
	pos int

	// Written by the producer goroutine strictly before close(ch); read
	// by the consumer only after the channel is drained. The channel
	// close is the synchronization edge.
	vloads  uint64
	vstores uint64
	runErr  error
}

func (c *chanSource) Meta() trace.Meta { return c.meta }

func (c *chanSource) Next() (trace.Event, error) {
	for c.pos >= len(c.cur) {
		if _, err := c.NextChunk(); err != nil {
			return trace.Event{}, err
		}
		c.pos = 0
	}
	e := c.cur[c.pos]
	c.pos++
	return e, nil
}

// NextChunk yields whole producer batches, so consumers pay one channel
// receive — not one interface call — per chunk of events.
func (c *chanSource) NextChunk() ([]trace.Event, error) {
	if c.pos < len(c.cur) {
		chunk := c.cur[c.pos:]
		c.pos = len(c.cur)
		return chunk, nil
	}
	chunk, ok := <-c.ch
	if !ok {
		if c.runErr != nil {
			return nil, c.runErr
		}
		return nil, io.EOF
	}
	c.cur, c.pos = chunk, len(chunk)
	return chunk, nil
}

func (c *chanSource) Volatile() (loads, stores uint64) { return c.vloads, c.vstores }

// startStream launches the named benchmark in a producer goroutine and
// returns the source its events arrive on. The goroutine ends with the
// run; the consumer must read the source to its end (io.EOF or the run's
// error), which pipeline always does.
func startStream(name string, cfg Config) (*chanSource, error) {
	b, cfg, err := resolve(name, cfg)
	if err != nil {
		return nil, err
	}
	src := &chanSource{
		meta: trace.Meta{App: b.Name, Layer: b.Layer, Threads: cfg.Clients},
		ch:   make(chan []trace.Event, streamDepth),
	}
	go func() {
		chunk := make([]trace.Event, 0, streamChunk)
		flush := func() {
			if len(chunk) > 0 {
				src.ch <- chunk
				chunk = make([]trace.Event, 0, streamChunk)
			}
		}
		// The sink runs under the benchmark's deterministic scheduler;
		// only this goroutine touches chunk.
		rt, err := b.exec(cfg, func(e trace.Event) {
			chunk = append(chunk, e)
			if len(chunk) == streamChunk {
				flush()
			}
		})
		flush()
		src.runErr = err
		src.vloads, src.vstores = rt.Trace.VolatileLoads, rt.Trace.VolatileStores
		close(src.ch)
	}()
	return src, nil
}

// RunStream executes the named benchmark and analyzes its event stream on
// the fly, without ever holding the full trace in memory. The returned
// Report is identical to Run's except that Report.Trace is nil. When
// traceOut is non-nil, the stream is also written to it in the chunked v2
// trace format (readable by DecodeTrace, wanalyze -dir, and AnalyzeReader).
func RunStream(name string, cfg Config, traceOut io.Writer) (*Report, error) {
	fr, err := RunStreamFused(name, cfg, FusedConfig{}, traceOut)
	if err != nil {
		return nil, err
	}
	return fr.Report, nil
}

// AnalyzeReader computes a Report by streaming a saved trace (either
// codec version) through the analysis without materializing it. The
// report matches Analyze(DecodeTrace(r)) exactly, with a nil Trace.
func AnalyzeReader(r io.Reader) (*Report, error) {
	fr, err := AnalyzeReaderFused(r, FusedConfig{})
	if err != nil {
		return nil, err
	}
	return fr.Report, nil
}
