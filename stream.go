package whisper

import (
	"cmp"
	"io"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/par"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// One pass, any number of consumers. Every analysis entry point of the
// package — a live run, a saved file or a retained trace — is
// pipeline(src, taps): the epoch analysis reads src, and whatever else
// wants the events (the sanitizer, the cache simulation, the trace
// writer; see fused) rides the same pass as a tap on its own trace.Fanout
// branch. Each consumer sees the identical event sequence, so its output
// is byte-identical to reading the source alone, and the source is
// executed or decoded exactly once.

// tap is one extra consumer of a pipeline pass. It drains its branch and
// keeps its own result; an error from any tap fails the pass.
type tap func(*trace.Branch) error

// pipeline runs the epoch analysis over src with every tap consuming the
// same events concurrently, each on its own trace.Fanout branch. The
// analysis is the first of the consumers par.Go joins, so a panic reaches
// the caller with its own value once every consumer has finished: the
// source's, which every branch re-raises, or else the lowest tap's.
func pipeline(src trace.EventSource, taps []tap) (*epoch.Analysis, error) {
	branches := trace.Fanout(src, 1+len(taps))
	var a *epoch.Analysis
	errs := make([]error, len(branches))
	par.Go(len(branches), func(i int) {
		// A consumer that gives up early, or panics, must release the pump,
		// or the other branches stall behind its full queue.
		defer branches[i].Close()
		if i == 0 {
			a, errs[0] = epoch.AnalyzeStream(branches[0])
			return
		}
		errs[i] = taps[i-1](branches[i])
	})()
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return a, nil
}

// Live runs are two stages at block granularity, exec ∥ analysis: the
// benchmark records on its own goroutine into a trace.Trace, and each
// block of DefaultBlockEvents events reaches the pipeline through the
// trace's Tail the moment Append fills it — one channel send per block,
// never per event — so the analysis of one block overlaps the recording of
// the next instead of re-reading the whole trace from cold memory after the
// run. Run and RunAllFused are the same pass, record then pipeline, and
// differ only in their taps: Run's is trace.Collect, whose packed blocks,
// about 4.8 bytes an event, are Report.Trace; RunAllFused's keep no events.
// Either way the Fanout hands each block back to the recorder once every
// branch is past it. The reports are identical (TestStreamMatchesSerial
// asserts it on every suite member).

// record launches the named benchmark on its own goroutine, recording into
// a fresh runtime's trace, and returns the tail its events arrive on. The
// goroutine ends with the run, a panicking member closing the tail with the
// run's error; the caller must read the tail to its end (io.EOF or that
// error), which pipeline always does.
func record(name string, cfg Config) (*trace.Tail, error) {
	a, cfg, err := resolve(name, cfg)
	if err != nil {
		return nil, err
	}
	rt := persist.NewRuntime(a.Name, a.Layer, cfg.Clients, persist.Config{})
	tail := rt.Trace.Tail()
	go func() { tail.Close(execute(a, rt, cfg)) }()
	return tail, nil
}

// AnalyzeReader computes a Report by streaming a saved trace through the
// analysis without materializing it. The report matches
// Analyze(DecodeTrace(r)) exactly, with a nil Trace.
func AnalyzeReader(r io.Reader) (*Report, error) {
	fr, err := AnalyzeReaderFused(r, FusedConfig{})
	if err != nil {
		return nil, err
	}
	return fr.Report, nil
}
