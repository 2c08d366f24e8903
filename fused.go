package whisper

import (
	"io"

	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/par"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Fused single-pass mode: the epoch analysis, the durability-ordering
// sanitizer, and the cache-hierarchy simulator consume one pipeline pass
// over the same event stream instead of replaying the trace once each
// (the Bentō observation: cross-cutting PM analyses share the pass, not
// just the trace). The source — a live benchmark or a saved trace file —
// is executed or decoded exactly once; each consumer's output is
// byte-identical to its standalone run, which TestFusedMatchesStandalone
// asserts per suite member.

// FusedConfig selects the consumers riding the shared pass alongside the
// epoch analysis.
type FusedConfig struct {
	// Sanitize adds the durability-ordering sanitizer (FusedReport.San).
	Sanitize bool
	// Cache adds the Table 3 cache-hierarchy simulation
	// (FusedReport.Cache).
	Cache bool
}

// CacheStats is the cache-hierarchy accounting of one run: where every
// access was serviced (Figure 6's machinery), simulated on the paper's
// Table 3 geometry.
type CacheStats struct {
	// L1Hits, L2Hits, and RemoteHits are accesses serviced by the local
	// L1, the local L2, and another core's cache (coherence transfer).
	L1Hits     uint64
	L2Hits     uint64
	RemoteHits uint64
	// DRAMReads/DRAMWrites and PMReads/PMWrites are accesses that reached
	// memory, attributed by address range.
	DRAMReads  uint64
	DRAMWrites uint64
	PMReads    uint64
	PMWrites   uint64
	// NTWrites are non-temporal writes (cache-bypassing, straight to PM).
	NTWrites uint64
	// Evictions counts valid lines displaced from either level.
	Evictions uint64
}

// FusedReport bundles the outputs of one fused pass.
type FusedReport struct {
	// Report is the epoch analysis (always present; Trace is nil, as in
	// every streaming path).
	Report *Report
	// San is the sanitizer report, nil unless FusedConfig.Sanitize.
	San *SanReport
	// Cache is the cache-hierarchy accounting, nil unless
	// FusedConfig.Cache.
	Cache *CacheStats
}

// AnalyzeReaderFused streams a saved trace through the epoch analysis plus
// the consumers fcfg selects, decoding the file exactly once. The outputs
// match AnalyzeReader, SanitizeReader, and a standalone cache replay on the
// same trace.
func AnalyzeReaderFused(r io.Reader, fcfg FusedConfig) (*FusedReport, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	return fused(rd, fcfg, nil)
}

// RunAllFused executes each of names once, up to workers of them at a
// time, and fans each live event stream out to the epoch analysis plus the
// consumers fcfg selects; no trace is materialized, and the reports come
// back in names order. When traceOut is non-nil each run's events also go,
// in the chunked trace format, to the writer traceOut(name) opens; it is
// closed when that run ends. Neither the reports nor the bytes written
// depend on workers. An unknown name fails the call before anything runs
// or traceOut is called.
func RunAllFused(names []string, cfg Config, fcfg FusedConfig, workers int, traceOut func(name string) (io.WriteCloser, error)) ([]*FusedReport, error) {
	for _, name := range names {
		if _, _, err := resolve(name, cfg); err != nil {
			return nil, err
		}
	}
	out := make([]*FusedReport, len(names))
	err := par.Each(len(names), workers, func(i int) (err error) {
		if traceOut == nil {
			out[i], err = runFused(names[i], cfg, fcfg, nil)
			return err
		}
		w, err := traceOut(names[i])
		if err != nil {
			return err
		}
		out[i], err = runFused(names[i], cfg, fcfg, w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runFused is one member of RunAllFused: the named benchmark's live stream
// through fused, and through the trace writer too when traceOut is non-nil.
func runFused(name string, cfg Config, fcfg FusedConfig, traceOut io.Writer) (*FusedReport, error) {
	tail, err := record(name, cfg)
	if err != nil {
		return nil, err
	}
	return fused(tail, fcfg, traceOut)
}

// fused runs one pipeline pass over src with the sanitizer and the cache
// simulation as taps when fcfg selects them, and the trace writer as one when
// traceOut is non-nil. Each tap fills its own field of the report; the
// pipeline's join orders those writes before the return.
func fused(src trace.EventSource, fcfg FusedConfig, traceOut io.Writer) (*FusedReport, error) {
	out := &FusedReport{}
	var taps []tap
	if fcfg.Sanitize {
		taps = append(taps, func(b *trace.Branch) error {
			rep, err := pmsan.Run(b)
			out.San = &SanReport{rep: rep}
			return err
		})
	}
	if fcfg.Cache {
		taps = append(taps, func(b *trace.Branch) error {
			stats, err := cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), b)
			out.Cache = (*CacheStats)(&stats)
			return err
		})
	}
	if traceOut != nil {
		taps = append(taps, func(b *trace.Branch) error { return trace.EncodeSource(traceOut, b) })
	}
	a, err := pipeline(src, taps)
	if err != nil {
		return nil, err
	}
	out.Report = newReport(a, nil)
	return out, nil
}
