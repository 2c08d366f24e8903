package whisper

import (
	"fmt"
	"io"

	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Durability-ordering sanitizer (pmsan). The sanitizer replays the
// store→flush→fence→commit lifecycle of every PM cache line and reports
// ordering errors (state a transaction publishes at TxEnd without a
// covering flush/fence) and performance smells (redundant flushes,
// no-op fences). It runs over a retained trace (Sanitize), a stored
// trace file (SanitizeReader), or as a tap of the streaming pipeline
// (FusedConfig.Sanitize) — all three produce byte-identical reports for
// the same run.

// SanReport is the result of sanitizing one trace. Reports are
// deterministic: rendering is byte-stable across runs and across the
// serial, parallel, and streaming execution paths.
type SanReport struct {
	rep *pmsan.Report
}

// String renders the full report (summary plus per-site detail).
func (r *SanReport) String() string { return r.rep.String() }

// Errors returns the number of error-class sites. Zero means the trace
// is clean.
func (r *SanReport) Errors() int { return r.rep.Errors() }

// Sites returns the number of distinct (thread, line) sites reported
// for the named class, or 0 for an unknown class name.
func (r *SanReport) Sites(class string) int {
	c, ok := pmsan.ClassByName(class)
	if !ok {
		return 0
	}
	return r.rep.Sites(c)
}

// Sanitize runs the durability-ordering sanitizer over a retained
// trace (as produced by Run; Report.Trace carries one).
func Sanitize(t *Trace) *SanReport {
	b := trace.Fanout(trace.NewSliceSource(t.tr), 1)[0]
	defer b.Close()
	rep, err := pmsan.Run(b)
	if err != nil {
		// A slice source cannot fail mid-stream; keep the API ergonomic.
		panic(fmt.Sprintf("whisper: sanitize: %v", err))
	}
	return &SanReport{rep: rep}
}

// SanitizeReader runs the sanitizer over a stored trace without
// materializing it.
func SanitizeReader(r io.Reader) (*SanReport, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	rep, err := pmsan.Run(rd)
	if err != nil {
		return nil, err
	}
	return &SanReport{rep: rep}, nil
}
