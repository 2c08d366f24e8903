package pmsan

import (
	"bytes"
	"testing"

	"github.com/whisper-pm/whisper/internal/trace"
)

// FuzzSanitizer feeds arbitrary encoded traces (the seed corpus includes
// the trace decoder's corpus plus the seeded broken workload, whole and cut
// short inside a transaction) through the full decode→sanitize path.
// Invariants: no panic on any decodable input, and the report is
// deterministic — sanitizing the same trace twice renders byte-identically.
func FuzzSanitizer(f *testing.F) {
	broken := brokenWorkload()
	open := trace.FromEvents(trace.Meta{App: broken.App, Layer: broken.Layer, Threads: broken.Threads},
		broken.Events()[:7])
	for _, tr := range []*trace.Trace{broken, open} {
		var buf bytes.Buffer
		if err := trace.EncodeV2(&buf, trace.NewSliceSource(tr)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return // undecodable input is the decoder fuzzer's problem
		}
		a, err := Run(trace.NewSliceSource(tr))
		if err != nil {
			t.Fatalf("Run on decoded trace: %v", err)
		}
		b, err := Run(trace.NewSliceSource(tr))
		if err != nil {
			t.Fatalf("second Run: %v", err)
		}
		if a.String() != b.String() {
			t.Fatalf("nondeterministic report:\n%s\n---\n%s", a, b)
		}
	})
}
