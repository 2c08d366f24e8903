package pmsan

import (
	"bytes"
	"testing"

	"github.com/whisper-pm/whisper/internal/trace"
)

// FuzzSanitizer feeds arbitrary encoded traces (both codec versions;
// the seed corpus includes the trace decoder's corpus plus the seeded
// broken workload) through the full decode→sanitize path. Invariants:
// no panic on any decodable input, and the report is deterministic —
// sanitizing the same trace twice renders byte-identically.
func FuzzSanitizer(f *testing.F) {
	var v1, v2 bytes.Buffer
	if err := trace.EncodeV1(&v1, brokenWorkload()); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	if err := trace.EncodeV2(&v2, brokenWorkload()); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

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
