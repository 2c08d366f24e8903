package crashcheck

import (
	"bytes"
	"testing"

	"github.com/whisper-pm/whisper/internal/pmem"
)

// FuzzSnapshotRoundTrip throws arbitrary bytes at the snapshot decoder: it
// must reject or accept without panicking, and anything it accepts must
// re-encode canonically (the encoding is a fixed point of decode∘encode).
func FuzzSnapshotRoundTrip(f *testing.F) {
	var empty bytes.Buffer
	(&Snapshot{}).Encode(&empty)
	f.Add(empty.Bytes())

	d := pmem.New()
	a := d.Map(2 * pmem.PageBytes)
	d.Store(0, a, []byte("seed corpus page"))
	d.Store(0, a+pmem.PageBytes, []byte("second page"))
	d.Flush(0, a, 64)
	d.Flush(0, a+pmem.PageBytes, 64)
	d.Fence(0)
	var two bytes.Buffer
	TakeSnapshot(d).Encode(&two)
	f.Add(two.Bytes())
	f.Add(two.Bytes()[:30])             // truncated mid-page
	f.Add([]byte("WCRS"))               // magic only
	f.Add(append([]byte(nil), 0, 1, 2)) // garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.Encode(&out); err != nil {
			t.Fatalf("re-encode of accepted snapshot failed: %v", err)
		}
		s2, err := DecodeSnapshot(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("decode of canonical re-encoding failed: %v", err)
		}
		var out2 bytes.Buffer
		s2.Encode(&out2)
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("canonical encoding is not a fixed point")
		}
	})
}
