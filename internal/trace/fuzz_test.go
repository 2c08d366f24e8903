package trace

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
)

// FuzzDecode throws arbitrary bytes at the trace decoder: it must accept or
// reject without panicking or over-allocating, a file of any version but
// v3 (a v1 or v2 seed among them) must fail by its version, any accepted
// trace must read back through its SliceSource as the streaming Reader
// reads the input, Encode must write the Writer's bytes of those events
// (the file's own blocks where they are pack's, the others packed afresh),
// and Encode → Decode must give back its events unchanged.
func FuzzDecode(f *testing.F) {
	seed := func(tr *Trace) {
		var buf bytes.Buffer
		if err := EncodeV2(&buf, NewSliceSource(tr)); err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(buf.Bytes())
	}
	seed(&Trace{App: "echo", Layer: "native", Threads: 1})
	three := appended(&Trace{App: "ycsb", Layer: "native", Threads: 2}, []Event{
		{Time: 10, Addr: mem.PMBase, Size: 8, TID: 0, Kind: KStore},
		{Time: 12, Addr: mem.PMBase + 64, Size: 64, TID: 1, Kind: KFlush},
		{Time: 13, TID: 1, Kind: KFence},
	})
	three.VolatileLoads, three.VolatileStores = 7, 3
	seed(three)
	f.Add([]byte("WSPR"))
	f.Add([]byte{})
	f.Add([]byte("WSPR\x03\x04echo\x06native"))
	// Past the open block's first three doublings.
	seed(countingTrace(4*firstChunkEvents + 3))
	// A block naming tid 0x10000, one past what an Event holds.
	f.Add(append(append(v3Header(), okBlock(rawEvent(byte(KStore), 1<<16, 1, 0, 8))...), rawTrailer(0, 0, 1, true, 0)...))
	// A block naming a size of 2^32+8, past what an Event holds.
	f.Add(append(append(v3Header(), okBlock(rawEvent(byte(KStore), 0, 1, 0, 1<<32+8))...), rawTrailer(0, 0, 1, true, 0)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		requireVersion(t, data, err)
		if err != nil {
			return
		}
		// What Decode keeps reads back as the streaming Reader reads the
		// input.
		chunks, err := readerChunks(data)
		if err != io.EOF {
			t.Fatalf("Decode accepted a stream the Reader ends with %v", err)
		}
		if !slices.Equal(tr.Events(), slices.Concat(chunks...)) {
			t.Fatalf("the decoded trace reads back %d events, the Reader %d, or they differ", tr.Len(), len(slices.Concat(chunks...)))
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), writerBytes(t, tr)) {
			t.Fatalf("Encode of the decoded trace differs from the Writer's bytes of its events")
		}
		tr2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if tr2.App != tr.App || tr2.Layer != tr.Layer || tr2.Threads != tr.Threads ||
			tr2.VolatileLoads != tr.VolatileLoads || tr2.VolatileStores != tr.VolatileStores ||
			tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed trace header or event count")
		}
		if !slices.Equal(tr.Events(), tr2.Events()) {
			t.Fatalf("round trip changed events")
		}
	})
}

// requireVersion fails t unless a file whose header names a version other
// than this package's was refused, with err, by that version.
func requireVersion(t *testing.T, data []byte, err error) {
	t.Helper()
	if len(data) <= len(magic) || string(data[:len(magic)]) != magic || data[len(magic)] == version {
		return
	}
	if want := fmt.Sprintf("trace: unsupported version %d", data[len(magic)]); err == nil || err.Error() != want {
		t.Fatalf("a version %d file: error %v, want %q", data[len(magic)], err, want)
	}
}

// FuzzReaderV2 targets the chunked block reader specifically: truncated
// blocks, corrupted CRCs, and lying block counts must error — never panic
// or allocate beyond the framing caps — and Decode must reject what the
// streaming Reader rejects, with the same error. The corpus is seeded with real
// encoded blocks (whole v3 streams, with both kinds of escaped head, plus
// hand-truncated and bit-flipped variants) so the fuzzer starts inside the
// format.
func FuzzReaderV2(f *testing.F) {
	seedTrace := appended(&Trace{App: "ycsb", Layer: "native", Threads: 2}, []Event{
		{Time: 10, Addr: mem.PMBase, Size: 8, TID: 0, Kind: KStore},
		{Time: 12, Addr: mem.PMBase + 64, Size: 64, TID: 1, Kind: KFlush},
		{Time: 13, TID: 1, Kind: KFence},
		{Time: 14, TID: 0, Kind: KTxEnd},
		{Time: 15, Addr: mem.PMBase + 8, Size: 8, TID: 9, Kind: KStore},
		{Time: 16, Size: 64, TID: 300, Kind: KUserData},
	})
	seedTrace.VolatileLoads, seedTrace.VolatileStores = 7, 3
	var buf bytes.Buffer
	if err := EncodeV2(&buf, NewSliceSource(seedTrace)); err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	whole := buf.Bytes()
	f.Add(append([]byte(nil), whole...))
	// Real encoded blocks, truncated at several offsets inside the frames.
	for _, cut := range []int{len(whole) - 1, len(whole) - 5, len(whole) / 2, 20} {
		if cut > 0 && cut < len(whole) {
			f.Add(append([]byte(nil), whole[:cut]...))
		}
	}
	// Bit flips in the block payload and in the CRC region.
	for _, off := range []int{20, len(whole) / 2, len(whole) - 2} {
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	// A multi-block stream so the fuzzer sees inter-block delta resets.
	big := &Trace{App: "b", Layer: "native", Threads: 1}
	for i := 0; i < DefaultBlockEvents+10; i++ {
		big.Append(Event{Kind: KStore, Time: mem.Time(i), Addr: mem.PMBase + mem.Addr(i*8), Size: 8})
	}
	buf.Reset()
	if err := EncodeV2(&buf, NewSliceSource(big)); err != nil {
		f.Fatalf("seed encode: %v", err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add([]byte("WSPR\x03\x04echo\x06native\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode is the Reader's block loop: a stream the Reader rejects
		// it must reject with the Reader's error, and start no goroutine
		// either way.
		base := runtime.NumGoroutine()
		_, decodeErr := Decode(bytes.NewReader(data))
		requireGoroutines(t, base)
		sameError := func(err error) {
			if decodeErr == nil || decodeErr.Error() != err.Error() {
				t.Fatalf("the Reader rejects the stream with %q, Decode with %v", err, decodeErr)
			}
		}
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			sameError(err)
			return
		}
		var n int
		for {
			_, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// Errors must be sticky: a second Next never resumes.
				if _, err2 := rd.Next(); err2 == nil || err2 == io.EOF {
					t.Fatalf("reader resumed after error %v", err)
				}
				sameError(err)
				return
			}
			n++
			if n > maxBlockEvents*64 {
				t.Fatalf("reader produced an implausible number of events from %d input bytes", len(data))
			}
		}
		// Fully accepted stream: must re-encode and decode identically.
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Decode failed on stream Reader accepted: %v", err)
		}
		buf := &bytes.Buffer{}
		if err := EncodeV2(buf, NewSliceSource(tr)); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded trace failed: %v", err)
		}
		if tr2.Len() != tr.Len() {
			t.Fatalf("round trip changed event count")
		}
	})
}
