package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
)

// genTrace generates a random but valid trace: every Kind, extreme
// time/addr jumps in both directions, zero-size stores, every TID.
func genTrace(rng *rand.Rand, n int) *Trace {
	apps := []string{"", "echo", "ycsb", "a-very-long-application-name"}
	tr := &Trace{
		App:            apps[rng.Intn(len(apps))],
		Layer:          []string{"native", "nvml", "mnemosyne", "pmfs"}[rng.Intn(4)],
		Threads:        rng.Intn(16),
		VolatileLoads:  rng.Uint64() >> uint(rng.Intn(64)),
		VolatileStores: rng.Uint64() >> uint(rng.Intn(64)),
	}
	for i := 0; i < n; i++ {
		e := Event{
			Kind: Kind(rng.Intn(int(KUserData) + 1)),
			TID:  uint16(rng.Uint32()), // full range
			Time: mem.Time(rng.Uint64() >> uint(rng.Intn(64))),
			Addr: mem.Addr(rng.Uint64() >> uint(rng.Intn(64))),
			Size: rng.Uint32() >> uint(rng.Intn(32)),
		}
		if rng.Intn(8) == 0 {
			e.Size = 0 // zero-size store
		}
		if rng.Intn(16) == 0 {
			e.Time = 1<<64 - 1 // forces a maximal backward delta next event
		}
		tr.Append(e)
	}
	return tr
}

func tracesEqual(t *testing.T, ctx string, want, got *Trace) {
	t.Helper()
	if got.App != want.App || got.Layer != want.Layer || got.Threads != want.Threads {
		t.Fatalf("%s: metadata mismatch: got %q/%q/%d want %q/%q/%d", ctx,
			got.App, got.Layer, got.Threads, want.App, want.Layer, want.Threads)
	}
	if got.VolatileLoads != want.VolatileLoads || got.VolatileStores != want.VolatileStores {
		t.Fatalf("%s: volatile counters mismatch: got %d/%d want %d/%d", ctx,
			got.VolatileLoads, got.VolatileStores, want.VolatileLoads, want.VolatileStores)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d events, want %d", ctx, got.Len(), want.Len())
	}
	gotEv := got.Events()
	for i, w := range want.Events() {
		if gotEv[i] != w {
			t.Fatalf("%s: event %d = %+v, want %+v", ctx, i, gotEv[i], w)
		}
	}
}

// readerMaterialize drains a Reader into a Trace, the way the streaming
// pipeline would.
func readerMaterialize(t *testing.T, r io.Reader) *Trace {
	t.Helper()
	rd, err := NewReader(r)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	m := rd.Meta()
	tr := &Trace{App: m.App, Layer: m.Layer, Threads: m.Threads}
	for {
		e, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		tr.Append(e)
	}
	tr.VolatileLoads, tr.VolatileStores = rd.Volatile()
	return tr
}

// TestPropertyRoundTrip is the codec property test: for random valid
// traces — all kinds, extreme deltas, zero-size stores, empty traces —
// EncodeV2→Decode and Writer→Reader must both reproduce the input exactly.
func TestPropertyRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 2, 17, 1000, DefaultBlockEvents, 2*DefaultBlockEvents + 37}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range sizes {
			orig := genTrace(rng, n)

			var v2 bytes.Buffer
			if err := EncodeV2(&v2, NewSliceSource(orig)); err != nil {
				t.Fatalf("seed %d n %d: EncodeV2: %v", seed, n, err)
			}
			got, err := Decode(bytes.NewReader(v2.Bytes()))
			if err != nil {
				t.Fatalf("seed %d n %d: Decode: %v", seed, n, err)
			}
			tracesEqual(t, "EncodeV2/Decode", orig, got)

			// Writer→Reader, event by event.
			tracesEqual(t, "Writer/Reader", orig, readerMaterialize(t, bytes.NewReader(v2.Bytes())))
		}
	}
}

func TestWriterStreamsIncrementally(t *testing.T) {
	// The writer must emit framed blocks as events arrive, not hold the
	// stream until Close: after DefaultBlockEvents+1 events at least one
	// full block (tag+frame+payload) must be on the wire.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{App: "x", Layer: "native", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	headerLen := buf.Len()
	for i := 0; i < DefaultBlockEvents+1; i++ {
		if err := w.Write(Event{Kind: KStore, Time: mem.Time(i), Addr: mem.PMBase, Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() <= headerLen+DefaultBlockEvents {
		t.Fatalf("no block flushed after %d events (%d bytes on wire)", DefaultBlockEvents+1, buf.Len())
	}
	if err := w.Close(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(0, 0); err == nil {
		t.Fatal("second Close accepted")
	}
	if err := w.Write(Event{}); err == nil {
		t.Fatal("Write after Close accepted")
	}
}

func TestWriterRejectsInvalidKind(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{}, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Event{Kind: Kind(maxKind + 1)}); err == nil {
		t.Fatal("Writer accepted out-of-range kind")
	}
}

// --- Malformed-input tables ----------------------------------------------

// appendUvarint / appendVarint build raw frames for adversarial tests.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// v3Header returns a valid v3 stream header.
func v3Header() []byte {
	var b []byte
	b = append(b, magic...)
	b = append(b, version)
	b = appendString(b, "a")
	b = appendString(b, "native")
	b = appendUvarint(b, 1)
	return b
}

// rawHead spells the head of an event of the given kind and TID: escaped
// when esc is set, as pack spells a TID of inlineTIDs or more (and as only
// a kind past maxKind can be spelled), with addrBit when addr is set.
func rawHead(kind byte, tid uint64, esc, addr bool) []byte {
	n, t := kind, byte(tid)
	if esc {
		n, t = escape+kind>>3, kind&7
	}
	h := t<<4 | n
	if addr {
		h |= addrBit
	}
	b := []byte{h}
	if esc {
		b = appendUvarint(b, tid)
	}
	return b
}

// rawEvent encodes one event payload with explicit raw fields, its address
// delta always spelled: the kind and TID in the head when they fit there,
// escaped otherwise.
func rawEvent(kind byte, tid uint64, dt, da int64, size uint64) []byte {
	b := rawHead(kind, tid, tid >= inlineTIDs || kind > maxKind, true)
	b = appendVarint(b, dt)
	b = appendVarint(b, da)
	return appendUvarint(b, size)
}

// rawBlock frames a block with explicit count/len/crc so tests can lie.
func rawBlock(count, payloadLen uint64, payload []byte, crc uint32) []byte {
	var b []byte
	b = append(b, tagBlock)
	b = appendUvarint(b, count)
	b = appendUvarint(b, payloadLen)
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc)
	return b
}

// rawTrailer frames a trailer with explicit totals and crc.
func rawTrailer(vloads, vstores, total uint64, fixCRC bool, crc uint32) []byte {
	var b []byte
	b = append(b, tagTrailer)
	var tb []byte
	tb = appendUvarint(tb, vloads)
	tb = appendUvarint(tb, vstores)
	tb = appendUvarint(tb, total)
	b = append(b, tb...)
	if fixCRC {
		crc = crc32.ChecksumIEEE(tb)
	}
	return binary.LittleEndian.AppendUint32(b, crc)
}

func okBlock(events ...[]byte) []byte {
	var payload []byte
	for _, e := range events {
		payload = append(payload, e...)
	}
	return rawBlock(uint64(len(events)), uint64(len(payload)), payload, crc32.ChecksumIEEE(payload))
}

// TestV2RejectsMalformed is the table of adversarial v3 inputs: each must
// produce a descriptive error — never a panic, a silent acceptance, or a
// large allocation.
func TestV2RejectsMalformed(t *testing.T) {
	ev := rawEvent(byte(KStore), 0, 10, 1<<32, 8)
	good := okBlock(ev)

	cases := []struct {
		name    string
		stream  []byte
		wantErr string
	}{
		{
			name:    "missing trailer",
			stream:  append(v3Header(), good...),
			wantErr: "frame tag",
		},
		{
			name:    "unknown frame tag",
			stream:  append(v3Header(), 0x7f),
			wantErr: "unknown frame tag",
		},
		{
			name:    "empty block",
			stream:  append(v3Header(), rawBlock(0, 0, nil, 0)...),
			wantErr: "empty block",
		},
		{
			name:    "count beyond cap",
			stream:  append(v3Header(), rawBlock(maxBlockEvents+1, maxBlockBytes, nil, 0)...),
			wantErr: "claims",
		},
		{
			name:    "payload beyond cap",
			stream:  append(v3Header(), rawBlock(1, maxBlockBytes+1, nil, 0)...),
			wantErr: "claims",
		},
		{
			name:    "lying count vs payload",
			stream:  append(v3Header(), rawBlock(uint64(len(ev)/minEventBytes+2), uint64(len(ev)), ev, crc32.ChecksumIEEE(ev))...),
			wantErr: "claims",
		},
		{
			name: "corrupted payload crc",
			stream: func() []byte {
				b := append(v3Header(), rawBlock(1, uint64(len(ev)), ev, crc32.ChecksumIEEE(ev)^0xdeadbeef)...)
				return append(b, rawTrailer(0, 0, 1, true, 0)...)
			}(),
			wantErr: "crc mismatch",
		},
		{
			name: "flipped payload byte",
			stream: func() []byte {
				bad := append([]byte(nil), ev...)
				bad[0] ^= 0x40
				b := append(v3Header(), rawBlock(1, uint64(len(bad)), bad, crc32.ChecksumIEEE(ev))...)
				return append(b, rawTrailer(0, 0, 1, true, 0)...)
			}(),
			wantErr: "crc mismatch",
		},
		{
			name: "invalid kind in block",
			stream: func() []byte {
				bad := rawEvent(maxKind+1, 0, 0, 0, 0)
				return append(v3Header(), okBlock(bad)...)
			}(),
			wantErr: "invalid kind",
		},
		{
			name: "tid past 16 bits",
			stream: func() []byte {
				b := append(v3Header(), okBlock(ev, rawEvent(byte(KStore), 1<<16, 1, 0, 8))...)
				return append(b, rawTrailer(0, 0, 2, true, 0)...)
			}(),
			wantErr: "block event 1: tid 65536 out of range",
		},
		{
			name: "escaped tid cut short",
			stream: func() []byte {
				b := append(v3Header(), okBlock(rawHead(byte(KStore), 1<<14, true, false)[:3])...)
				return append(b, rawTrailer(0, 0, 1, true, 0)...)
			}(),
			wantErr: "block event 0: bad tid varint",
		},
		{
			name: "address cut short",
			stream: func() []byte {
				b := append(v3Header(), okBlock(append(rawHead(byte(KStore), 0, false, true), 2, 0x80, 0x80))...)
				return append(b, rawTrailer(0, 0, 1, true, 0)...)
			}(),
			wantErr: "block event 0: bad addr varint",
		},
		{
			name: "size past 32 bits",
			stream: func() []byte {
				b := append(v3Header(), okBlock(rawEvent(byte(KStore), 0, 1, 0, 1<<32+8))...)
				return append(b, rawTrailer(0, 0, 1, true, 0)...)
			}(),
			wantErr: "block event 0: size 4294967304 out of range",
		},
		{
			name: "trailing payload bytes",
			stream: func() []byte {
				payload := append(append([]byte(nil), ev...), 0x00, 0x00, 0x00, 0x00, 0x00)
				return append(v3Header(), rawBlock(1, uint64(len(payload)), payload, crc32.ChecksumIEEE(payload))...)
			}(),
			wantErr: "trailing payload",
		},
		{
			name: "count larger than events in payload",
			stream: func() []byte {
				payload := append(append([]byte(nil), ev...), ev...)
				return append(v3Header(), rawBlock(3, uint64(len(payload)), payload, crc32.ChecksumIEEE(payload))...)
			}(),
			wantErr: "payload exhausted",
		},
		{
			name:    "truncated block payload",
			stream:  append(v3Header(), append([]byte{tagBlock, 1, 20}, ev...)...),
			wantErr: "block",
		},
		{
			name: "trailer count mismatch",
			stream: func() []byte {
				b := append(v3Header(), good...)
				return append(b, rawTrailer(0, 0, 99, true, 0)...)
			}(),
			wantErr: "trailer claims",
		},
		{
			name: "trailer crc mismatch",
			stream: func() []byte {
				b := append(v3Header(), good...)
				return append(b, rawTrailer(7, 8, 1, false, 0x12345678)...)
			}(),
			wantErr: "crc mismatch",
		},
		{
			name:    "truncated trailer",
			stream:  append(append(v3Header(), good...), tagTrailer, 0x80),
			wantErr: "trailer",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(bytes.NewReader(tc.stream))
			if err == nil {
				t.Fatalf("malformed stream accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestReaderRejectsInvalidKind checks that a head spelling a kind outside
// the known range is refused inside a block whose framing and CRC are
// valid: an escaped kind past maxKind, and a kind nibble that is neither a
// kind nor an escape.
func TestReaderRejectsInvalidKind(t *testing.T) {
	for _, tc := range []struct {
		ev   []byte
		kind int
	}{
		{rawEvent(maxKind+1, 0, 1, 1, 8), int(maxKind) + 1},
		{rawEvent(15, 9, 1, 1, 8), 15},
		{[]byte{escape + 2, 2, 16}, int(escape) + 2},
		{[]byte{0xff, 9, 2, 2, 16}, 15},
	} {
		b := append(v3Header(), okBlock(tc.ev)...)
		b = append(b, rawTrailer(0, 0, 1, true, 0)...)
		_, err := Decode(bytes.NewReader(b))
		if err == nil {
			t.Fatalf("Decode accepted % x", tc.ev)
		}
		if want := fmt.Sprintf("invalid kind %d", tc.kind); !strings.Contains(err.Error(), want) {
			t.Fatalf("% x: error %q does not say %s", tc.ev, err, want)
		}
	}
}

// TestReaderStickyError ensures a corrupt stream keeps failing rather
// than resynchronizing on garbage.
func TestReaderStickyError(t *testing.T) {
	stream := append(v3Header(), 0x7f)
	rd, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err == nil {
		t.Fatal("first Next succeeded on garbage")
	}
	if _, err := rd.Next(); err == nil || err == io.EOF {
		t.Fatalf("error not sticky: %v", err)
	}
}
