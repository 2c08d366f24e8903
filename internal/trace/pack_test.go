package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
)

// adversarialEvents cycles every kind through the fields' extremes: TIDs 0
// and 0xFFFF, sizes 0 and MaxUint32, and times and addresses that jump
// between 0 and 2^64-1, so their deltas wrap 2^64 both ways.
func adversarialEvents(n int) []Event {
	edges := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 1, 1 << 63, 0}
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Kind: Kind(i % (int(maxKind) + 1)),
			TID:  []uint16{0, 0xFFFF, 0x80}[i%3],
			Size: []uint32{0, math.MaxUint32, 64}[i%3],
			Time: mem.Time(edges[i%len(edges)]),
			Addr: mem.Addr(edges[(i+3)%len(edges)]),
		}
	}
	return events
}

// TestPackedTraceRoundTripsAdversarialEvents sends the adversarial events
// through the in-memory codec, Append → SliceSource, and through the file,
// Encode → Decode: both must give them back exactly, in sealed blocks and
// in the open one.
func TestPackedTraceRoundTripsAdversarialEvents(t *testing.T) {
	want := adversarialEvents(2*DefaultBlockEvents + 11)
	tr := appended(&Trace{App: "adv", Layer: "native", Threads: 3}, want)
	if len(tr.sealed.blocks) != 2 || len(tr.open) != 11 {
		t.Fatalf("%d sealed blocks and %d open events, want 2 and 11", len(tr.sealed.blocks), len(tr.open))
	}
	if got := tr.Events(); !slices.Equal(got, want) {
		t.Fatalf("Append → SliceSource gave back %d events that differ from the %d appended", len(got), len(want))
	}
	decoded, err := Decode(bytes.NewReader(traceBytes(t, tr)))
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded.Events(); !slices.Equal(got, want) {
		t.Fatalf("Encode → Decode gave back %d events that differ from the %d appended", len(got), len(want))
	}
}

// TestEncodeIsTheWritersBytes: a trace encodes to what a Writer makes of
// its events, whether it was collected from a tail, appended
// to, or decoded from a file whose blocks are not the Writer's —
// of 3 and 5 000 events, the second with an escaped TID of 1 — whose
// events Encode packs and frames afresh.
func TestEncodeIsTheWritersBytes(t *testing.T) {
	events := genTrace(rand.New(rand.NewSource(5)), 3*DefaultBlockEvents+100).Events()
	// The second block's first event, whose TID the file spells overlong.
	events[3] = Event{Kind: KStore, TID: 1, Time: 5, Addr: 7, Size: 8}

	live := &Trace{App: "rec", Layer: "nvml", Threads: 4}
	tl := live.Tail()
	go func() {
		for _, e := range events {
			live.Append(e)
		}
		live.VolatileLoads = 9
		tl.Close(nil)
	}()
	recorded, err := Collect(Fanout(tl, 1)[0])
	if err != nil {
		t.Fatal(err)
	}

	var file []byte
	file = append(file, v3Header()...)
	three := pack(nil, events[:3])
	file = append(file, rawBlock(3, uint64(len(three)), three, crc32.ChecksumIEEE(three))...)
	big := pack(nil, events[3:5003])
	// Its TID, 1, escaped: spelled after the head, as a TID of inlineTIDs
	// or more is.
	escaped := append(rawHead(byte(KStore), 1, true, true), big[1:]...)
	file = append(file, rawBlock(5000, uint64(len(escaped)), escaped, crc32.ChecksumIEEE(escaped))...)
	file = append(file, rawTrailer(0, 0, 5003, true, 0)...)
	fromFile, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got := fromFile.Events(); !slices.Equal(got, events[:5003]) {
		t.Fatalf("the hand-framed file decodes to %d events that differ from the %d framed", len(got), 5003)
	}

	for name, tr := range map[string]*Trace{
		"recorded": recorded,
		"appended": appended(&Trace{App: "fe", Layer: "native", Threads: 2}, events),
		"decoded":  fromFile,
	} {
		got := traceBytes(t, tr)
		if !bytes.Equal(got, writerBytes(t, tr)) {
			t.Errorf("%s: Encode differs from the Writer", name)
		}
		if name == "decoded" && bytes.Equal(got, file) {
			t.Errorf("%s: Encode wrote the file's own blocks back", name)
		}
	}
}

// spell appends v as a varint of n bytes, n at least its minimal length:
// overlong past that, ending in a zero byte (or n = 10 and a last byte
// that overflows, which a reader must refuse).
func spell(dst []byte, v uint64, n int) []byte {
	for i := 0; i < n-1; i++ {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// unpackByField is unpack without its fast path: unpackEvent, event by
// event.
func unpackByField(n int, p []byte) ([]Event, bool, error) {
	out := make([]Event, n)
	pos := 0
	var prevTime, prevAddr, odd uint64
	for i := range out {
		f, next, err := unpackEvent(p, pos, i)
		if err != nil {
			return nil, false, err
		}
		pos = next
		prevTime += uint64(int64(f.dt>>1) ^ -int64(f.dt&1))
		e := Event{Kind: Kind(f.kind), TID: uint16(f.tid), Time: memTime(prevTime), Size: uint32(f.size)}
		if f.has == 1 {
			prevAddr += uint64(int64(f.da>>1) ^ -int64(f.da&1))
			e.Addr = memAddr(prevAddr)
			if prevAddr == 0 {
				odd = 1
			}
		}
		odd |= f.odd
		out[i] = e
	}
	if pos != len(p) {
		return nil, false, fmt.Errorf("trace: block has %d trailing payload bytes", len(p)-pos)
	}
	return out, odd == 0, nil
}

// respell is pack with two of its choices made by the caller, to frame
// payloads pack never writes: event i's TID is escaped when esc(i), and
// its address spelled, as a delta from the last one spelled, when
// addr(i) or its Addr is not 0.
func respell(block []Event, esc, addr func(i int) bool) []byte {
	var p []byte
	var prevTime, prevAddr uint64
	for i, e := range block {
		escaped := esc(i) || e.TID >= inlineTIDs
		spelled := addr(i) || e.Addr != 0
		p = append(p, rawHead(byte(e.Kind), uint64(e.TID), escaped, spelled)...)
		p = binary.AppendVarint(p, int64(uint64(e.Time)-prevTime))
		if spelled {
			p = binary.AppendVarint(p, int64(uint64(e.Addr)-prevAddr))
			prevAddr = uint64(e.Addr)
		}
		p = binary.AppendUvarint(p, uint64(e.Size))
		prevTime = uint64(e.Time)
	}
	return p
}

// never is a respell choice that keeps pack's.
func never(int) bool { return false }

// TestPackRoundTripsEdgeValues holds the codec to being lossless and
// canonical at every edge of its layout: for every known kind, TIDs 0, the
// last inline one, the first escaped one and 0xFFFF; Addr 0 and not, on
// every kind (a store at 0, a fence with an address); sizes 0 and
// 2^32-1; and time and address deltas that wrap 2^64 both ways. Each
// block must unpack, on both paths, to its events, and be canonical.
func TestPackRoundTripsEdgeValues(t *testing.T) {
	tids := []uint16{0, inlineTIDs - 1, inlineTIDs, 0xFFFF}
	sizes := []uint32{0, math.MaxUint32}
	wraps := []uint64{0, math.MaxUint64, 1, math.MaxUint64 - 1, 1 << 63}
	checked := 0
	for k := Kind(0); k <= Kind(maxKind); k++ {
		for _, tid := range tids {
			for _, size := range sizes {
				for _, addr := range []uint64{0, 1, math.MaxUint64} {
					// The event under test between neighbours whose time
					// and address sit across the wrap from it, each
					// neighbour addressed or not.
					var block []Event
					for i, w := range wraps {
						block = append(block,
							Event{Kind: KStore, TID: uint16(i), Time: memTime(w), Addr: memAddr(w * uint64(i%2)), Size: 8},
							Event{Kind: k, TID: tid, Time: memTime(^w), Addr: memAddr(addr), Size: size})
					}
					p := pack(nil, block)
					got := make([]Event, len(block))
					canon, err := unpack(got, p)
					if err != nil || !canon || !slices.Equal(got, block) {
						t.Fatalf("%v tid %d size %d addr %#x: unpack(pack) = %v, canonical %v, %v", k, tid, size, addr, got, canon, err)
					}
					byField, canon, err := unpackByField(len(block), p)
					if err != nil || !canon || !slices.Equal(byField, block) {
						t.Fatalf("%v tid %d size %d addr %#x: by field: %v, canonical %v, %v", k, tid, size, addr, byField, canon, err)
					}
					checked++
				}
			}
		}
	}
	if want := (int(maxKind) + 1) * 4 * 2 * 3; checked != want {
		t.Fatalf("checked %d blocks, want %d", checked, want)
	}
}

// TestPackedUnknownKindFailsToUnpack: a sealed block holding an event of
// no known kind — the race build's KReleased, the first past maxKind and
// so an escape nibble if packed as it is, or any other — fails to unpack,
// with an inline TID or an escaped one, as Trace.Append promises.
func TestPackedUnknownKindFailsToUnpack(t *testing.T) {
	for _, k := range []Kind{KReleased, KReleased + 1, 15, 16, 200, 255} {
		for _, tid := range []uint16{3, 300} {
			tr := countingTrace(DefaultBlockEvents - 1)
			tr.Append(Event{Kind: k, TID: tid, Time: 1, Addr: 64, Size: 8})
			tr.Append(Event{Kind: KFence})
			if _, err := NewSliceSource(tr).NextChunk(); err == nil || !strings.Contains(err.Error(), "invalid kind") {
				t.Errorf("kind %d, tid %d: unpack said %v, want an invalid kind", k, tid, err)
			}
		}
	}
}

// TestUnpackMatchesFieldByField holds unpack's word-wide fast path to the
// field-by-field decoder on payloads whose every field is spelled in one to
// ten bytes, minimal or not, of every magnitude, behind heads inline,
// escaped or of no kind, with and without an address (some landing on 0),
// some with a byte overwritten, cut short or run on: the same events, or
// the same error. Of an accepted payload, both must say whether it is
// pack's.
func TestUnpackMatchesFieldByField(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	// A value of about b bits, b from 0 to 64.
	value := func() uint64 {
		b := rng.Intn(65)
		if b == 0 {
			return 0
		}
		return rng.Uint64() >> (64 - b)
	}
	minLen := func(v uint64) int { return len(binary.AppendUvarint(nil, v)) }
	field := func(dst []byte, v uint64) []byte {
		n := minLen(v)
		if rng.Intn(8) == 0 {
			n += rng.Intn(11 - n)
		}
		return spell(dst, v, n)
	}
	// small is v, mostly cut to seven bits, as recorded fields are.
	small := func(v uint64) uint64 {
		if rng.Intn(3) == 0 {
			return v & 0x7F
		}
		return v
	}
	var accepted, refused, packs, escapes, zeros int
	for round := 0; round < 20000; round++ {
		n := 1 + rng.Intn(24)
		var p []byte
		var addr uint64 // the address the last spelled delta lands on
		for range n {
			kind := byte(rng.Intn(int(maxKind) + 1))
			tid := uint64(rng.Intn(inlineTIDs))
			esc, has := rng.Intn(4) == 0, rng.Intn(3) != 0
			if esc {
				escapes++
				tid = value()
				if rng.Intn(64) != 0 {
					tid &= 0xFFFF // nearly always a TID an Event holds
				}
				if rng.Intn(4) == 0 {
					tid &= 7 // and often one that fits the head
				}
			}
			h := rawHead(kind, tid, esc, has)[0]
			if rng.Intn(48) == 0 {
				h = byte(rng.Intn(256)) // any head at all
			}
			p = append(p, h)
			if esc {
				p = field(p, tid)
			}
			p = field(p, small(value()))
			if has {
				da := small(value())
				if rng.Intn(16) == 0 {
					zeros++
					back := -int64(addr) // lands on 0
					da = uint64(back<<1) ^ uint64(back>>63)
				}
				addr += uint64(int64(da>>1) ^ -int64(da&1))
				p = field(p, da)
			}
			size := small(value())
			if rng.Intn(64) != 0 {
				size &= math.MaxUint32
			}
			p = field(p, size)
		}
		switch rng.Intn(6) {
		case 0:
			p[rng.Intn(len(p))] = byte(rng.Intn(256))
		case 1:
			p = p[:rng.Intn(len(p))]
		case 2:
			p = append(p, byte(rng.Intn(256)))
		}
		want, wantCanon, wantErr := unpackByField(n, p)
		got := make([]Event, n)
		gotCanon, gotErr := unpack(got, p)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || wantErr == nil && (!slices.Equal(got, want) || gotCanon != wantCanon) {
			t.Fatalf("round %d: payload % x\nunpack: %v %v %v\nby field: %v %v %v", round, p, got, gotCanon, gotErr, want, wantCanon, wantErr)
		}
		if wantErr == nil {
			accepted++
			isPacks := bytes.Equal(p, pack(nil, got))
			if gotCanon != isPacks {
				t.Fatalf("round %d: payload % x: canonical = %v, pack's = %v", round, p, gotCanon, isPacks)
			}
			if isPacks {
				packs++
			}
		} else {
			refused++
		}
	}
	if accepted < 5000 || refused < 5000 || packs < 500 || accepted-packs < 500 || escapes < 5000 || zeros < 5000 {
		t.Fatalf("%d payloads accepted (%d of them pack's) and %d refused, %d escaped TIDs and %d addresses landing on 0: want every kind exercised",
			accepted, packs, refused, escapes, zeros)
	}
}
