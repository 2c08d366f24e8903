package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
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
// of 3 and 5 000 events, the second with an overlong varint — whose
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
	file = append(file, v2Header()...)
	three := pack(nil, events[:3])
	file = append(file, rawBlock(3, uint64(len(three)), three, crc32.ChecksumIEEE(three))...)
	big := pack(nil, events[3:5003])
	// Its TID, 1, as an overlong varint: the same value in two bytes.
	overlong := append([]byte{big[0], 0x81, 0}, big[2:]...)
	file = append(file, rawBlock(5000, uint64(len(overlong)), overlong, crc32.ChecksumIEEE(overlong))...)
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
func unpackByField(n int, p []byte) ([]Event, error) {
	out := make([]Event, n)
	pos := 0
	var prevTime, prevAddr uint64
	for i := range out {
		kind, tid, dt, da, size, next, err := unpackEvent(p, pos, i)
		if err != nil {
			return nil, err
		}
		pos = next
		prevTime += uint64(int64(dt>>1) ^ -int64(dt&1))
		prevAddr += uint64(int64(da>>1) ^ -int64(da&1))
		out[i] = Event{Kind: Kind(kind), TID: uint16(tid), Time: memTime(prevTime), Addr: memAddr(prevAddr), Size: uint32(size)}
	}
	if pos != len(p) {
		return nil, fmt.Errorf("trace: block has %d trailing payload bytes", len(p)-pos)
	}
	return out, nil
}

// TestUnpackMatchesFieldByField holds unpack's word-wide fast path to the
// field-by-field decoder on payloads whose every field is spelled in one to
// ten bytes, minimal or not, of every magnitude, some with a byte
// overwritten, cut short or run on: the same events, or the same error.
// Of an accepted payload, canonical must say whether it is pack's.
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
	var accepted, refused, packs int
	for round := 0; round < 20000; round++ {
		n := 1 + rng.Intn(24)
		var p []byte
		for range n {
			p = append(p, byte(rng.Intn(int(maxKind)+1)))
			for f := range 4 {
				v := value()
				switch {
				case f == 0 && rng.Intn(64) != 0:
					v &= 0xFFFF // nearly always a TID an Event holds
				case f == 3 && rng.Intn(64) != 0:
					v &= math.MaxUint32
				case rng.Intn(3) == 0:
					v &= 0x7F // and many one-byte fields, as recorded
				}
				p = field(p, v)
			}
		}
		switch rng.Intn(6) {
		case 0:
			p[rng.Intn(len(p))] = byte(rng.Intn(256))
		case 1:
			p = p[:rng.Intn(len(p))]
		case 2:
			p = append(p, byte(rng.Intn(256)))
		}
		want, wantErr := unpackByField(n, p)
		got, gotErr := unpack(make([]Event, n), p)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("round %d: payload % x\nunpack: %v %v\nby field: %v %v", round, p, got, gotErr, want, wantErr)
		}
		if wantErr == nil {
			accepted++
			isPacks := bytes.Equal(p, pack(nil, got))
			if canonical(p) != isPacks {
				t.Fatalf("round %d: payload % x: canonical = %v, pack's = %v", round, p, !isPacks, isPacks)
			}
			if isPacks {
				packs++
			}
		} else {
			refused++
		}
	}
	if accepted < 5000 || refused < 5000 || packs < 500 || accepted-packs < 500 {
		t.Fatalf("%d payloads accepted (%d of them pack's) and %d refused: want every kind exercised", accepted, packs, refused)
	}
}
