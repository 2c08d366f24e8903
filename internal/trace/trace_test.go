package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/whisper-pm/whisper/internal/mem"
)

// writerBytes is what a Writer makes of t's events, one Write each.
func writerBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{App: tr.App, Layer: tr.Layer, Threads: tr.Threads})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(tr.VolatileLoads, tr.VolatileStores); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceBytes is t.Encode's output.
func traceBytes(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Equal reports whether a and b hold the same run metadata, volatile
// counters and event sequence.
func Equal(a, b *Trace) bool {
	if a.App != b.App || a.Layer != b.Layer || a.Threads != b.Threads ||
		a.VolatileLoads != b.VolatileLoads || a.VolatileStores != b.VolatileStores || a.n != b.n {
		return false
	}
	return slices.Equal(a.Events(), b.Events())
}

func sampleTrace() *Trace {
	t := &Trace{App: "echo", Layer: "native", Threads: 4,
		VolatileLoads: 1000, VolatileStores: 500}
	t.Append(Event{Time: 10, TID: 0, Kind: KTxBegin})
	t.Append(Event{Time: 12, Addr: mem.PMBase + 64, Size: 8, TID: 0, Kind: KStore})
	t.Append(Event{Time: 14, Addr: mem.PMBase + 64, Size: 8, TID: 0, Kind: KFlush})
	t.Append(Event{Time: 20, TID: 0, Kind: KFence})
	t.Append(Event{Time: 25, Addr: mem.PMBase + 128, Size: 16, TID: 1, Kind: KStoreNT})
	t.Append(Event{Time: 30, TID: 1, Kind: KFence})
	t.Append(Event{Time: 31, Addr: mem.PMBase + 64, Size: 8, TID: 0, Kind: KLoad})
	t.Append(Event{Time: 40, TID: 0, Kind: KTxEnd})
	return t
}

func TestCodecRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, NewSliceSource(orig)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !Equal(orig, got) {
		t.Fatalf("round trip mismatch:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := &Trace{App: "rand", Layer: "nvml", Threads: 8}
	for i := 0; i < 5000; i++ {
		orig.Append(Event{
			Time: mem.Time(rng.Uint64() % (1 << 40)),
			Addr: mem.Addr(rng.Uint64() % (1 << 44)),
			Size: rng.Uint32() % 4096,
			TID:  uint16(rng.Intn(8)),
			Kind: Kind(rng.Intn(int(KUserData) + 1)),
		})
	}
	var buf bytes.Buffer
	if err := EncodeSource(&buf, NewSliceSource(orig)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !Equal(orig, got) {
		t.Fatal("random round trip mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a trace at all")); err == nil {
		t.Error("Decode accepted garbage")
	}
	if _, err := Decode(strings.NewReader("WSPR")); err == nil {
		t.Error("Decode accepted truncated header")
	}
	if _, err := Decode(strings.NewReader("WSPR\x63")); err == nil {
		t.Error("Decode accepted wrong version")
	}
}

func TestDecodeRejectsTruncatedEvents(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, NewSliceSource(orig)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Inside the trailer's CRC, and inside the one block's events.
	for _, cut := range []int{len(raw) - 3, len(raw) / 2} {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("Decode accepted a stream cut at %d of %d bytes", cut, len(raw))
		}
	}
}

// TestDecodeAbsurdCountDoesNotPreallocate feeds a syntactically valid
// header followed by a block whose count claims 2^60 events and no event
// bytes. A decoder that trusted that uvarint and pre-allocated the whole
// slice would let a 30-byte file trigger a multi-exabyte allocation
// request before the first event read failed. Decode must instead refuse
// the claim with bounded memory use.
func TestDecodeAbsurdCountDoesNotPreallocate(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Meta{App: "x", Layer: "native", Threads: 1}); err != nil {
		t.Fatal(err)
	}
	raw := append(buf.Bytes(), tagBlock)
	raw = binary.AppendUvarint(raw, 1<<60)
	raw = binary.AppendUvarint(raw, 0)

	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("Decode accepted a 2^60-event block with no event bytes")
	}
}

// TestDecodeRejectsAbsurdThreadCount feeds headers whose thread-count
// uvarint claims one thread more than a TID can name, 2^40 or 2^63
// threads. The count used
// to be cast straight to int: consumers sizing per-TID state from
// Meta.Threads would trust it, and values >= 2^63 wrapped negative on
// 64-bit platforms. The reader must reject it like it already rejects
// unreasonable string lengths and block counts.
func TestDecodeRejectsAbsurdThreadCount(t *testing.T) {
	for _, claim := range []uint64{maxThreads + 1, 1 << 40, 1 << 63} {
		var raw []byte
		raw = append(raw, magic...)
		raw = append(raw, version)
		raw = append(raw, 0, 0) // empty app + layer strings
		raw = binary.AppendUvarint(raw, claim)
		_, err := NewReader(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("NewReader accepted a %d-thread header", claim)
		}
		if !strings.Contains(err.Error(), "thread count") {
			t.Fatalf("error %q does not name the thread count", err)
		}
	}
	// The bound itself must round-trip: a trace at maxThreads is honest.
	var buf bytes.Buffer
	ok := &Trace{App: "x", Layer: "native", Threads: maxThreads}
	if err := EncodeSource(&buf, NewSliceSource(ok)); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode at the bound: %v", err)
	}
	if got.Threads != maxThreads {
		t.Fatalf("Threads = %d, want %d", got.Threads, maxThreads)
	}
}

// TestDecodeLargeHonestTrace checks that a trace of many blocks still
// round-trips.
func TestDecodeLargeHonestTrace(t *testing.T) {
	orig := &Trace{App: "big", Layer: "native", Threads: 1}
	for i := 0; i < 16*DefaultBlockEvents+100; i++ {
		orig.Append(Event{Time: mem.Time(i), Addr: mem.PMBase + mem.Addr(i*8), Size: 8, Kind: KStore})
	}
	var buf bytes.Buffer
	if err := EncodeSource(&buf, NewSliceSource(orig)); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), orig.Len())
	}
	if !slices.Equal(orig.Events(), got.Events()) {
		t.Fatal("events past the first block corrupted")
	}
}

// TestCodecRoundTripAdversarialFields round-trips events whose fields sit
// at the encoding's edges: the lowest and highest thread IDs, a TID that
// needs a multi-byte varint, time and address deltas that run backwards,
// and maximum sizes. Delta encoding must reproduce them all exactly.
func TestCodecRoundTripAdversarialFields(t *testing.T) {
	orig := &Trace{App: "adv", Layer: "native", Threads: 2}
	orig.Append(Event{Time: 1 << 50, Addr: mem.Addr(1<<63 + 7), Size: 1<<32 - 1, TID: 0xFFFF, Kind: KStore})
	orig.Append(Event{Time: 0, Addr: 0, Size: 0, TID: 0, Kind: KLoad})       // both deltas go backwards
	orig.Append(Event{Time: 1<<64 - 1, Addr: 1<<64 - 1, Size: 1, TID: 0x80}) // max deltas forward
	orig.Append(Event{Time: 5, Addr: 3, Size: 1<<32 - 1, TID: 0, Kind: KUserData})
	var buf bytes.Buffer
	if err := EncodeSource(&buf, NewSliceSource(orig)); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(orig, got) {
		t.Fatalf("adversarial round trip mismatch:\norig %+v\ngot  %+v", orig, got)
	}
}

func TestKindString(t *testing.T) {
	if KStore.String() != "store" || KFence.String() != "fence" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should include numeric value")
	}
}

// TestEventIs24Bytes pins the record every retained trace is made of: 23
// bytes of fields, the 16-bit TID in what was padding, in 24. A field
// that grows the record costs every trace a quarter more (32 bytes).
func TestEventIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 24", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 5, TID: 2, Kind: KFence}
	if !strings.Contains(e.String(), "fence") {
		t.Errorf("event string %q missing kind", e.String())
	}
	s := Event{Time: 5, TID: 2, Kind: KStore, Addr: mem.PMBase, Size: 8}.String()
	if !strings.Contains(s, "pm") {
		t.Errorf("store string %q missing region", s)
	}
}

// countingTrace returns a trace of n events whose Time is their index.
func countingTrace(n int) *Trace {
	t := &Trace{App: "store", Layer: "native", Threads: 1}
	for i := 0; i < n; i++ {
		t.Append(Event{Time: mem.Time(i), Addr: mem.PMBase + mem.Addr(i*8), Size: 8, Kind: KStore})
	}
	return t
}

// appended appends events to tr and returns it.
func appended(tr *Trace, events []Event) *Trace {
	for _, e := range events {
		tr.Append(e)
	}
	return tr
}

// TestStoreReadSurfacesAgree pins the block store at its boundaries: Len,
// a SliceSource and a codec round trip must all yield the appended
// sequence, every sealed block holds DefaultBlockEvents events and the
// open one fewer or as many, and Encode writes the Writer's bytes.
func TestStoreReadSurfacesAgree(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBlockEvents - 1, DefaultBlockEvents, DefaultBlockEvents + 1, 3*DefaultBlockEvents + 7} {
		tr := countingTrace(n)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if sealed := len(tr.sealed.blocks); sealed != max(n-1, 0)/DefaultBlockEvents || len(tr.open) != n-sealed*DefaultBlockEvents {
			t.Fatalf("n=%d: %d sealed blocks and %d open events", n, sealed, len(tr.open))
		}
		var chunks [][]Event
		for src := NewSliceSource(tr); ; {
			c, err := src.NextChunk()
			if err == io.EOF {
				break
			}
			if err != nil || len(c) == 0 {
				t.Fatalf("n=%d: NextChunk = %d events, %v", n, len(c), err)
			}
			chunks = append(chunks, c)
		}
		want := slices.Concat(chunks...)
		if len(want) != n {
			t.Fatalf("n=%d: the chunks hold %d events", n, len(want))
		}
		for i, e := range want {
			if e.Time != mem.Time(i) {
				t.Fatalf("n=%d: event %d carries time %d", n, i, e.Time)
			}
		}
		raw := traceBytes(t, tr)
		if !bytes.Equal(raw, writerBytes(t, tr)) {
			t.Fatalf("n=%d: Encode differs from the Writer", n)
		}
		decoded, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if got := decoded.Events(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: Encode/Decode yields %d events that differ from the %d appended", n, len(got), n)
		}
	}
}

// TestAppendNeverRecopies bounds what recording allocates: a long trace
// allocates about its packed size once, plus at most an arena it has not
// filled and the open block's ramp (a store that regrew would allocate its
// history several times over, and one of Events 24 bytes an event), and a
// litmus-sized trace stays small.
func TestAppendNeverRecopies(t *testing.T) {
	allocated := func(n int) (uint64, *Trace) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := countingTrace(n)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, tr
	}
	const n = 1_000_000
	got, tr := allocated(n)
	packed := len(traceBytes(t, tr))
	if limit := uint64(1.1*float64(packed)) + arenaBytes + 256<<10; got > limit {
		t.Errorf("appending %d events (%d bytes encoded) allocated %d bytes, want <= %d", n, packed, got, limit)
	}
	runtime.KeepAlive(tr)
	if got, tr = allocated(10); got >= 4<<10 {
		t.Errorf("a 10-event trace allocated %d bytes, want < 4 KiB", got)
	}
	runtime.KeepAlive(tr)
}

var sinkTrace *Trace

// BenchmarkTraceAppend is the recorder's cost per event: one op is a
// 1 M-event trace appended from empty, so ns/event and B/event include
// packing every block and every arena the store allocates along the way.
func BenchmarkTraceAppend(b *testing.B) {
	const n = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrace = countingTrace(n)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
}

// TestDecodeAdoptsBlocks pins what Decode allocates: at most one
// allocation per block it keeps, plus a constant and the block list's
// doubling, and at most 1.5 bytes an event past the file's own. A decoder
// that allocated each block's events as well as its payload would exceed
// both.
func TestDecodeAdoptsBlocks(t *testing.T) {
	decode := func(n int) (allocs, bytesPerEvent, fileBytesPerEvent float64) {
		raw := encoded(t, countingTrace(n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(3, func() {
			if _, err := Decode(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up run besides the three it counts.
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 4 / float64(n), float64(len(raw)) / float64(n)
	}
	const short, long = 8 * DefaultBlockEvents, 64 * DefaultBlockEvents
	shortAllocs, _, _ := decode(short)
	longAllocs, perEvent, filePerEvent := decode(long)
	// 56 more blocks, the block list doubles three more times, and the
	// runtime may allocate a little of its own while the runs are counted.
	if extra, want := longAllocs-shortAllocs, float64(long-short)/DefaultBlockEvents+6; extra > want {
		t.Errorf("%d events: %.0f allocs, %d events: %.0f — %.0f more, want <= %.0f (one per block)",
			short, shortAllocs, long, longAllocs, extra, want)
	}
	t.Logf("%d events: %.2f B/event allocated, a %.2f B/event file", long, perEvent, filePerEvent)
	if want := filePerEvent + 1.5; perEvent > want {
		t.Errorf("Decode allocated %.2f B/event, want <= %.2f (the file's %.2f and 1.5)", perEvent, want, filePerEvent)
	}
}

// TestAppendAfterDecodeKeepsDecodedEvents checks that a decoded trace is a
// recorded one as far as Append is concerned: its file's full blocks are
// sealed, the part one is the open block, and appending fills that block,
// seals it when full, leaves every decoded event in place, and the trace
// still encodes to the Writer's bytes.
func TestAppendAfterDecodeKeepsDecodedEvents(t *testing.T) {
	const n = 2*DefaultBlockEvents + 5
	tr, err := Decode(bytes.NewReader(encoded(t, countingTrace(n))))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.sealed.blocks) != 2 || len(tr.open) != 5 {
		t.Fatalf("decoded %d events into %d sealed blocks and %d open events, want 2 and 5", n, len(tr.sealed.blocks), len(tr.open))
	}
	want := countingTrace(n + DefaultBlockEvents).Events()
	for i, e := range want[n:] {
		tr.Append(e)
		if i == 0 && (len(tr.sealed.blocks) != 2 || len(tr.open) != 6) {
			t.Fatalf("the first Append left %d sealed blocks and %d open events, want 2 and 6", len(tr.sealed.blocks), len(tr.open))
		}
	}
	if len(tr.sealed.blocks) != 3 || len(tr.open) != 5 {
		t.Fatalf("after %d Appends: %d sealed blocks and %d open events, want 3 and 5", len(want)-n, len(tr.sealed.blocks), len(tr.open))
	}
	if got := tr.Events(); !slices.Equal(got, want) {
		t.Fatalf("after %d Appends the trace holds %d events that differ from the %d expected", len(want)-n, len(got), len(want))
	}
	if !bytes.Equal(traceBytes(t, tr), writerBytes(t, tr)) {
		t.Fatal("Encode after Appends differs from the Writer")
	}
}

// BenchmarkDecode materializes a 1 M-event trace from its encoding:
// Mevents/s is decoded events per second, allocs/op at most one per block
// plus a constant.
func BenchmarkDecode(b *testing.B) {
	const n = 1 << 20
	raw := encoded(b, countingTrace(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Decode(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		sinkTrace = tr
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
