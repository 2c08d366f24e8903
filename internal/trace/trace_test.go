package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/whisper-pm/whisper/internal/mem"
)

// flat returns t's events as one slice, for indexed comparisons.
func flat(t *Trace) []Event { return slices.Concat(t.Chunks()...) }

// Equal reports whether a and b hold the same run metadata, volatile
// counters and event sequence. Chunk boundaries are storage, not content:
// a decoded trace is chunked by the stream's blocks, a recorded one by
// Append's geometry, and the two are Equal when their events are.
func Equal(a, b *Trace) bool {
	if a.App != b.App || a.Layer != b.Layer || a.Threads != b.Threads ||
		a.VolatileLoads != b.VolatileLoads || a.VolatileStores != b.VolatileStores || a.n != b.n {
		return false
	}
	return slices.Equal(flat(a), flat(b))
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
	if err := EncodeV2(&buf, NewSliceSource(orig)); err != nil {
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
	if err := EncodeV2(&buf, NewSliceSource(orig)); err != nil {
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
	if err := EncodeV2(&buf, NewSliceSource(orig)); err != nil {
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
	if err := EncodeV2(&buf, NewSliceSource(ok)); err != nil {
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

// TestDecodeLargeHonestTrace checks that a trace larger than any one
// chunk of the decoder's store still round-trips.
func TestDecodeLargeHonestTrace(t *testing.T) {
	orig := &Trace{App: "big", Layer: "native", Threads: 1}
	for i := 0; i < 2*maxChunkEvents+100; i++ {
		orig.Append(Event{Time: mem.Time(i), Addr: mem.PMBase + mem.Addr(i*8), Size: 8, Kind: KStore})
	}
	var buf bytes.Buffer
	if err := EncodeV2(&buf, NewSliceSource(orig)); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), orig.Len())
	}
	if !slices.Equal(flat(orig), flat(got)) {
		t.Fatal("events past the first chunk corrupted")
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
	if err := EncodeV2(&buf, NewSliceSource(orig)); err != nil {
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

func TestCounts(t *testing.T) {
	tr := sampleTrace()
	if got := tr.CountKind(KFence); got != 2 {
		t.Errorf("CountKind(KFence) = %d, want 2", got)
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

// TestStoreReadSurfacesAgree pins the chunked store at its boundaries:
// Len, Chunks, a SliceSource and a codec round trip must all
// yield the appended sequence, and the chunk invariants must hold.
func TestStoreReadSurfacesAgree(t *testing.T) {
	for _, n := range []int{0, 1, maxChunkEvents - 1, maxChunkEvents, maxChunkEvents + 1, 3*maxChunkEvents + 7} {
		tr := countingTrace(n)
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		want := make([]Event, 0, n)
		for i, c := range tr.Chunks() {
			if len(c) == 0 || len(c) > maxChunkEvents {
				t.Fatalf("n=%d: chunk %d holds %d events", n, i, len(c))
			}
			if i < len(tr.Chunks())-1 && len(c) != cap(c) {
				t.Fatalf("n=%d: chunk %d is part-filled (%d of %d) but not last", n, i, len(c), cap(c))
			}
			want = append(want, c...)
		}
		if len(want) != n {
			t.Fatalf("n=%d: Chunks hold %d events", n, len(want))
		}
		for i, e := range want {
			if e.Time != mem.Time(i) {
				t.Fatalf("n=%d: event %d carries time %d", n, i, e.Time)
			}
		}

		var viaChunk []Event
		for src := NewSliceSource(tr); ; {
			c, err := src.NextChunk()
			if err != nil {
				break
			}
			if len(c) == 0 {
				t.Fatalf("n=%d: NextChunk returned an empty chunk", n)
			}
			viaChunk = append(viaChunk, c...)
		}
		var buf bytes.Buffer
		if err := EncodeV2(&buf, NewSliceSource(tr)); err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]Event{"NextChunk": viaChunk, "EncodeV2/Decode": flat(decoded)} {
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: %s yields %d events that differ from Chunks (%d)", n, name, len(got), n)
			}
		}
	}
}

// TestFromEventsAdoptsWithoutSharingCapacity checks the constructor's
// contract: the slice becomes the first chunk as is, and a later Append
// never writes into its spare capacity.
func TestFromEventsAdoptsWithoutSharingCapacity(t *testing.T) {
	backing := make([]Event, 3, 8)
	for i := range backing {
		backing[i].Time = mem.Time(i)
	}
	tr := FromEvents(Meta{App: "a", Layer: "native", Threads: 2}, backing)
	if tr.App != "a" || tr.Threads != 2 || tr.Len() != 3 || &tr.Chunks()[0][0] != &backing[0] {
		t.Fatalf("FromEvents did not adopt the slice: %+v", tr)
	}
	tr.Append(Event{Time: 3})
	if spare := backing[:4][3]; spare != (Event{}) {
		t.Fatalf("Append wrote into the adopted slice's capacity: %+v", spare)
	}
	if got := flat(tr); len(got) != 4 || got[3].Time != 3 {
		t.Fatalf("events after Append = %v", got)
	}
	if empty := FromEvents(Meta{}, nil); empty.Len() != 0 || len(empty.Chunks()) != 0 {
		t.Fatalf("FromEvents(nil) = %+v", empty)
	}
}

// TestAppendNeverRecopies bounds what recording allocates: a long trace
// allocates about its own size once (a store that regrew would allocate
// its history several times over), and a litmus-sized trace stays small.
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
	if limit := uint64(1.1 * n * float64(unsafe.Sizeof(Event{}))); got > limit {
		t.Errorf("appending %d events allocated %d bytes, want <= %d", n, got, limit)
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
// every chunk the store allocates along the way.
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

// TestDecodeAdoptsBlocks pins what Decode allocates: the Reader's one
// slice per block, which becomes a chunk as it is, plus a constant and the
// chunk list's doubling — never a second copy of the events. A decoder
// that re-appended every event would allocate its chunks on top of the
// blocks and twice the bytes.
func TestDecodeAdoptsBlocks(t *testing.T) {
	decode := func(n int) (allocs float64, bytesPerEvent float64) {
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
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 4 / float64(n)
	}
	const short, long = 8 * DefaultBlockEvents, 64 * DefaultBlockEvents
	shortAllocs, _ := decode(short)
	longAllocs, perEvent := decode(long)
	// 56 more blocks, the chunk list doubles three more times, and the
	// runtime may allocate a little of its own while the runs are counted.
	if extra, want := longAllocs-shortAllocs, float64(long-short)/DefaultBlockEvents+6; extra > want {
		t.Errorf("%d events: %.0f allocs, %d events: %.0f — %.0f more, want <= %.0f (one per block)",
			short, shortAllocs, long, longAllocs, extra, want)
	}
	if size := float64(unsafe.Sizeof(Event{})); perEvent > 1.1*size {
		t.Errorf("Decode allocated %.1f B/event, want <= %.1f (the blocks alone)", perEvent, 1.1*size)
	}
}

// TestAppendAfterDecodeKeepsDecodedEvents checks that an adopted block is
// full as far as Append is concerned: appending to a decoded trace opens a
// chunk of its own and leaves every decoded event in place.
func TestAppendAfterDecodeKeepsDecodedEvents(t *testing.T) {
	const n = 2*DefaultBlockEvents + 5
	tr, err := Decode(bytes.NewReader(encoded(t, countingTrace(n))))
	if err != nil {
		t.Fatal(err)
	}
	blocks := len(tr.Chunks())
	for i, c := range tr.Chunks() {
		if len(c) != cap(c) {
			t.Fatalf("decoded chunk %d holds %d events in a capacity of %d", i, len(c), cap(c))
		}
	}
	want := flat(countingTrace(n + 100))
	for i, e := range want[n:] {
		tr.Append(e)
		if i == 0 && len(tr.Chunks()) != blocks+1 {
			t.Fatalf("the first Append left %d chunks, want a new one after the %d decoded", len(tr.Chunks()), blocks)
		}
	}
	if got := flat(tr); !slices.Equal(got, want) {
		t.Fatalf("after %d Appends the trace holds %d events that differ from the %d expected", len(want)-n, len(got), len(want))
	}
}

// BenchmarkDecode materializes a 1 M-event trace from its v2 encoding:
// Mevents/s is decoded events per second, allocs/op one per block plus a
// constant.
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
