package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/whisper-pm/whisper/internal/mem"
)

// requireGoroutines waits for the goroutine count to come back to base: a
// Fanout pump has closed its branches by the time they end, but may not
// have exited yet. It yields rather than sleeps, which keeps the fuzz
// targets that call it fast.
func requireGoroutines(t testing.TB, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a Fanout pump outlived the call", runtime.NumGoroutine(), base)
		}
	}
}

// sliceChunks reads tr through its SliceSource chunk by chunk.
func sliceChunks(tr *Trace) [][]Event {
	var chunks [][]Event
	for src := NewSliceSource(tr); ; {
		c, err := src.NextChunk()
		if err != nil {
			return chunks
		}
		chunks = append(chunks, c)
	}
}

// readerChunks reads data with the streaming Reader chunk by chunk: what it
// delivered before the stream ended, and how it ended (io.EOF when well).
func readerChunks(data []byte) ([][]Event, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var chunks [][]Event
	for {
		c, err := rd.NextChunk()
		if err != nil {
			return chunks, err
		}
		chunks = append(chunks, c)
	}
}

// blockEnds returns the offset just past each block frame of a stream.
func blockEnds(t *testing.T, data []byte) []int {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var header bytes.Buffer
	if _, err := NewWriter(&header, rd.Meta()); err != nil {
		t.Fatal(err)
	}
	var ends []int
	for at := header.Len(); data[at] == tagBlock; {
		at++
		_, n := binary.Uvarint(data[at:]) // count
		at += n
		payloadLen, n := binary.Uvarint(data[at:])
		at += n + int(payloadLen) + 4
		ends = append(ends, at)
	}
	return ends
}

// TestDecodeMatchesReader holds Decode to the streaming Reader: the
// decoded trace reads back the Reader's chunks, block for block, with the
// same events and the same trailer counters.
func TestDecodeMatchesReader(t *testing.T) {
	orig := genTrace(rand.New(rand.NewSource(11)), 9*DefaultBlockEvents+123)
	data := encoded(t, orig)
	want, err := readerChunks(data)
	if err != io.EOF {
		t.Fatalf("the Reader ended in %v", err)
	}
	tr, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := sliceChunks(tr)
	if len(got) != len(want) {
		t.Fatalf("%d chunks, the Reader gave %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("chunk %d differs from the Reader's", i)
		}
	}
	if tr.App != orig.App || tr.Layer != orig.Layer || tr.Threads != orig.Threads ||
		tr.VolatileLoads != orig.VolatileLoads || tr.VolatileStores != orig.VolatileStores {
		t.Fatal("header or trailer differs")
	}
}

// TestDecodeReportsTheFirstDamage damages block k's crc and cuts the stream
// inside block k+j+1: the error is block k's, as the Reader reports it.
func TestDecodeReportsTheFirstDamage(t *testing.T) {
	whole := encoded(t, countingTrace(10*DefaultBlockEvents))
	ends := blockEnds(t, whole)
	for _, k := range []int{0, 1, 5} {
		for j := 1; j <= 3; j++ {
			data := slices.Clone(whole[:ends[k+j]+9])
			data[ends[k]-1] ^= 0x5a
			_, want := readerChunks(data)
			if want == nil || !strings.Contains(want.Error(), "block crc mismatch") {
				t.Fatalf("k=%d: the Reader reported %v, want a crc mismatch", k, want)
			}
			if _, err := Decode(bytes.NewReader(data)); err == nil || err.Error() != want.Error() {
				t.Errorf("k=%d cut in block %d: Decode reported %v, the Reader %v", k, k+j+1, err, want)
			}
		}
	}
}

// fileOf frames each payload as a block of the given event count behind a
// v3 header, then the trailer for their total.
func fileOf(counts []int, payloads [][]byte) []byte {
	file := v3Header()
	total := 0
	for i, p := range payloads {
		file = append(file, rawBlock(uint64(counts[i]), uint64(len(p)), p, crc32.ChecksumIEEE(p))...)
		total += counts[i]
	}
	return append(file, rawTrailer(0, 0, uint64(total), true, 0)...)
}

// TestDecodeKeepsTheWritersFile: a file a Writer made decodes to its own
// payloads — every full block sealed as it is, the part one open — and
// encodes back to itself byte for byte.
func TestDecodeKeepsTheWritersFile(t *testing.T) {
	for _, n := range []int{1, DefaultBlockEvents, DefaultBlockEvents + 1, 3*DefaultBlockEvents + 17} {
		file := writerBytes(t, genTrace(rand.New(rand.NewSource(int64(n))), n))
		tr, err := Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if full := n / DefaultBlockEvents; len(tr.sealed.blocks) != full || len(tr.open) != n-full*DefaultBlockEvents {
			t.Fatalf("n=%d: %d sealed blocks and %d open events, want %d and %d", n, len(tr.sealed.blocks), len(tr.open), full, n-full*DefaultBlockEvents)
		}
		if got := traceBytes(t, tr); !bytes.Equal(got, file) {
			t.Fatalf("n=%d: Encode(Decode(file)) is %d bytes that differ from the file's %d", n, len(got), len(file))
		}
	}
}

// TestDecodeRepacksAnOverlongBlock: a full block spelled otherwise than
// pack spells it — a varint overlong, a TID below inlineTIDs escaped, or a
// zero address spelled as a delta that lands on 0 (which moves the base
// of every address delta after it) — unpacks to the same events but is not
// canonical, so it is not kept as it is: the trace holds pack's bytes of
// its events, as a recorded trace would, and encodes to the Writer's
// bytes, not the file's.
func TestDecodeRepacksAnOverlongBlock(t *testing.T) {
	events := genTrace(rand.New(rand.NewSource(3)), 2*DefaultBlockEvents).Events()
	events[0].TID = 1
	events[5].Kind, events[5].Addr = KFence, 0
	block := events[:DefaultBlockEvents]
	first := pack(nil, block)
	// The first event's time delta, one byte longer than it need be.
	dt, n := binary.Uvarint(first[1:])
	overlong := append(spell(first[:1:1], dt, n+1), first[1+n:]...)
	second := pack(nil, events[DefaultBlockEvents:])
	for name, p := range map[string][]byte{
		"overlong time":    overlong,
		"escaped tid 1":    respell(block, func(i int) bool { return i == 0 }, never),
		"zero address set": respell(block, never, func(i int) bool { return i == 5 }),
	} {
		got := make([]Event, DefaultBlockEvents)
		if canonical, err := unpack(got, p); err != nil || canonical || !slices.Equal(got, block) {
			t.Fatalf("%s: unpack says canonical %v, %v, or its events differ", name, canonical, err)
		}
		file := fileOf([]int{DefaultBlockEvents, DefaultBlockEvents}, [][]byte{p, second})
		tr, err := Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Events(); !slices.Equal(got, events) {
			t.Fatalf("%s: decoded %d events that differ from the %d framed", name, len(got), len(events))
		}
		if len(tr.sealed.blocks) != 2 || !bytes.Equal(tr.sealed.blocks[0], first) || !bytes.Equal(tr.sealed.blocks[1], second) {
			t.Fatalf("%s: the blocks are not held as pack's bytes", name)
		}
		if got := traceBytes(t, tr); !bytes.Equal(got, writerBytes(t, tr)) || bytes.Equal(got, file) {
			t.Fatalf("%s: Encode is not the Writer's bytes of the events", name)
		}
	}
}

// TestDecodeReblocksOddBlocks: a file of blocks of 3, 5 000 and 4 096
// events, none of them a Writer's block boundary past the first, decodes to
// the events the Reader reads, re-blocked as a recorded trace holds them.
func TestDecodeReblocksOddBlocks(t *testing.T) {
	counts := []int{3, 5000, DefaultBlockEvents}
	events := genTrace(rand.New(rand.NewSource(9)), 3+5000+DefaultBlockEvents).Events()
	var payloads [][]byte
	for at, c := range []int{0, 3, 5003} {
		payloads = append(payloads, pack(nil, events[c:c+counts[at]]))
	}
	file := fileOf(counts, payloads)
	chunks, err := readerChunks(file)
	if err != io.EOF {
		t.Fatalf("the Reader ended in %v", err)
	}
	tr, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Events(), slices.Concat(chunks...); !slices.Equal(got, want) || !slices.Equal(want, events) {
		t.Fatalf("Decode gave %d events, the Reader %d, %d framed, or they differ", len(got), len(want), len(events))
	}
	if full := len(events) / DefaultBlockEvents; len(tr.sealed.blocks) != full || len(tr.open) != len(events)-full*DefaultBlockEvents {
		t.Fatalf("%d sealed blocks and %d open events, want %d and %d", len(tr.sealed.blocks), len(tr.open), full, len(events)-full*DefaultBlockEvents)
	}
	if !bytes.Equal(traceBytes(t, tr), writerBytes(t, tr)) {
		t.Fatal("Encode differs from the Writer")
	}
}

// TestDecodedTraceHoldsPayloads: a decoded trace holds its file's payload
// bytes, not 24 bytes an event. The live heap it adds, with every arena
// trimmed, is within a tenth of the file plus the open block's buffer, and
// at most 5.5 bytes an event, the bound a recorded ycsb run is held to
// (TestRetainedTraceBytesPerEvent).
func TestDecodedTraceHoldsPayloads(t *testing.T) {
	const n = 64*DefaultBlockEvents + 100
	// Made in a call of its own, so the recorded trace is gone by the
	// first collection.
	file := func() []byte { return writerBytes(t, genPipeline(n)) }()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int(after.HeapAlloc) - int(before.HeapAlloc)
	runtime.KeepAlive(tr)
	runtime.KeepAlive(file)
	payloads := 0
	for _, p := range tr.sealed.blocks {
		payloads += len(p)
	}
	if payloads >= len(file) || payloads < len(file)*9/10 {
		t.Fatalf("the sealed blocks hold %d bytes of a %d-byte file", payloads, len(file))
	}
	t.Logf("%d events: a %d-byte file, %d bytes held (%.1f B/event)", n, len(file), held, float64(held)/n)
	if limit := len(file)*11/10 + DefaultBlockEvents*int(unsafe.Sizeof(Event{})); held > limit {
		t.Fatalf("a decoded trace of %d events holds %d bytes (%.1f B/event), want <= %d (a %d-byte file)",
			n, held, float64(held)/n, limit, len(file))
	}
	if perEvent := float64(held) / n; perEvent > 5.5 {
		t.Fatalf("a decoded trace of %d events holds %.2f B/event, want <= 5.5", n, perEvent)
	}
}

// genPipeline returns n events of a recorded run's shape: a few threads,
// small steps in time and address, stores flushed and fenced, and no
// address on a fence or a transaction mark.
func genPipeline(n int) *Trace {
	rng := rand.New(rand.NewSource(int64(n)))
	tr := &Trace{App: "ycsb", Layer: "native", Threads: 4}
	clock, addr := mem.Time(0), mem.PMBase
	kinds := []Kind{KStore, KStore, KFlush, KFence, KLoad, KTxBegin, KTxEnd}
	for range n {
		clock += mem.Time(1 + rng.Intn(200))
		addr += mem.Addr(rng.Intn(512)) - 256
		e := Event{Kind: kinds[rng.Intn(len(kinds))], TID: uint16(rng.Intn(4)), Time: clock, Addr: addr, Size: uint32(8 << rng.Intn(4))}
		if e.Kind == KFence || e.Kind == KTxBegin || e.Kind == KTxEnd {
			e.Addr, e.Size = 0, 0
		}
		tr.Append(e)
	}
	return tr
}
