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
	"time"
	"unsafe"
)

// requireGoroutines waits for the goroutine count to come back to base:
// Decode has waited for its workers by the time it returns, and a Fanout
// pump has closed its branches by the time they end, but either may not
// have exited yet. It yields rather than sleeps, which keeps the fuzz
// targets that call it fast.
func requireGoroutines(t testing.TB, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a Decode worker or Fanout pump outlived the call", runtime.NumGoroutine(), base)
		}
	}
}

// atProcs runs f with GOMAXPROCS set to procs.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
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

// blockEnds returns the offset just past each block frame of a v2 stream.
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

// TestDecodeAnyGOMAXPROCS holds Decode's workers to the streaming Reader:
// at one, two and four procs the decoded trace reads back the Reader's
// chunks, block for block, with the same events and the same trailer
// counters.
func TestDecodeAnyGOMAXPROCS(t *testing.T) {
	orig := genTrace(rand.New(rand.NewSource(11)), 9*DefaultBlockEvents+123)
	data := encoded(t, orig)
	want, err := readerChunks(data)
	if err != io.EOF {
		t.Fatalf("the Reader ended in %v", err)
	}
	for _, procs := range []int{1, 2, 4} {
		atProcs(procs, func() {
			base := runtime.NumGoroutine()
			tr, err := Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			requireGoroutines(t, base)
			got := sliceChunks(tr)
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS=%d: %d chunks, the Reader gave %d", procs, len(got), len(want))
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("GOMAXPROCS=%d: chunk %d differs from the Reader's", procs, i)
				}
			}
			if tr.App != orig.App || tr.Layer != orig.Layer || tr.Threads != orig.Threads ||
				tr.VolatileLoads != orig.VolatileLoads || tr.VolatileStores != orig.VolatileStores {
				t.Fatalf("GOMAXPROCS=%d: header or trailer differs", procs)
			}
		})
	}
}

// TestDecodeReportsTheFirstDamage damages block k's crc and cuts the stream
// inside block k+j+1, which Decode frames while a worker may still be
// checking block k — up to block k+4 when four workers are decoding: the
// error is block k's, as the serial Reader reports it.
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
			for _, procs := range []int{1, 2, 4} {
				atProcs(procs, func() {
					base := runtime.NumGoroutine()
					if _, err := Decode(bytes.NewReader(data)); err == nil || err.Error() != want.Error() {
						t.Errorf("k=%d cut in block %d, GOMAXPROCS=%d: Decode reported %v, the Reader %v", k, k+j+1, procs, err, want)
					}
					requireGoroutines(t, base)
				})
			}
		}
	}
}

// TestDecodeAllocsAnyGOMAXPROCS holds Decode to TestDecodeAdoptsBlocks'
// bounds at many procs, which AllocsPerRun cannot show because it counts
// at one: the ring's payload buffers are as few on a many-core machine as
// on one core, so 56 more blocks still cost 56 more allocations and a
// constant, and the events are still the bytes allocated.
func TestDecodeAllocsAnyGOMAXPROCS(t *testing.T) {
	const short, long, runs = 8 * DefaultBlockEvents, 64 * DefaultBlockEvents, 10
	decode := func(n int) (allocs, bytesPerEvent float64) {
		raw := encoded(t, countingTrace(n))
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := Decode(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(n)
	}
	for _, procs := range []int{16, 64} {
		atProcs(procs, func() {
			// The first collection at a new proc count starts a mark
			// worker per proc, which the runtime allocates: not Decode's.
			runtime.GC()
			shortAllocs, _ := decode(short)
			longAllocs, perEvent := decode(long)
			if extra, want := longAllocs-shortAllocs, float64(long-short)/DefaultBlockEvents+6; extra > want {
				t.Errorf("GOMAXPROCS=%d: %d events: %.0f allocs, %d events: %.0f — %.0f more, want <= %.0f (one per block)",
					procs, short, shortAllocs, long, longAllocs, extra, want)
			}
			if size := float64(unsafe.Sizeof(Event{})); perEvent > 1.1*size {
				t.Errorf("GOMAXPROCS=%d: Decode allocated %.1f B/event, want <= %.1f (the blocks alone)", procs, perEvent, 1.1*size)
			}
		})
	}
}
