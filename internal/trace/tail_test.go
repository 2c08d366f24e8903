package trace

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"github.com/whisper-pm/whisper/internal/mem"
)

// tailSizes crosses every stage of the chunk-size ramp (16, 16, 32, … up to
// maxChunkEvents, and droppedChunkEvents for a trace that drops): an empty
// trace, a part-filled first chunk, traces that end exactly on a chunk
// boundary (16, 512, 1024, 65 536 = the first full-size chunk filled) and
// one event either side of them.
var tailSizes = []int{0, 1, 15, 16, 17, 511, 512, 513, 1024, 32767, 32768, 32769, 65536, 65537, 100_000}

// record appends n events to tr from its own goroutine, the way a run
// does, and closes the tail with closeErr.
func record(tr *Trace, tl *Tail, n int, closeErr error) {
	go func() {
		for i := 0; i < n; i++ {
			tr.Append(Event{Time: mem.Time(i), TID: uint16(i % 4), Kind: KStore, Size: 8})
			if i%1000 == 0 {
				tr.VolatileLoads += 3 // as persist.Thread.VLoad does mid-run
			}
		}
		tr.VolatileStores = uint64(n)
		tl.Close(closeErr)
	}()
}

// TestTailSeesEveryEventOnce appends from one goroutine while the tail is
// read on another (run it under -race): every event arrives once, in
// order, whether the trace keeps its chunks or drops them and whether the
// reader is on the tail itself, as whisper.Run is, or behind a Fanout
// branch, as a run with taps is (the subtest key still spells that
// "chunks=", true for the tail itself, so results line up with earlier
// runs); the volatile counters are complete at io.EOF.
func TestTailSeesEveryEventOnce(t *testing.T) {
	for _, keep := range []bool{true, false} {
		for _, n := range tailSizes {
			for _, direct := range []bool{true, false} {
				t.Run(fmt.Sprintf("keep=%v/n=%d/chunks=%v", keep, n, direct), func(t *testing.T) {
					tr := &Trace{App: "tail", Layer: "native", Threads: 4}
					tl := tr.Tail(keep)
					var src EventSource = tl
					if !direct {
						src = Fanout(tl, 1)[0]
					}
					if m := src.Meta(); m != (Meta{App: "tail", Layer: "native", Threads: 4}) {
						t.Fatalf("Meta = %+v", m)
					}
					record(tr, tl, n, nil)

					seen := 0
					var chunks [][]Event
					check := func(e Event) {
						if e.Time != mem.Time(seen) {
							t.Fatalf("event %d carries time %d: lost, repeated or reordered", seen, e.Time)
						}
						seen++
					}
					for {
						c, err := src.NextChunk()
						if err == io.EOF {
							break
						}
						if err != nil || len(c) == 0 {
							t.Fatalf("NextChunk = %d events, %v", len(c), err)
						}
						chunks = append(chunks, c)
						for _, e := range c {
							check(e)
						}
					}
					if seen != n {
						t.Fatalf("saw %d events, want %d", seen, n)
					}
					wantLoads := uint64(3 * ((n + 999) / 1000))
					if l, s := src.Volatile(); l != wantLoads || s != uint64(n) {
						t.Fatalf("Volatile = %d, %d, want %d, %d", l, s, wantLoads, n)
					}
					if _, err := src.NextChunk(); err != io.EOF {
						t.Fatalf("NextChunk after the end = %v, want io.EOF", err)
					}

					if tr.Len() != n {
						t.Fatalf("Len = %d, want %d", tr.Len(), n)
					}
					if !keep {
						if len(tr.Chunks()) != 0 {
							t.Fatalf("a dropping trace still holds %d chunks after Close", len(tr.Chunks()))
						}
						for _, c := range chunks {
							if len(c) > droppedChunkEvents {
								t.Fatalf("dropped chunk of %d events, cap is %d", len(c), droppedChunkEvents)
							}
						}
						return
					}
					// A keeping trace is the trace an unfollowed recording
					// would have left, and its chunks are the very copies
					// the tail handed out.
					for i, e := range flat(tr) {
						if e.Time != mem.Time(i) {
							t.Fatalf("retained trace holds time %d at event %d", e.Time, i)
						}
					}
					for i, c := range chunks {
						if &c[0] != &tr.Chunks()[i][0] || len(c) != len(tr.Chunks()[i]) {
							t.Fatalf("chunk %d from the tail is not the trace's chunk %d", i, i)
						}
					}
				})
			}
		}
	}
}

// TestTailCloseError: the recorder's error arrives after the events it
// managed to record, in place of io.EOF, and keeps arriving.
func TestTailCloseError(t *testing.T) {
	boom := errors.New("app panicked")
	tr := &Trace{App: "tail"}
	tl := tr.Tail(false)
	record(tr, tl, 600, boom)
	seen := 0
	for {
		c, err := tl.NextChunk()
		if err != nil {
			if err != boom {
				t.Fatalf("stream ended with %v, want %v", err, boom)
			}
			break
		}
		seen += len(c)
	}
	if seen != 600 {
		t.Fatalf("saw %d events before the error, want 600", seen)
	}
	if _, err := tl.NextChunk(); err != boom {
		t.Fatalf("NextChunk after the error = %v, want %v", err, boom)
	}
}

// TestTailDetachesAtClose: a retained trace is an ordinary trace again
// once its run is over — appending to it does not reach for the tail.
func TestTailDetachesAtClose(t *testing.T) {
	tr := &Trace{}
	tl := tr.Tail(true)
	tr.Append(Event{Time: 1})
	tl.Close(nil) // one chunk: it fits the queue, no reader needed yet
	if c, err := tl.NextChunk(); err != nil || len(c) != 1 {
		t.Fatalf("NextChunk = %d events, %v, want the one event", len(c), err)
	}
	for i := 0; i < 100; i++ {
		tr.Append(Event{Time: mem.Time(2 + i)})
	}
	if tr.Len() != 101 {
		t.Fatalf("Len = %d after appending past Close, want 101", tr.Len())
	}
}

func TestTailNeedsAnEmptyTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Tail on a trace that holds events did not panic")
		}
	}()
	tr := &Trace{}
	tr.Append(Event{})
	tr.Tail(true)
}

// rampLens is the chunk lengths an n-event recording leaves: each chunk as
// large as everything before it, from firstChunkEvents up to maxChunkEvents,
// the last one part-filled.
func rampLens(n int) []int {
	var lens []int
	for done := 0; done < n; {
		k := min(max(done, firstChunkEvents), maxChunkEvents, n-done)
		lens = append(lens, k)
		done += k
	}
	return lens
}

// TestTailRecyclesRecorderBuffers: a keeping tail's recorder writes into
// the buffers its reader hands back, and the trace keeps the reader's
// copies (run it under -race). Over every tailSizes length and one long
// enough to wrap the buffers many times:
//   - the recorder writes into at most freeDepth distinct full-size
//     buffers however long the run, so past the ramp it allocates nothing;
//   - the chunks the reader is handed, which the trace keeps, end where
//     the ramp's chunks do;
//   - every retained chunk is clipped, so a later Append opens its own;
//   - once the stream has ended the heap holds the events and no buffer
//     besides, although the tail is still reachable.
func TestTailRecyclesRecorderBuffers(t *testing.T) {
	for _, n := range append(slices.Clone(tailSizes), 24*maxChunkEvents+7) {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)

			tr := &Trace{App: "tail"}
			tl := tr.Tail(true)
			// The recorder notes each full-size buffer it opens a chunk in,
			// as an address, so the note keeps none of them alive.
			var full []uintptr
			go func() {
				for i := 0; i < n; i++ {
					tr.Append(Event{Time: mem.Time(i), Kind: KStore, Size: 8})
					if c := tr.chunks[len(tr.chunks)-1]; len(c) == 1 && cap(c) == maxChunkEvents {
						full = append(full, uintptr(unsafe.Pointer(unsafe.SliceData(c))))
					}
				}
				tl.Close(nil)
			}()
			var lens []int
			for {
				c, err := tl.NextChunk()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				lens = append(lens, len(c))
			}

			runtime.GC()
			runtime.ReadMemStats(&after)
			live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			if limit := 1.1 * float64(n) * float64(unsafe.Sizeof(Event{})); n >= maxChunkEvents && float64(live) > limit {
				t.Errorf("%d bytes live after the end of the stream, want <= %.0f: a buffer outlived the run", live, limit)
			}
			runtime.KeepAlive(tl)

			if want := rampLens(n); !slices.Equal(lens, want) {
				t.Fatalf("the tail handed out chunks of %v events, want the ramp's %v", lens, want)
			}
			if len(tr.Chunks()) != len(lens) {
				t.Fatalf("the trace keeps %d chunks, the tail handed out %d", len(tr.Chunks()), len(lens))
			}
			for i, c := range tr.Chunks() {
				if len(c) != lens[i] || len(c) != cap(c) {
					t.Fatalf("retained chunk %d holds %d events in %d, want %d clipped", i, len(c), cap(c), lens[i])
				}
			}
			slices.Sort(full)
			if distinct := len(slices.Compact(full)); distinct > freeDepth {
				t.Errorf("the recorder wrote into %d distinct full-size buffers, want <= %d", distinct, freeDepth)
			}

			tr.Append(Event{Time: mem.Time(n)})
			if len(tr.Chunks()) != len(lens)+1 {
				t.Fatalf("an Append after the end wrote into a retained chunk")
			}
			for i, e := range flat(tr) {
				if e.Time != mem.Time(i) {
					t.Fatalf("retained trace holds time %d at event %d", e.Time, i)
				}
			}
		})
	}
}
