package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"github.com/whisper-pm/whisper/internal/mem"
)

// tailSizes crosses every stage of the open block's ramp (16, 32, … up to
// DefaultBlockEvents, and droppedChunkEvents for a trace that drops): an
// empty trace, a part-filled first block, traces that end exactly on a
// block boundary (16, 512, 1024, 4096, 8192, 32 768, 65 536) and one event
// either side of some of them.
var tailSizes = []int{0, 1, 15, 16, 17, 511, 512, 513, 1024, 4095, 4096, 4097, 8192, 32767, 32768, 32769, 65536, 65537, 100_000}

// copying reads a keeping tail the way a consumer that keeps its chunks
// must, since the tail's are valid only until the next call: it copies
// each one.
type copying struct{ *Tail }

func (c copying) NextChunk() ([]Event, error) {
	chunk, err := c.Tail.NextChunk()
	return slices.Clone(chunk), err
}

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
// branch, as a run with taps is — a keeping tail behind a copy of each
// chunk, since Fanout refuses it bare (the subtest key still spells that
// "chunks=", true for the tail itself, so results line up with earlier
// runs); the volatile counters are complete at io.EOF, and a keeping
// trace then holds every event, in blocks that encode to the Writer's
// bytes.
func TestTailSeesEveryEventOnce(t *testing.T) {
	for _, keep := range []bool{true, false} {
		for _, n := range tailSizes {
			for _, direct := range []bool{true, false} {
				t.Run(fmt.Sprintf("keep=%v/n=%d/chunks=%v", keep, n, direct), func(t *testing.T) {
					tr := &Trace{App: "tail", Layer: "native", Threads: 4}
					tl := tr.Tail(keep)
					var src EventSource = tl
					switch {
					case direct:
					case keep:
						src = Fanout(copying{tl}, 1)[0]
					default:
						src = Fanout(tl, 1)[0]
					}
					if m := src.Meta(); m != (Meta{App: "tail", Layer: "native", Threads: 4}) {
						t.Fatalf("Meta = %+v", m)
					}
					record(tr, tl, n, nil)

					seen := 0
					var chunks []int
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
						chunks = append(chunks, len(c))
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
						if got := len(tr.Events()); got != 0 {
							t.Fatalf("a dropping trace still holds %d events after Close", got)
						}
						for _, c := range chunks {
							if c > droppedChunkEvents {
								t.Fatalf("dropped chunk of %d events, cap is %d", c, droppedChunkEvents)
							}
						}
						return
					}
					// A keeping trace is the trace an unfollowed recording
					// would have left.
					for i, e := range tr.Events() {
						if e.Time != mem.Time(i) {
							t.Fatalf("retained trace holds time %d at event %d", e.Time, i)
						}
					}
					if len(tr.Events()) != n {
						t.Fatalf("the retained trace holds %d events, want %d", len(tr.Events()), n)
					}
					if !bytes.Equal(traceBytes(t, tr), writerBytes(t, tr)) {
						t.Fatal("the retained trace does not encode to the Writer's bytes")
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
// once its run is over — appending to it does not reach for the tail, and
// the appended events follow the recorded one.
func TestTailDetachesAtClose(t *testing.T) {
	tr := &Trace{}
	tl := tr.Tail(true)
	tr.Append(Event{Time: 1})
	tl.Close(nil) // one chunk: it fits the queue, no reader needed yet
	if c, err := tl.NextChunk(); err != nil || len(c) != 1 {
		t.Fatalf("NextChunk = %d events, %v, want the one event", len(c), err)
	}
	// Past Close, and before the reader reaches the end: enough to seal
	// blocks of their own.
	const more = 2*DefaultBlockEvents + 100
	for i := 0; i < more; i++ {
		tr.Append(Event{Time: mem.Time(2 + i)})
	}
	if tr.Len() != 1+more {
		t.Fatalf("Len = %d after appending past Close, want %d", tr.Len(), 1+more)
	}
	if _, err := tl.NextChunk(); err != io.EOF {
		t.Fatalf("NextChunk after the last = %v, want io.EOF", err)
	}
	got := tr.Events()
	if len(got) != 1+more || tr.Len() != 1+more {
		t.Fatalf("the trace holds %d events, Len %d, want %d", len(got), tr.Len(), 1+more)
	}
	for i, e := range got {
		if e.Time != mem.Time(1+i) {
			t.Fatalf("event %d carries time %d after appending past Close", i, e.Time)
		}
	}
}

// TestTailFanoutRefusesAKeepingTail: a Fanout branch keeps its chunks past
// the pump's next read, which is when a keeping tail writes them again, so
// Fanout panics over one, with a message that says so, and starts no pump.
func TestTailFanoutRefusesAKeepingTail(t *testing.T) {
	tr := &Trace{}
	tl := tr.Tail(true)
	base := runtime.NumGoroutine()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "keeping Tail") {
			t.Fatalf("Fanout over a keeping tail recovered %q, want a panic naming the keeping Tail", msg)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%d goroutines after the refusal, %d before", n, base)
		}
		tl.Close(nil)
	}()
	Fanout(tl, 2)
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

// blockLens is the chunk lengths a keeping tail hands out for an n-event
// recording: full blocks, then the part-filled last one.
func blockLens(n int) []int {
	var lens []int
	for done := 0; done < n; done += DefaultBlockEvents {
		lens = append(lens, min(DefaultBlockEvents, n-done))
	}
	return lens
}

// TestTailRecyclesRecorderBuffers: a keeping tail's recorder writes into
// the buffers its reader hands back, and the trace keeps what the reader
// packs (run it under -race). Over every tailSizes length and one long
// enough to wrap the buffers many times:
//   - the recorder writes into at most freeDepth distinct full-size
//     buffers however long the run, so past the first blocks it allocates
//     nothing;
//   - the chunks the reader is handed are whole blocks but the last;
//   - once the stream has ended the heap holds at most 8 bytes a retained
//     event, the packed blocks and no buffer besides, although the tail
//     is still reachable;
//   - an Append after the end follows the retained events.
func TestTailRecyclesRecorderBuffers(t *testing.T) {
	for _, n := range append(slices.Clone(tailSizes), 192*DefaultBlockEvents+7) {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)

			tr := &Trace{App: "tail"}
			tl := tr.Tail(true)
			// The recorder notes each full-size buffer it opens a block in,
			// as an address, so the note keeps none of them alive.
			var full []uintptr
			recorded := make(chan struct{})
			go func() {
				defer close(recorded)
				for i := 0; i < n; i++ {
					tr.Append(Event{Time: mem.Time(i), Kind: KStore, Size: 8})
					if len(tr.open) == 1 && cap(tr.open) == DefaultBlockEvents {
						full = append(full, uintptr(unsafe.Pointer(unsafe.SliceData(tr.open))))
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

			<-recorded // and the recorder's frames with it
			runtime.GC()
			runtime.ReadMemStats(&after)
			live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			if limit := 8 * n; n >= 8*DefaultBlockEvents && live > int64(limit) {
				t.Errorf("%d bytes live after the end of the stream, want <= %d (8 B an event): a buffer outlived the run", live, limit)
			}
			runtime.KeepAlive(tl)

			if want := blockLens(n); !slices.Equal(lens, want) {
				t.Fatalf("the tail handed out chunks of %v events, want %v", lens, want)
			}
			slices.Sort(full)
			if distinct := len(slices.Compact(full)); distinct > freeDepth {
				t.Errorf("the recorder wrote into %d distinct full-size buffers, want <= %d", distinct, freeDepth)
			}

			tr.Append(Event{Time: mem.Time(n)})
			got := tr.Events()
			for i, e := range got {
				if e.Time != mem.Time(i) {
					t.Fatalf("retained trace holds time %d at event %d", e.Time, i)
				}
			}
			if len(got) != n+1 {
				t.Fatalf("the trace holds %d events after one more Append, want %d", len(got), n+1)
			}
		})
	}
}
