package trace

import (
	"errors"
	"fmt"
	"io"
	"testing"

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
			tr.Append(Event{Time: mem.Time(i), TID: int32(i % 4), Kind: KStore, Size: 8})
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
					// would have left, and the tail handed out its own
					// storage rather than copies.
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
