package trace

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/whisper-pm/whisper/internal/mem"
)

// tailSizes crosses every stage of the open block's ramp (16, 32, … up to
// DefaultBlockEvents): an empty trace, a part-filled first block, traces
// that end exactly on a block boundary (16, 512, 1024, 4096, 8192, 32 768,
// 65 536) and one event either side of some of them.
var tailSizes = []int{0, 1, 15, 16, 17, 511, 512, 513, 1024, 4095, 4096, 4097, 8192, 32767, 32768, 32769, 65536, 65537, 100_000}

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

// inOrder passes a source's chunks on and checks, as each arrives, that it
// is not empty and carries the next events of a recording by record; a
// chunk that does not ends the stream in an error.
type inOrder struct {
	EventSource
	seen int
	lens []int
}

func (s *inOrder) NextChunk() ([]Event, error) {
	c, err := s.EventSource.NextChunk()
	if err != nil {
		return c, err
	}
	if len(c) == 0 {
		return nil, fmt.Errorf("chunk %d is empty", len(s.lens))
	}
	s.lens = append(s.lens, len(c))
	for _, e := range c {
		if e.Time != mem.Time(s.seen) {
			return nil, fmt.Errorf("event %d carries time %d: lost, repeated or reordered", s.seen, e.Time)
		}
		s.seen++
	}
	return c, nil
}

// TestTailSeesEveryEventOnce appends from one goroutine while the tail is
// read on another (run it under -race): every event arrives once, in
// order, in whole blocks but the last, whether the reader is on the tail
// itself (chunks=true) or behind a Fanout branch, which hands each block
// back to the recorder (chunks=false), and whether it only reads the events
// or, as whisper.Run does, keeps them with Collect (keep=true). The
// volatile counters are complete at io.EOF, the recording trace keeps no
// event, and a collected trace holds every event, in blocks that encode to
// the Writer's bytes.
func TestTailSeesEveryEventOnce(t *testing.T) {
	for _, keep := range []bool{true, false} {
		for _, n := range tailSizes {
			for _, direct := range []bool{true, false} {
				t.Run(fmt.Sprintf("keep=%v/n=%d/chunks=%v", keep, n, direct), func(t *testing.T) {
					tr := &Trace{App: "tail", Layer: "native", Threads: 4}
					tl := tr.Tail()
					var src EventSource = tl
					if !direct {
						src = Fanout(tl, 1)[0]
					}
					if m := src.Meta(); m != (Meta{App: "tail", Layer: "native", Threads: 4}) {
						t.Fatalf("Meta = %+v", m)
					}
					record(tr, tl, n, nil)

					in := &inOrder{EventSource: src}
					var kept *Trace
					if keep {
						var err error
						if kept, err = Collect(in); err != nil {
							t.Fatal(err)
						}
					} else {
						for {
							_, err := in.NextChunk()
							if err == io.EOF {
								break
							}
							if err != nil {
								t.Fatal(err)
							}
						}
					}
					if in.seen != n {
						t.Fatalf("saw %d events, want %d", in.seen, n)
					}
					if want := blockLens(n); !slices.Equal(in.lens, want) {
						t.Fatalf("chunks of %v events, want %v", in.lens, want)
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
					if got := len(tr.Events()); got != 0 {
						t.Fatalf("the recording trace still holds %d events after Close", got)
					}
					if !keep {
						return
					}
					if kept.Len() != n {
						t.Fatalf("the collected trace holds %d events, want %d", kept.Len(), n)
					}
					for i, e := range kept.Events() {
						if e.Time != mem.Time(i) {
							t.Fatalf("collected trace holds time %d at event %d", e.Time, i)
						}
					}
					if kept.VolatileLoads != wantLoads || kept.VolatileStores != uint64(n) {
						t.Fatalf("the collected trace's Volatile = %d, %d, want %d, %d",
							kept.VolatileLoads, kept.VolatileStores, wantLoads, n)
					}
					if !bytes.Equal(traceBytes(t, kept), writerBytes(t, kept)) {
						t.Fatal("the collected trace does not encode to the Writer's bytes")
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
	tl := tr.Tail()
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

// TestTailDetachesAtClose: a trace is an ordinary trace again once its
// tail is closed — appending to it does not reach for the tail, and the
// trace keeps those events, after none of the ones it handed over.
func TestTailDetachesAtClose(t *testing.T) {
	tr := &Trace{}
	tl := tr.Tail()
	tr.Append(Event{Time: 1})
	tl.Close(nil) // one chunk: it fits the queue, no reader needed yet
	// Past Close, and before the reader reaches the end: enough to seal
	// blocks of their own.
	const more = 2*DefaultBlockEvents + 100
	for i := 0; i < more; i++ {
		tr.Append(Event{Time: mem.Time(2 + i)})
	}
	if tr.Len() != 1+more {
		t.Fatalf("Len = %d after appending past Close, want %d", tr.Len(), 1+more)
	}
	if c, err := tl.NextChunk(); err != nil || len(c) != 1 || c[0].Time != 1 {
		t.Fatalf("NextChunk = %v, %v, want the one event recorded under the tail", c, err)
	}
	if _, err := tl.NextChunk(); err != io.EOF {
		t.Fatalf("NextChunk after the last = %v, want io.EOF", err)
	}
	got := tr.Events()
	if len(got) != more {
		t.Fatalf("the trace holds %d events, want the %d appended past Close", len(got), more)
	}
	for i, e := range got {
		if e.Time != mem.Time(2+i) {
			t.Fatalf("event %d carries time %d after appending past Close", i, e.Time)
		}
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
	tr.Tail()
}

// blockLens is the chunk lengths a tail hands out for an n-event
// recording: full blocks, then the part-filled last one.
func blockLens(n int) []int {
	var lens []int
	for done := 0; done < n; done += DefaultBlockEvents {
		lens = append(lens, min(DefaultBlockEvents, n-done))
	}
	return lens
}

// TestTailRecyclesRecorderBuffers: behind a two-branch Fanout, as in
// whisper.Run, the recorder writes into the buffers the branches are done
// with, and the trace one branch collects is all that outlives the run
// (run it under -race). Over every tailSizes length and one long enough to
// wrap the buffers many times:
//   - the recorder writes into at most freeDepth distinct full-size
//     buffers, one more for each branch, however long the run: tailDepth
//     queued to the pump, fanoutDepth+2 between the pump and its slowest
//     branch, one open, and one a branch has moved past but not yet handed
//     back; so past the first blocks it allocates nothing;
//   - the chunks each branch is handed are whole blocks but the last;
//   - once the stream has ended the heap holds at most 8 bytes an event,
//     the collected trace's packed blocks and no buffer besides;
//   - an Append to the collected trace follows its events.
func TestTailRecyclesRecorderBuffers(t *testing.T) {
	for _, n := range append(slices.Clone(tailSizes), 192*DefaultBlockEvents+7) {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)

			kept, lens, full := recycledRun(t, n)

			runtime.GC()
			runtime.ReadMemStats(&after)
			live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			if limit := 8 * n; n >= 8*DefaultBlockEvents && live > int64(limit) {
				t.Errorf("%d bytes live after the end of the stream, want <= %d (8 B an event): a buffer outlived the run", live, limit)
			}

			for i, l := range lens {
				if want := blockLens(n); !slices.Equal(l, want) {
					t.Fatalf("branch %d was handed chunks of %v events, want %v", i, l, want)
				}
			}
			slices.Sort(full)
			if distinct, limit := len(slices.Compact(full)), freeDepth+len(lens); distinct > limit {
				t.Errorf("the recorder wrote into %d distinct full-size buffers, want <= %d", distinct, limit)
			}

			kept.Append(Event{Time: mem.Time(n)})
			got := kept.Events()
			for i, e := range got {
				if e.Time != mem.Time(i) {
					t.Fatalf("collected trace holds time %d at event %d", e.Time, i)
				}
			}
			if len(got) != n+1 {
				t.Fatalf("the trace holds %d events after one more Append, want %d", len(got), n+1)
			}
		})
	}
}

// recycledRun records n events under a tail read by a two-branch Fanout —
// one collecting the trace, one noting chunk lengths — and returns the
// collected trace, each branch's chunk lengths and, as addresses so the
// note keeps none of them alive, each full-size buffer the recorder opened
// a block in. It returns once the recorder, the pump and both branches are
// done, so nothing else of the run is reachable.
func recycledRun(t *testing.T, n int) (*Trace, [2][]int, []uintptr) {
	tr := &Trace{App: "tail"}
	tl := tr.Tail()
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
	branches := Fanout(tl, 2)
	var kept *Trace
	var lens [2][]int
	var err [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer branches[0].Close()
		in := &inOrder{EventSource: branches[0]}
		kept, err[0] = Collect(in)
		lens[0] = in.lens
	}()
	go func() {
		defer wg.Done()
		defer branches[1].Close()
		for {
			c, e := branches[1].NextChunk()
			if e != nil {
				if e != io.EOF {
					err[1] = e
				}
				return
			}
			lens[1] = append(lens[1], len(c))
		}
	}()
	wg.Wait()
	<-recorded
	if e := cmp.Or(err[:]...); e != nil {
		t.Fatal(e)
	}
	return kept, lens, full
}
