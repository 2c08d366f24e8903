package trace

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func fanoutTestTrace() *Trace {
	tr := &Trace{App: "fan", Layer: "native", Threads: 2, VolatileLoads: 7, VolatileStores: 9}
	for i := 0; i < 3*DefaultBlockEvents+17; i++ {
		tr.Append(Event{Kind: KStore, TID: uint16(i % 2), Time: memTime(uint64(i + 1)), Addr: memAddr(uint64(64 * i)), Size: 8})
	}
	return tr
}

// drainBranch reads a branch to EOF and returns the events plus the
// post-EOF volatile counters.
func drainBranch(t *testing.T, b *Branch) ([]Event, uint64, uint64) {
	t.Helper()
	var got []Event
	for {
		c, err := b.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Errorf("NextChunk: %v", err)
			break
		}
		got = append(got, c...)
	}
	vl, vs := b.Volatile()
	return got, vl, vs
}

// perEvent reads a Reader through its stop-early Next only and hands each
// event out as a chunk of its own: the smallest chunks the contract allows.
type perEvent struct{ *Reader }

func (p perEvent) NextChunk() ([]Event, error) {
	e, err := p.Next()
	if err != nil {
		return nil, err
	}
	return []Event{e}, nil
}

func TestFanoutAllBranchesSeeFullStream(t *testing.T) {
	tr := fanoutTestTrace()
	for _, src := range []struct {
		name string
		mk   func() EventSource
	}{
		{"chunk-source", func() EventSource { return NewSliceSource(tr) }},
		{"next-only", func() EventSource {
			var buf bytes.Buffer
			if err := EncodeV2(&buf, NewSliceSource(tr)); err != nil {
				t.Fatal(err)
			}
			rd, err := NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return perEvent{rd}
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			branches := Fanout(src.mk(), 3)
			events := make([][]Event, len(branches))
			var wg sync.WaitGroup
			for i, b := range branches {
				wg.Add(1)
				go func(i int, b *Branch) {
					defer wg.Done()
					ev, vl, vs := drainBranch(t, b)
					if vl != tr.VolatileLoads || vs != tr.VolatileStores {
						t.Errorf("branch %d: Volatile = (%d, %d), want (%d, %d)",
							i, vl, vs, tr.VolatileLoads, tr.VolatileStores)
					}
					events[i] = ev
				}(i, b)
			}
			wg.Wait()
			for i, ev := range events {
				if !reflect.DeepEqual(ev, flat(tr)) {
					t.Fatalf("branch %d saw %d events, diverges from source (%d events)",
						i, len(ev), tr.Len())
				}
			}
		})
	}
}

func TestFanoutEarlyCloseReleasesPump(t *testing.T) {
	tr := fanoutTestTrace()
	branches := Fanout(NewSliceSource(tr), 2)
	// Branch 1 abandons immediately; branch 0 must still drain the whole
	// stream without the pump stalling on the dead branch.
	branches[1].Close()
	got, _, _ := drainBranch(t, branches[0])
	if !reflect.DeepEqual(got, flat(tr)) {
		t.Fatalf("surviving branch saw %d events, want %d", len(got), tr.Len())
	}
}

// failingSource errors after one chunk of n events; every branch must
// observe the same prefix and then the error.
type failingSource struct {
	n   int
	err error
}

func (f *failingSource) Meta() Meta { return Meta{App: "fail", Threads: 1} }
func (f *failingSource) NextChunk() ([]Event, error) {
	if f.n == 0 {
		return nil, f.err
	}
	chunk := make([]Event, f.n)
	for i := range chunk {
		chunk[i] = Event{Kind: KStore, TID: 0, Time: 1, Addr: 0, Size: 8}
	}
	f.n = 0
	return chunk, nil
}
func (f *failingSource) Volatile() (uint64, uint64) { return 0, 0 }

func TestFanoutPropagatesSourceError(t *testing.T) {
	wantErr := errors.New("mid-stream corruption")
	branches := Fanout(&failingSource{n: 5, err: wantErr}, 2)
	for i, b := range branches {
		seen := 0
		var err error
		for {
			var c []Event
			if c, err = b.NextChunk(); err != nil {
				break
			}
			seen += len(c)
		}
		if seen != 5 {
			t.Errorf("branch %d: saw %d events before error, want 5", i, seen)
		}
		if err != wantErr {
			t.Errorf("branch %d: err = %v, want %v", i, err, wantErr)
		}
	}
}

// panickingSource hands out one chunk of n events and then panics with
// value, as a source with a bug would.
type panickingSource struct {
	failingSource
	value any
}

func (p *panickingSource) NextChunk() ([]Event, error) {
	if p.n == 0 {
		panic(p.value)
	}
	return p.failingSource.NextChunk()
}

// TestFanoutSourcePanicReachesEveryBranch: a source that panics on the
// pump's goroutine does not end the process; every branch hands out what
// the source produced before it, then panics with the source's own value
// on its reader's goroutine, and the pump is gone.
func TestFanoutSourcePanicReachesEveryBranch(t *testing.T) {
	value := errors.New("source bug")
	base := runtime.NumGoroutine()
	branches := Fanout(&panickingSource{failingSource: failingSource{n: 5}, value: value}, 2)
	for i, b := range branches {
		seen := 0
		r := func() (r any) {
			defer func() { r = recover() }()
			for {
				c, err := b.NextChunk()
				if err != nil {
					t.Errorf("branch %d: NextChunk = %v, want a panic", i, err)
					return nil
				}
				seen += len(c)
			}
		}()
		if r != value {
			t.Errorf("branch %d: recovered %v, want the source's %v", i, r, value)
		}
		if seen != 5 {
			t.Errorf("branch %d: saw %d events before the panic, want 5", i, seen)
		}
	}
	requireGoroutines(t, base)
}
