package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// encoded returns tr in the binary trace format.
func encoded(t testing.TB, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSource(&buf, NewSliceSource(tr)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEverySourceOneContract feeds the same events through every
// EventSource the package has and holds each to the one contract: the
// recorded sequence, never an empty chunk, io.EOF that stays io.EOF, the
// volatile counters complete by then — and a chunk the caller was given
// earlier still reads the same after the source has been drained, which a
// source that decoded into a reused buffer would fail. A Fanout branch is
// the one exception, by design: its chunk goes back to its source once the
// branch moves past it — a tail's to the recorder, a Reader's or a
// SliceSource's to be unpacked into again — so it is held to reading right
// until the next call.
func TestEverySourceOneContract(t *testing.T) {
	// Three blocks and a part one, so a tail recycles buffers.
	orig := genTrace(rand.New(rand.NewSource(22)), 3*DefaultBlockEvents+17)
	want := orig.Events()

	reader := func(t *testing.T) EventSource {
		rd, err := NewReader(bytes.NewReader(encoded(t, orig)))
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}
	tail := func(*testing.T) *Tail {
		tr := &Trace{App: orig.App, Layer: orig.Layer, Threads: orig.Threads}
		tl := tr.Tail()
		go func() {
			for _, e := range want {
				tr.Append(e)
			}
			tr.VolatileLoads, tr.VolatileStores = orig.VolatileLoads, orig.VolatileStores
			tl.Close(nil)
		}()
		return tl
	}
	for _, tc := range []struct {
		name  string
		open  func(*testing.T) EventSource
		lends bool // its chunks are valid until the next call only
	}{
		{"slice", func(*testing.T) EventSource { return NewSliceSource(orig) }, false},
		{"reader-v2", reader, false},
		{"fanout-branch", func(*testing.T) EventSource { return Fanout(NewSliceSource(orig), 1)[0] }, true},
		{"fanout-over-reader", func(t *testing.T) EventSource { return Fanout(reader(t), 1)[0] }, true},
		{"fanout-over-slice", func(t *testing.T) EventSource {
			decoded, err := Decode(bytes.NewReader(encoded(t, orig)))
			if err != nil {
				t.Fatal(err)
			}
			return Fanout(NewSliceSource(decoded), 1)[0]
		}, true},
		{"tail", func(t *testing.T) EventSource { return tail(t) }, false},
		{"fanout-over-tail", func(t *testing.T) EventSource { return Fanout(tail(t), 1)[0] }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.open(t)
			if m := src.Meta(); m != (Meta{App: orig.App, Layer: orig.Layer, Threads: orig.Threads}) {
				t.Fatalf("Meta = %+v", m)
			}
			var chunks, asGiven [][]Event
			for {
				c, err := src.NextChunk()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("NextChunk: %v", err)
				}
				if len(c) == 0 {
					t.Fatalf("chunk %d is empty", len(chunks))
				}
				chunks = append(chunks, c)
				asGiven = append(asGiven, slices.Clone(c))
			}
			if _, err := src.NextChunk(); err != io.EOF {
				t.Fatalf("NextChunk after io.EOF = %v", err)
			}
			if l, s := src.Volatile(); l != orig.VolatileLoads || s != orig.VolatileStores {
				t.Fatalf("Volatile = %d, %d, want %d, %d", l, s, orig.VolatileLoads, orig.VolatileStores)
			}
			for i := range chunks {
				if !tc.lends && !slices.Equal(chunks[i], asGiven[i]) {
					t.Fatalf("chunk %d of %d changed after it was handed out", i, len(chunks))
				}
			}
			if got := slices.Concat(asGiven...); !slices.Equal(got, want) {
				t.Fatalf("%d events in %d chunks differ from the %d recorded", len(got), len(chunks), len(want))
			}
		})
	}
}

// TestDamagedStreamEndsInAnError cuts a stream short at every byte and
// flips every byte past its header (the CRCs cover all of that): the
// header is refused, or reading by chunks ends in an error that says what
// is wrong and stays — never in io.EOF over a short read — and what was
// delivered before it is a prefix of the recorded events.
func TestDamagedStreamEndsInAnError(t *testing.T) {
	orig := genTrace(rand.New(rand.NewSource(7)), 40)
	want := orig.Events()
	whole := encoded(t, orig)
	damaged := map[string][]byte{}
	for cut := 0; cut < len(whole); cut++ {
		damaged[fmt.Sprint("cut at ", cut)] = whole[:cut]
	}
	var header bytes.Buffer
	if _, err := NewWriter(&header, Meta{App: orig.App, Layer: orig.Layer, Threads: orig.Threads}); err != nil {
		t.Fatal(err)
	}
	for at := header.Len(); at < len(whole); at++ {
		flipped := slices.Clone(whole)
		flipped[at] ^= 0x40
		damaged[fmt.Sprint("flip at ", at)] = flipped
	}
	for what, data := range damaged {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			continue
		}
		var got []Event
		for {
			var c []Event
			if c, err = rd.NextChunk(); err != nil {
				break
			}
			if len(c) == 0 {
				t.Fatalf("%s: empty chunk", what)
			}
			got = append(got, c...)
		}
		if err == io.EOF || err.Error() == "" {
			t.Fatalf("%s: stream ended in %v after %d of %d events", what, err, len(got), len(want))
		}
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("%s: the %d events before the error are not a prefix of the recorded ones", what, len(got))
		}
		if _, again := rd.NextChunk(); again != err {
			t.Fatalf("%s: error %v became %v on the next call", what, err, again)
		}
	}
}
