package epoch

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// The oracle: the original materialized analysis, kept as the reference
// AnalyzeStream is compared against. It shares nothing with the streaming
// state machine — maps keyed by TID and line where that one uses dense
// tables and paged slots — so agreement between the two is evidence, not
// tautology.

// openEpoch accumulates one thread's in-progress epoch.
type openEpoch struct {
	lines map[mem.Line]bool
	bytes int
	start mem.Time
	dirty bool
}

func newOpenEpoch() *openEpoch { return &openEpoch{lines: make(map[mem.Line]bool)} }

// lineWriter remembers the last epoch that wrote a line.
type lineWriter struct {
	thread uint16
	end    mem.Time
}

// referenceAnalyze is the map-per-epoch walk that was epoch.Analyze until the
// analysis collapsed onto AnalyzeStream, moved here unchanged.
func referenceAnalyze(tr *trace.Trace) *Analysis {
	a := &Analysis{
		App:          tr.App,
		Layer:        tr.Layer,
		Threads:      tr.Threads,
		DRAMAccesses: tr.VolatileLoads + tr.VolatileStores,
	}
	events := tr.Events()
	if len(events) > 0 {
		a.Duration = events[len(events)-1].Time - events[0].Time
	}

	open := make(map[uint16]*openEpoch)
	lastWriter := make(map[mem.Line]lineWriter)
	inTx := make(map[uint16]bool)
	txEpochs := make(map[uint16]int)

	for _, e := range events {
		switch e.Kind {
		case trace.KLoad:
			a.PMAccesses++

		case trace.KVLoad, trace.KVStore:
			a.DRAMAccesses++

		case trace.KStore, trace.KStoreNT:
			a.PMAccesses++
			oe := open[e.TID]
			if oe == nil {
				oe = newOpenEpoch()
				open[e.TID] = oe
			}
			if !oe.dirty {
				oe.start = e.Time
				oe.dirty = true
			}
			for _, l := range mem.Lines(e.Addr, int(e.Size)) {
				oe.lines[l] = true
			}
			oe.bytes += int(e.Size)
			if e.Kind == trace.KStore {
				a.CacheableStores++
				a.CacheableBytes += uint64(e.Size)
			} else {
				a.NTStores++
				a.NTBytes += uint64(e.Size)
			}
			a.TotalPMBytes += uint64(e.Size)

		case trace.KFence:
			oe := open[e.TID]
			if oe == nil || len(oe.lines) == 0 {
				// Empty epoch: §5.1 measures epochs in unique 64 B lines
				// written between fences, so a fence preceded only by
				// flushes (the legal dfence-style ordering idiom) or by
				// zero-byte stores orders nothing and closes no epoch.
				// Reset any zero-line open state so a stale start time
				// cannot leak into the next real epoch.
				if oe != nil && oe.dirty {
					open[e.TID] = newOpenEpoch()
				}
				continue
			}
			a.closeEpoch(e.TID, e.Time, oe, lastWriter)
			open[e.TID] = newOpenEpoch()
			if inTx[e.TID] {
				txEpochs[e.TID]++
			}

		case trace.KTxBegin:
			inTx[e.TID] = true
			txEpochs[e.TID] = 0

		case trace.KTxEnd:
			if inTx[e.TID] {
				// Read-only transactions contain no ordering points and
				// are not durable transactions; Figure 3 measures epochs
				// per durable transaction.
				if txEpochs[e.TID] > 0 {
					a.TxEpochCounts = append(a.TxEpochCounts, txEpochs[e.TID])
				}
				inTx[e.TID] = false
			}

		case trace.KUserData:
			a.UserBytes += uint64(e.Size)
		}
	}
	return a
}

func (a *Analysis) closeEpoch(tid uint16, end mem.Time, oe *openEpoch, lastWriter map[mem.Line]lineWriter) {
	a.TotalEpochs++
	n := len(oe.lines)
	a.SizeHist[sizeBucket(n)]++
	if n == 1 {
		a.Singletons++
		if oe.bytes < 10 {
			a.SmallSingletons++
		}
	}
	self, cross := false, false
	for l := range oe.lines {
		if w, ok := lastWriter[l]; ok {
			// The dependency window is measured on the global clock
			// between the earlier epoch's completion and this epoch's
			// first store.
			if oe.start >= w.end && oe.start-w.end <= DependencyWindow {
				if w.thread == tid {
					self = true
				} else {
					cross = true
				}
			} else if oe.start < w.end && end-w.end <= DependencyWindow {
				// Overlapping epochs (interleaved threads): still a WAW
				// within the window.
				if w.thread == tid {
					self = true
				} else {
					cross = true
				}
			}
		}
		lastWriter[l] = lineWriter{thread: tid, end: end}
	}
	if self {
		a.SelfDepEpochs++
	}
	if cross {
		a.CrossDepEpochs++
	}
}

// perEvent hands a trace out in one-event chunks: nothing in the analysis
// (the first/last timestamps, the cached thread state) may depend on where
// a chunk ends.
type perEvent struct {
	*trace.SliceSource
	rest []trace.Event
}

func (p *perEvent) NextChunk() ([]trace.Event, error) {
	if len(p.rest) == 0 {
		c, err := p.SliceSource.NextChunk()
		if err != nil {
			return nil, err
		}
		p.rest = c
	}
	c := p.rest[:1:1]
	p.rest = p.rest[1:]
	return c, nil
}

// feeds returns tr as every kind of source AnalyzeStream meets in the
// repo: the in-memory slice (epoch.Analyze, whisper.Run), a v2 file
// reader (AnalyzeReader), a fan-out branch (the fused pass), and the same
// events in the smallest chunks a source may hand out.
func feeds(t *testing.T, tr *trace.Trace) map[string]trace.EventSource {
	t.Helper()
	out := map[string]trace.EventSource{
		"slice":     trace.NewSliceSource(tr),
		"per-event": &perEvent{SliceSource: trace.NewSliceSource(tr)},
	}
	branches := trace.Fanout(trace.NewSliceSource(tr), 2)
	go func() { // the sibling branch must drain or the pump stalls
		for {
			if _, err := branches[1].NextChunk(); err != nil {
				return
			}
		}
	}()
	out["fanout"] = branches[0]
	// The codec refuses to carry a negative thread count, so those
	// hand-built traces skip the file round trip.
	if tr.Threads >= 0 {
		var buf bytes.Buffer
		if err := trace.EncodeSource(&buf, trace.NewSliceSource(tr)); err != nil {
			t.Fatalf("EncodeSource: %v", err)
		}
		rd, err := trace.NewReader(&buf)
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		out["v2-reader"] = rd
	}
	return out
}

// requireMatchesOracle asserts that AnalyzeStream, fed tr every way feeds
// offers, equals the reference walk exactly, and returns the oracle's
// result for further assertions.
func requireMatchesOracle(t *testing.T, tr *trace.Trace) *Analysis {
	t.Helper()
	want := referenceAnalyze(tr)
	for name, src := range feeds(t, tr) {
		got, err := AnalyzeStream(src)
		if err != nil {
			t.Fatalf("%s: AnalyzeStream: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: analysis diverges from the reference walk:\nreference: %+v\nstream:    %+v", name, want, got)
		}
	}
	if got := Analyze(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze diverges from the reference walk:\nreference: %+v\nAnalyze:   %+v", want, got)
	}
	return want
}

// TestDegenerateAgainstOracle holds the edge shapes to the oracle: the
// zero-line epochs, more TIDs than the dense thread table, and an epoch
// one line past what the line set looks up by scanning.
func TestDegenerateAgainstOracle(t *testing.T) {
	wide := &trace.Trace{App: "wide", Layer: "native", Threads: 100}
	for i := 0; i < 100; i++ {
		tid := uint16(i)
		wide.Append(st(tid, mem.Time(10*i+1), pm+mem.Addr(i)*mem.LineSize, 8))
		wide.Append(st(tid, mem.Time(10*i+2), pm, 8)) // shared line
		wide.Append(fence(tid, mem.Time(10*i+3)))
	}
	var large []trace.Event
	for i := 0; i <= mem.SmallSet; i++ {
		large = append(large, st(0, mem.Time(i+1), pm+mem.Addr(i)*mem.LineSize, 8))
	}
	large = append(large, fence(0, mem.SmallSet+2), st(1, mem.SmallSet+3, pm, 8), fence(1, mem.SmallSet+4))

	cases := []struct {
		name       string
		tr         *trace.Trace
		wantEpochs int
	}{
		{"flush-only", mk(
			trace.Event{Kind: trace.KFlush, TID: 0, Time: 1, Addr: pm, Size: 64},
			fence(0, 2),
		), 0},
		{"zero-byte-store", mk(st(0, 1, pm, 0), fence(0, 2), st(0, 10, pm, 8), fence(0, 11)), 1},
		{"beyond-dense-tids", wide, 100},
		{"beyond-small-set", mk(large...), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := requireMatchesOracle(t, c.tr).TotalEpochs; got != c.wantEpochs {
				t.Fatalf("TotalEpochs = %d, want %d", got, c.wantEpochs)
			}
		})
	}
}

// TestLineSetSizesAgainstOracle walks epochs across every lookup regime of
// the per-thread mem.LineSet — under, at and one past SmallSet, and 2 048
// lines — written ascending (every line above the last: no lookup),
// descending (every line a lookup that misses) and ascending then
// descending again (every second-pass line a lookup that hits), two
// threads alternating so each epoch also classifies against the other's.
func TestLineSetSizesAgainstOracle(t *testing.T) {
	for _, n := range []int{mem.SmallSet - 1, mem.SmallSet, mem.SmallSet + 1, 2048} {
		asc := make([]int, n)
		for i := range asc {
			asc[i] = i
		}
		desc := slices.Clone(asc)
		slices.Reverse(desc)
		orders := map[string][]int{"ascending": asc, "descending": desc, "repeats": slices.Concat(asc, desc)}
		for name, order := range orders {
			tr := &trace.Trace{App: "sizes", Layer: "native", Threads: 2}
			clock := mem.Time(1)
			for epoch := 0; epoch < 4; epoch++ {
				tid := uint16(epoch % 2)
				for _, i := range order {
					tr.Append(st(tid, clock, pm+mem.Addr(i)*mem.LineSize, 8))
					clock++
				}
				tr.Append(fence(tid, clock))
				clock++
			}
			a := requireMatchesOracle(t, tr)
			if a.SizeHist[sizeBucket(n)] != 4 || a.CrossDepEpochs != 3 {
				t.Errorf("%d lines %s: size histogram %v, %d cross-dependent epochs; want 4 epochs of %d lines, 3 cross-dependent",
					n, name, a.SizeHist, a.CrossDepEpochs, n)
			}
		}
	}
}
