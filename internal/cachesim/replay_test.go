package cachesim

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestReplayEdgeCases is a table of replay inputs whose correct handling
// is easy to get wrong: fences with nothing outstanding, NT stores that
// straddle a line boundary, duplicate flushes, and zero-size accesses.
func TestReplayEdgeCases(t *testing.T) {
	base := mem.PMBase
	cases := []struct {
		name   string
		events []trace.Event
		want   Stats
	}{
		{
			name: "fence with no prior store",
			events: []trace.Event{
				{Kind: trace.KFence, TID: 0, Time: 1},
				{Kind: trace.KFence, TID: 1, Time: 2},
			},
			want: Stats{},
		},
		{
			name: "NT store crossing a line boundary",
			events: []trace.Event{
				// 8 bytes starting 4 bytes before a line boundary: 2 lines.
				{Kind: trace.KStoreNT, TID: 0, Time: 1, Addr: base + 60, Size: 8},
			},
			want: Stats{NTWrites: 2},
		},
		{
			name: "duplicate flush of the same line",
			events: []trace.Event{
				// Cacheable store allocates the line (1 PM read for the
				// fill); each CLWB of a still-cached line writes it back.
				{Kind: trace.KStore, TID: 0, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KFlush, TID: 0, Time: 2, Addr: base, Size: 64},
				{Kind: trace.KFlush, TID: 0, Time: 3, Addr: base, Size: 64},
			},
			want: Stats{PMReads: 1, PMWrites: 2},
		},
		{
			name: "flush after NT store writes nothing",
			events: []trace.Event{
				// The NT store bypasses and invalidates the caches, so the
				// following CLWB finds nothing to write back.
				{Kind: trace.KStore, TID: 0, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KStoreNT, TID: 0, Time: 2, Addr: base, Size: 64},
				{Kind: trace.KFlush, TID: 0, Time: 3, Addr: base, Size: 64},
			},
			want: Stats{PMReads: 1, NTWrites: 1},
		},
		{
			name: "flush of a never-cached line",
			events: []trace.Event{
				{Kind: trace.KFlush, TID: 0, Time: 1, Addr: base + 4096, Size: 64},
			},
			want: Stats{},
		},
		{
			name: "zero-size accesses touch nothing",
			events: []trace.Event{
				{Kind: trace.KStore, TID: 0, Time: 1, Addr: base, Size: 0},
				{Kind: trace.KStoreNT, TID: 0, Time: 2, Addr: base, Size: 0},
				{Kind: trace.KLoad, TID: 0, Time: 3, Addr: base, Size: 0},
				{Kind: trace.KFlush, TID: 0, Time: 4, Addr: base, Size: 0},
			},
			want: Stats{},
		},
		{
			name: "TID beyond core count wraps",
			events: []trace.Event{
				// Replay folds TIDs into the configured core count; a TID
				// equal to Threads lands on core 0.
				{Kind: trace.KStore, TID: 4, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KLoad, TID: 0, Time: 2, Addr: base, Size: 8},
			},
			want: Stats{PMReads: 1, L1Hits: 1},
		},
		{
			name: "TIDs 0 and 0xFFFF name cores",
			events: []trace.Event{
				// The edges of the TID range: 0xFFFF is core 3 of 4, and
				// 0 core 0. (TIDs were signed once, and a signed remainder
				// of -1 indexed l1[-1] here.)
				{Kind: trace.KStore, TID: 0xFFFF, Time: 1, Addr: base, Size: 8},
				{Kind: trace.KLoad, TID: 3, Time: 2, Addr: base, Size: 8},
				{Kind: trace.KStore, TID: 0, Time: 3, Addr: base + 64, Size: 8},
				{Kind: trace.KLoad, TID: 0, Time: 4, Addr: base + 64, Size: 8},
			},
			want: Stats{PMReads: 2, L1Hits: 2},
		},
		{
			name: "span wrapping the address space is one line",
			events: []trace.Event{
				// Addr+Size overflows; the shared walk cuts the event to its
				// first line, where a []mem.Line of the span had a negative
				// capacity.
				{Kind: trace.KStoreNT, TID: 0, Time: 1, Addr: ^mem.Addr(0) - 4, Size: 64},
			},
			want: Stats{NTWrites: 1},
		},
		{
			name: "4 GiB store stops at the walk bound",
			events: []trace.Event{
				{Kind: trace.KStoreNT, TID: 0, Time: 1, Addr: base, Size: 0xFFFFFFFF},
			},
			want: Stats{NTWrites: trace.MaxEventLines},
		},
		{
			name: "transaction markers are memory no-ops",
			events: []trace.Event{
				{Kind: trace.KTxBegin, TID: 0, Time: 1},
				{Kind: trace.KUserData, TID: 0, Time: 2, Size: 64},
				{Kind: trace.KTxEnd, TID: 0, Time: 3},
			},
			want: Stats{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.FromEvents(trace.Meta{App: "edge", Layer: "native", Threads: 4}, tc.events)

			got, err := ReplaySource(New(DefaultConfig()), trace.NewSliceSource(tr))
			if err != nil {
				t.Fatalf("ReplaySource: %v", err)
			}
			if got != tc.want {
				t.Errorf("ReplaySource stats = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestReplayAllocsIndependentOfLength: a pass over a warm working set
// allocates nothing per event — no []mem.Line per access — so four times
// the 4 KiB writes cost what one times does. The hierarchy is built once,
// outside the measured runs: its set arrays are a megabyte, and building
// one per run sets off collections whose own bookkeeping mallocs land in
// the count. AllocsPerRun's warm-up pass makes the directory entries.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	pass := func(writes int) float64 {
		events := make([]trace.Event, 0, 3*writes)
		for i := 0; i < writes; i++ {
			tm := mem.Time(3 * i)
			events = append(events,
				trace.Event{Kind: trace.KStore, Time: tm, Addr: mem.PMBase, Size: 4096},
				trace.Event{Kind: trace.KFlush, Time: tm + 1, Addr: mem.PMBase, Size: 4096},
				trace.Event{Kind: trace.KFence, Time: tm + 2})
		}
		tr := trace.FromEvents(trace.Meta{App: "allocs", Threads: 1}, events)
		h := New(DefaultConfig())
		return testing.AllocsPerRun(5, func() {
			if _, err := ReplaySource(h, trace.NewSliceSource(tr)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := pass(50), pass(200); one != four {
		t.Fatalf("50 4 KiB writes allocate %v times, 200 allocate %v: the replay allocates per event", one, four)
	}
}

// TestColdPassAllocsIndependentOfLines: every set of every cache is carved
// from one array when the hierarchy is built, so a cold pass over N
// distinct lines — each load a miss that fills both levels and, past the
// first few hundred lines, evicts — allocates only for the directory
// growing to N entries. (Sets that reallocated on every insert cost two
// allocations a line.) The directory's own growth is measured on a bare
// table of the same type and taken off, and so is the source's, a chunk a
// block it unpacks; how many tables its page map of 125 pages splits into
// varies by a few with the hash seed, hence the slack.
func TestColdPassAllocsIndependentOfLines(t *testing.T) {
	beyondDirectory := func(lines int) float64 {
		events := make([]trace.Event, lines)
		for i := range events {
			events[i] = trace.Event{Kind: trace.KLoad, Time: mem.Time(i), Addr: mem.PMBase + mem.Addr(i)*mem.LineSize, Size: 8}
		}
		tr := trace.FromEvents(trace.Meta{App: "cold", Threads: 1}, events)
		cfg := Config{L1Size: 4 << 10, L1Ways: 4, L2Size: 16 << 10, L2Ways: 8, Threads: 1}
		pass := testing.AllocsPerRun(5, func() {
			if _, err := ReplaySource(New(cfg), trace.NewSliceSource(tr)); err != nil {
				t.Fatal(err)
			}
		})
		dir := testing.AllocsPerRun(5, func() {
			var dir mem.LineTable[lineInfo]
			for i := 0; i < lines; i++ {
				*dir.Get(mem.LineOf(mem.PMBase) + mem.Line(i)) = lineInfo{}
			}
		})
		source := testing.AllocsPerRun(5, func() {
			for src := trace.NewSliceSource(tr); ; {
				if _, err := src.NextChunk(); err != nil {
					return
				}
			}
		})
		return pass - dir - source
	}
	if small, large := beyondDirectory(2_000), beyondDirectory(32_000); large > small+8 {
		t.Fatalf("a cold pass allocates %v times beyond its directory over 2 000 lines, %v over 32 000: the caches allocate per fill", small, large)
	}
}
