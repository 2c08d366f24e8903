package whisper

import (
	"io"
	"runtime"
	"testing"

	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// sweepSource is a read-mostly trace over lines lines spaced stride lines
// apart: two load sweeps, then a sweep that stores and flushes each line,
// fencing every eight. Once exhausted it records the live heap, while the
// consumer reading it is still inside its loop and holds its line tables.
type sweepSource struct {
	lines, stride int
	k             int
	clock         mem.Time
	live          uint64
}

func (s *sweepSource) Meta() trace.Meta {
	return trace.Meta{App: "sweep", Layer: "native", Threads: 1}
}

func (s *sweepSource) NextChunk() ([]trace.Event, error) {
	if s.k == 3*s.lines {
		s.live = liveHeap()
		return nil, io.EOF
	}
	chunk := make([]trace.Event, 0, trace.DefaultBlockEvents)
	for len(chunk)+3 <= cap(chunk) && s.k < 3*s.lines {
		sweep, n := s.k/s.lines, s.k%s.lines
		s.k++
		s.clock += 10
		a := mem.PMBase + mem.Addr(n*s.stride)*mem.LineSize
		if sweep < 2 {
			chunk = append(chunk, trace.Event{Kind: trace.KLoad, Time: s.clock, Addr: a, Size: 8})
			continue
		}
		chunk = append(chunk,
			trace.Event{Kind: trace.KStore, Time: s.clock, Addr: a, Size: 8},
			trace.Event{Kind: trace.KFlush, Time: s.clock + 1, Addr: a, Size: mem.LineSize})
		if n%8 == 7 {
			chunk = append(chunk, trace.Event{Kind: trace.KFence, Time: s.clock + 2})
		}
	}
	return chunk, nil
}

func (s *sweepSource) Volatile() (uint64, uint64) { return 0, 0 }

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTableBytesPerTouchedLine bounds the heap each tap keeps per line it
// has touched, read at the end of a pass while the tap still holds its
// state. The cache directory keys every line a load misses, so a
// read-mostly trace with a large footprint is its worst case; the epoch
// analysis and pmsan key the stored lines. Over a dense footprint of 1 M
// lines each pays about its entry size — 16 B for the directory and the
// last-writer table, 3 B for pmsan — where a map per tap paid 53 B
// (cachesim) and 39 B (pmsan). Over a footprint of one line per
// 256-line page each pays at most one page per touched line: 4 KiB of
// 16-byte entries plus the page's directory slot.
func TestTableBytesPerTouchedLine(t *testing.T) {
	if testing.Short() {
		t.Skip("per-line memory test sweeps 1 M lines")
	}
	taps := []struct {
		name string
		run  func(trace.EventSource) error
	}{
		{"epoch", func(src trace.EventSource) error { _, err := epoch.AnalyzeStream(src); return err }},
		{"pmsan", func(src trace.EventSource) error { _, err := pmsan.Run(src); return err }},
		{"cachesim", nil},
	}
	for _, row := range []struct {
		name          string
		lines, stride int
		limit         float64 // bytes per touched line
	}{
		{"dense", 1 << 20, 1, 24},
		{"scattered", 4096, 256, 4096 + 256},
	} {
		for _, tap := range taps {
			t.Run(row.name+"/"+tap.name, func(t *testing.T) {
				src := &sweepSource{lines: row.lines, stride: row.stride}
				run := tap.run
				if run == nil {
					// The hierarchy's set arrays are fixed-size; build
					// them before the baseline so only the directory counts.
					h := cachesim.New(cachesim.DefaultConfig())
					run = func(src trace.EventSource) error { _, err := cachesim.ReplaySource(h, src); return err }
				}
				before := liveHeap()
				if err := run(src); err != nil {
					t.Fatal(err)
				}
				perLine := (float64(src.live) - float64(before)) / float64(row.lines)
				t.Logf("%d lines, stride %d: %.1f B per touched line", row.lines, row.stride, perLine)
				if perLine > row.limit {
					t.Errorf("%.1f B live per touched line, want ≤ %.0f", perLine, row.limit)
				}
			})
		}
	}
}
