package pmsan

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestSanitizerAllocsPerLine: a thread's line states live in 256-line
// pages, so storing, flushing and fencing N distinct lines — in clean
// transactions of 16 lines — allocates a page per 256 lines plus a
// constant for the sanitizer, its page map and its slices, never an
// object per line.
func TestSanitizerAllocsPerLine(t *testing.T) {
	const lines = 1 << 14
	events := make([]trace.Event, 0, 4*lines)
	tm := mem.Time(0)
	ev := func(k trace.Kind, a mem.Addr, size uint32) {
		tm++
		events = append(events, trace.Event{Kind: k, TID: 1, Time: tm, Addr: a, Size: size})
	}
	for i := 0; i < lines; i += 16 {
		ev(trace.KTxBegin, 0, 0)
		for j := i; j < i+16; j++ {
			a := mem.PMBase + mem.Addr(j)*mem.LineSize
			ev(trace.KStore, a, 8)
			ev(trace.KFlush, a, mem.LineSize)
		}
		ev(trace.KFence, 0, 0)
		ev(trace.KTxEnd, 0, 0)
	}
	allocs := testing.AllocsPerRun(3, func() {
		s := New(trace.Meta{App: "allocs", Threads: 2})
		for _, e := range events {
			s.Observe(e)
		}
		if r := s.Finish(); r.Errors() != 0 {
			t.Fatalf("clean transactions reported %d errors", r.Errors())
		}
	})
	if limit := float64(lines/256 + 32); allocs > limit {
		t.Fatalf("%d lines stored, flushed and fenced allocate %.0f times, want ≤ %.0f", lines, allocs, limit)
	}
}
