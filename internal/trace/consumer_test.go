package trace

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
)

// TestTIDTable: an entry is created zero-valued the first time its TID is
// asked for and is the same pointer ever after, for TIDs at both ends of
// the dense range, just past it, mid-range and the highest; only the last
// three touch the map.
func TestTIDTable(t *testing.T) {
	type state struct{ n int }
	var tab TIDTable[state]
	tids := []uint16{0, 63, 64, 1 << 15, 0xFFFF}
	first := make(map[uint16]*state)
	for i, tid := range tids {
		p := tab.Get(tid)
		if p == nil || p.n != 0 {
			t.Fatalf("Get(%d) = %+v, want a zero-valued entry", tid, p)
		}
		p.n = i + 1
		first[tid] = p
	}
	for round := 0; round < 2; round++ {
		for i, tid := range tids {
			if p := tab.Get(tid); p != first[tid] || p.n != i+1 {
				t.Fatalf("Get(%d) moved or lost its entry: %p %+v, first %p", tid, p, p, first[tid])
			}
		}
	}
	if len(tab.odd) != 3 {
		t.Fatalf("map holds %d entries, want 3 (TIDs 64, 1<<15 and 0xFFFF)", len(tab.odd))
	}

	var dense TIDTable[state]
	if allocs := testing.AllocsPerRun(10, func() {
		for tid := uint16(0); tid < 64; tid++ {
			dense.Get(tid).n++
		}
	}); allocs != 0 || dense.odd != nil {
		t.Fatalf("dense TIDs: %v allocations per pass after the first, map %v; want 0 and none", allocs, dense.odd)
	}
}

// TestEventLines is the one table for the one walk every consumer uses.
func TestEventLines(t *testing.T) {
	base := mem.PMBase
	cases := []struct {
		name  string
		addr  mem.Addr
		size  uint32
		first mem.Line
		n     int
	}{
		{"size 0", base + 8, 0, 0, 0},
		{"one byte", base + 63, 1, mem.LineOf(base), 1},
		{"whole line", base, 64, mem.LineOf(base), 1},
		{"line-straddling", base + 60, 8, mem.LineOf(base), 2},
		{"64 KiB (the suite's largest event)", base, 64 << 10, mem.LineOf(base), 1024},
		{"64 KiB unaligned", base + 1, 64 << 10, mem.LineOf(base), 1025},
		{"at the bound", base, MaxEventLines * mem.LineSize, mem.LineOf(base), MaxEventLines},
		{"one past the bound", base, MaxEventLines*mem.LineSize + 1, mem.LineOf(base), MaxEventLines},
		{"4 GiB", base, 0xFFFFFFFF, mem.LineOf(base), MaxEventLines},
		{"ends at the top of the address space", ^mem.Addr(0) - 63, 64, mem.LineOf(^mem.Addr(0)), 1},
		{"wrapping", ^mem.Addr(0) - 4, 64, mem.LineOf(^mem.Addr(0)), 1},
		{"wrapping, huge", ^mem.Addr(0) - 4, 0xFFFFFFFF, mem.LineOf(^mem.Addr(0)), 1},
	}
	for _, c := range cases {
		e := Event{Kind: KStore, Addr: c.addr, Size: c.size}
		first, n := e.Lines()
		if first != c.first || n != c.n {
			t.Errorf("%s: Lines() = (%d, %d), want (%d, %d)", c.name, first, n, c.first, c.n)
		}
		// Below the bound and without a wrap the walk is mem.Lines exactly.
		if n > 0 && n < MaxEventLines && c.addr+mem.Addr(c.size) > c.addr {
			want := mem.Lines(c.addr, int(c.size))
			if len(want) != n || want[0] != first {
				t.Errorf("%s: Lines() = (%d, %d), mem.Lines gives %d from %d", c.name, first, n, len(want), want[0])
			}
		}
	}
}
