package mem

import (
	"math/rand"
	"testing"
)

const pageLines = 1 << tablePageShift

// TestLineTableMatchesMap drives a LineTable against a map over random
// lines mixed with the edges: line 0, the top line, and each side of page
// boundaries near both ends and in the middle. Every Get must see what the
// map holds, including the zero value for a line never written.
func TestLineTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []Line{0, 1, ^Line(0), ^Line(0) - 1}
	for _, p := range []Line{pageLines, 2 * pageLines, 1 << 20, ^Line(0) - pageLines + 1, ^Line(0)/2 + 1} {
		edges = append(edges, p-1, p, p+1)
	}
	lines := append([]Line(nil), edges...)
	for i := 0; i < 4000; i++ {
		switch rng.Intn(3) {
		case 0: // anywhere
			lines = append(lines, Line(rng.Uint64()))
		case 1: // a dense region a few pages wide
			lines = append(lines, Line(1<<30+rng.Intn(4*pageLines)))
		default:
			lines = append(lines, edges[rng.Intn(len(edges))])
		}
	}
	var tab LineTable[uint64]
	want := make(map[Line]uint64)
	for i, l := range lines {
		if got := *tab.Get(l); got != want[l] {
			t.Fatalf("step %d: Get(%#x) = %d, want %d", i, l, got, want[l])
		}
		v := rng.Uint64()
		*tab.Get(l) = v
		want[l] = v
	}
	for l, v := range want {
		if got := *tab.Get(l); got != v {
			t.Fatalf("final Get(%#x) = %d, want %d", l, got, v)
		}
	}
}

// TestLineTableZeroOnFirstUse: a fresh table, and a fresh page of a used
// one, hand out zero entries.
func TestLineTableZeroOnFirstUse(t *testing.T) {
	type entry struct {
		a uint64
		b bool
		c int32
	}
	var tab LineTable[entry]
	if got := *tab.Get(77); got != (entry{}) {
		t.Fatalf("fresh table: Get = %+v, want zero", got)
	}
	*tab.Get(77) = entry{1, true, -1}
	for _, l := range []Line{76, 78, 77 + pageLines, 0, ^Line(0)} {
		if got := *tab.Get(l); got != (entry{}) {
			t.Fatalf("Get(%d) = %+v, want zero", l, got)
		}
	}
}

// TestLineTablePointerStable: a pointer from Get still names the line's
// entry after many later pages are created, and writes through it are
// what the next Get sees.
func TestLineTablePointerStable(t *testing.T) {
	var tab LineTable[int]
	p := tab.Get(5)
	*p = 42
	for i := 0; i < 10_000; i++ {
		*tab.Get(Line(i+1) * pageLines) = i
	}
	if *p != 42 {
		t.Fatalf("held entry reads %d after 10 000 new pages, want 42", *p)
	}
	*p = 43
	if q := tab.Get(5); q != p || *q != 43 {
		t.Fatalf("Get(5) = %p (%d), want the held %p (43)", q, *q, p)
	}
}

// TestLineTableWarmPageDoesNotAllocate: once a page exists, Gets inside it
// — and alternating between two existing pages — allocate nothing.
func TestLineTableWarmPageDoesNotAllocate(t *testing.T) {
	var tab LineTable[[2]uint64]
	tab.Get(0)
	tab.Get(3 * pageLines)
	a := testing.AllocsPerRun(100, func() {
		for l := Line(0); l < pageLines; l++ {
			tab.Get(l)[0]++
			tab.Get(3*pageLines + l)[1]++
		}
	})
	if a != 0 {
		t.Fatalf("Gets on warm pages allocate %.1f times a run", a)
	}
}
