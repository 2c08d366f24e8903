package mem

import (
	"math/rand"
	"testing"
)

// TestLineSetMatchesMap drives a LineSet through every membership path —
// high-water appends, the backwards scan, the switch to the index just past
// SmallSet, the index serving inserts and hits — against a map, checking
// after every Add that the position returned is the line's first-insertion
// position and that no line is counted twice.
func TestLineSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s LineSet
	for round, span := range []int{4, SmallSet - 1, SmallSet + 40, 3 * SmallSet, 8} {
		want := make(map[Line]int) // line -> first-insertion position
		for i := 0; i < 6*span; i++ {
			l := Line(1000 + rng.Intn(span))
			pos, added := s.Add(l)
			first, seen := want[l]
			if !seen {
				first = len(want)
				want[l] = first
			}
			if added == seen || pos != first {
				t.Fatalf("round %d: Add(%d) = (%d, %v), want (%d, %v)", round, l, pos, added, first, !seen)
			}
			if s.Len() != len(want) {
				t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), len(want))
			}
		}
		for l, pos := range want {
			if s.Lines()[pos] != l {
				t.Fatalf("round %d: Lines()[%d] = %d, want %d", round, pos, s.Lines()[pos], l)
			}
		}
		if span > SmallSet+1 && s.index == nil {
			t.Fatalf("round %d: %d lines in random order never built the index", round, s.Len())
		}
		s.Reset()
		if s.Len() != 0 || s.index != nil {
			t.Fatalf("round %d: after Reset Len = %d, index = %v", round, s.Len(), s.index)
		}
	}
}

// TestLineSetSwitchKeepsMembers pins the scan→index hand-over: every line
// inserted while the set was small is still found, at the same position,
// once lookups go through the index.
func TestLineSetSwitchKeepsMembers(t *testing.T) {
	var s LineSet
	n := SmallSet + 8
	for i := n; i > 0; i-- { // descending: never the high-water path
		if pos, added := s.Add(Line(i)); !added || pos != n-i {
			t.Fatalf("Add(%d) = (%d, %v), want (%d, true)", i, pos, added, n-i)
		}
	}
	for i := n; i > 0; i-- {
		if pos, added := s.Add(Line(i)); added || pos != n-i {
			t.Fatalf("second Add(%d) = (%d, %v), want (%d, false)", i, pos, added, n-i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	c := s.Clone()
	s.Reset()
	if pos, added := c.Add(Line(3)); added || pos != n-3 || c.Len() != n {
		t.Fatalf("clone lost a member: Add(3) = (%d, %v), Len %d", pos, added, c.Len())
	}
}

// TestLineSetSteadyStateDoesNotAllocate pins the fence-to-fence cycle of a
// small epoch: once the set has its capacity, Add and Reset allocate
// nothing.
func TestLineSetSteadyStateDoesNotAllocate(t *testing.T) {
	var s LineSet
	epoch := func() {
		for _, l := range [...]Line{9, 4, 9, 17, 4, 2} {
			s.Add(l)
		}
		s.Reset()
	}
	epoch()
	if a := testing.AllocsPerRun(100, epoch); a != 0 {
		t.Fatalf("a small epoch allocates %.1f times", a)
	}
}
