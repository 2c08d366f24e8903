package mem

// SmallSet is the set size up to which LineSet looks a line up by a
// backwards scan. WHISPER's epochs are overwhelmingly a handful of lines, so
// the scan (a few compares over one or two cache lines of line numbers) is
// all the common case ever pays; scanning a full small set costs about what
// one map insert does.
const SmallSet = 64

// LineSet is a set of distinct cache lines in first-insertion order, built
// for the per-thread sets a fence empties: the device's CLWB and WCB sets
// (internal/pmem keeps each line's snapshot beside it), the HOPS replay's
// reconstruction of them (internal/hops, keys only) and the epoch
// analysis's open epoch (internal/epoch). A line
// above every member (hi) is new without a lookup, which covers log appends
// and copy-forward runs of any length. Otherwise membership is a backwards
// scan while the set holds at most SmallSet lines, and beyond that an index
// (line -> position) built by the first such lookup, which serves the rest
// of the epoch and is dropped at Reset. Reset truncates, so the cost of a
// fence is the lines added since the previous one — never the size of the
// largest epoch the thread has had — and steady-state small epochs allocate
// nothing. The zero LineSet is empty and ready to use.
type LineSet struct {
	lines []Line
	hi    Line           // highest member; valid when len(lines) > 0
	index map[Line]int32 // nil until a lookup in a set beyond SmallSet
}

// Add inserts l unless it is already a member. pos is l's position in
// first-insertion order either way; added reports whether this call
// inserted it.
func (s *LineSet) Add(l Line) (pos int, added bool) {
	switch {
	case len(s.lines) == 0 || l > s.hi:
		s.hi = l
	case len(s.lines) <= SmallSet:
		for i := len(s.lines) - 1; i >= 0; i-- {
			if s.lines[i] == l {
				return i, false
			}
		}
	default:
		if s.index == nil {
			s.index = make(map[Line]int32, 2*len(s.lines))
			for i, pl := range s.lines {
				s.index[pl] = int32(i)
			}
		}
		if i, ok := s.index[l]; ok {
			return int(i), false
		}
	}
	if s.index != nil {
		s.index[l] = int32(len(s.lines))
	}
	s.lines = append(s.lines, l)
	return len(s.lines) - 1, true
}

// Len returns the number of distinct lines in the set.
func (s *LineSet) Len() int { return len(s.lines) }

// Lines returns the members in first-insertion order. The slice is the
// set's own: it is valid until the next Add or Reset and must not be
// modified.
func (s *LineSet) Lines() []Line { return s.lines }

// Reset empties the set, keeping its capacity and dropping the index.
func (s *LineSet) Reset() {
	s.lines = s.lines[:0]
	s.index = nil
}

// Clone returns an independent copy. The index is not copied; Add rebuilds
// it on demand.
func (s *LineSet) Clone() LineSet {
	return LineSet{lines: append([]Line(nil), s.lines...), hi: s.hi}
}
