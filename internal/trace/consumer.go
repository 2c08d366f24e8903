package trace

import "github.com/whisper-pm/whisper/internal/mem"

// What every consumer of an event stream asks of each event before its own
// work: which thread, and which lines. The epoch analysis, the HOPS
// replay, pmsan and cachesim all answer with the table and the walk below,
// so a file the decoder accepts — any TID, any Addr and Size — costs them
// the same bounded work and indexes nothing out of range.

// TIDTable resolves a TID to its *T: a direct-indexed array for the common
// small TIDs, so interleaved traces pay an array load per thread switch and
// not a map lookup, and a lazily built map for the rest (the TIDs of a
// many-shard service, or of hand-built or hostile traces). Entries are
// created zero-valued on first use and never move. The zero table is empty
// and ready to use.
type TIDTable[T any] struct {
	dense [64]*T
	odd   map[uint16]*T
}

// Get returns tid's entry, creating it on first use.
func (t *TIDTable[T]) Get(tid uint16) *T {
	if int(tid) < len(t.dense) {
		v := t.dense[tid]
		if v == nil {
			v = new(T)
			t.dense[tid] = v
		}
		return v
	}
	v := t.odd[tid]
	if v == nil {
		if t.odd == nil {
			t.odd = make(map[uint16]*T)
		}
		v = new(T)
		t.odd[tid] = v
	}
	return v
}

// MaxEventLines bounds the lines walked for one event, so a corrupt or
// adversarial file cannot drive a consumer into an effectively unbounded
// loop: 1<<16 lines is 4 MiB, and the largest event any suite member
// records is 1 024 lines (an NFS 64 KiB write).
const MaxEventLines = 1 << 16

// Lines returns the lines [first, first+n) that e's [Addr, Addr+Size)
// touches, to be walked as
//
//	for l, n := e.Lines(); n > 0; l, n = l+1, n-1
//
// A zero Size touches none, a range that wraps the address space is cut
// to its first line, and n never exceeds MaxEventLines. The receiver is a
// pointer because an inlined value receiver copies the event before
// reading two of its fields, which the consumers' per-event loops measured
// (5-15 % of a cachesim or epoch pass).
func (e *Event) Lines() (first mem.Line, n int) {
	if e.Size == 0 {
		return 0, 0
	}
	first = mem.LineOf(e.Addr)
	last := mem.LineOf(e.Addr + mem.Addr(e.Size) - 1)
	switch {
	case last < first: // Addr+Size wrapped
		return first, 1
	case last-first >= MaxEventLines:
		return first, MaxEventLines
	}
	return first, int(last-first) + 1
}
