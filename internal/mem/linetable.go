package mem

// tablePageShift sizes LineTable's pages: 256 lines (16 KiB of memory) per
// page. PM heaps are arena-allocated and dense, so a handful of pages covers
// a whole app. That does not make the one-entry page cache hit almost
// always: in the fused analysis pass 39 % / 45 % / 30 % / 20 % of Gets miss
// it on ycsb / ctree / vacation / nfs, mostly the cache simulation's
// eviction path, which looks up the victim's entry on another page. A miss
// costs one map lookup.
const tablePageShift = 8

type tablePage[T any] [1 << tablePageShift]T

// LineTable maps every line to a T: the per-line state of the analyses
// (the epoch analysis's last writers, the cache directory, pmsan's
// durability states, the HOPS machine's owners and durable image). Lines
// are grouped into 256-line pages held in a sparse page directory, with the
// last page used cached in front of it. A page is allocated whole the first
// time any of its lines is asked for, so memory is one page per distinct
// 256-line region touched — dense footprints pay the entry size per line,
// a footprint of one line per page pays the whole page — and entries are
// never removed. The zero LineTable is empty and ready to use.
type LineTable[T any] struct {
	pages   map[uint64]*tablePage[T]
	lastKey uint64
	last    *tablePage[T]
}

// Get returns l's entry, zero-valued on first use. The pointer stays valid
// for the life of the table: later Gets, of any line, never move an entry.
func (t *LineTable[T]) Get(l Line) *T {
	if key := uint64(l) >> tablePageShift; t.last == nil || key != t.lastKey {
		t.load(key)
	}
	return &t.last[uint64(l)&(1<<tablePageShift-1)]
}

// load makes page key the cached page, allocating it on first use.
func (t *LineTable[T]) load(key uint64) {
	p := t.pages[key]
	if p == nil {
		if t.pages == nil {
			t.pages = make(map[uint64]*tablePage[T])
		}
		p = new(tablePage[T])
		t.pages[key] = p
	}
	t.lastKey, t.last = key, p
}
