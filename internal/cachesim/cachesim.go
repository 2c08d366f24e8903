// Package cachesim models the two-level write-back cache hierarchy of the
// paper's gem5 configuration (Table 3): private split L1s, private L2s
// acting as the last level before memory, MOESI-lite coherence with the
// sticky-M ownership hint HOPS relies on (§6.3), and per-level hit/miss
// plus DRAM/PM traffic accounting used by the Figure 6 study.
//
// The simulator is functional (no timing): it classifies each access as an
// L1 hit, L2 hit, remote-cache transfer, or memory access, and attributes
// memory accesses to DRAM or PM by address. Timing belongs to
// internal/hops.ReplaySource; this package answers "where did the access go".
package cachesim

import (
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Config describes the hierarchy geometry. Sizes are in bytes; the caches
// are set-associative with LRU replacement within a set.
type Config struct {
	L1Size  int
	L1Ways  int
	L2Size  int
	L2Ways  int
	Threads int
}

// DefaultConfig mirrors Table 3: 64 KB split L1 (we model the D-side),
// 2 MB private L2, four hardware threads.
func DefaultConfig() Config {
	return Config{L1Size: 64 << 10, L1Ways: 8, L2Size: 2 << 20, L2Ways: 16, Threads: 4}
}

// lineState is a MOESI-lite coherence state.
type lineState uint8

const (
	invalid lineState = iota
	shared
	exclusive // Exclusive or Modified (we don't model write-back data)
)

// Stats counts classified accesses.
type Stats struct {
	L1Hits     uint64
	L2Hits     uint64
	RemoteHits uint64 // serviced by another core's cache (coherence)
	DRAMReads  uint64
	DRAMWrites uint64
	PMReads    uint64
	PMWrites   uint64
	NTWrites   uint64 // non-temporal writes (bypass caches, straight to PM)
	Evictions  uint64
}

// MemAccesses returns the number of accesses that reached memory.
func (s Stats) MemAccesses() uint64 {
	return s.DRAMReads + s.DRAMWrites + s.PMReads + s.PMWrites + s.NTWrites
}

// cache is one set-associative level.
type cache struct {
	sets [][]cacheLine // per set, LRU order (front = most recent)
	ways int
}

type cacheLine struct {
	line  mem.Line
	state lineState
}

func newCache(size, ways int) *cache {
	nsets := size / mem.LineSize / ways
	if nsets < 1 {
		nsets = 1
	}
	c := &cache{ways: ways}
	c.sets = make([][]cacheLine, nsets)
	return c
}

func (c *cache) setOf(l mem.Line) int { return int(uint64(l) % uint64(len(c.sets))) }

// lookup returns the line's state and promotes it to MRU.
func (c *cache) lookup(l mem.Line) lineState {
	set := c.sets[c.setOf(l)]
	for i, cl := range set {
		if cl.line == l && cl.state != invalid {
			copy(set[1:i+1], set[:i])
			set[0] = cl
			return cl.state
		}
	}
	return invalid
}

// insert places the line in MRU position, evicting LRU if needed. Returns
// whether an eviction of a valid line occurred.
func (c *cache) insert(l mem.Line, st lineState) bool {
	idx := c.setOf(l)
	set := c.sets[idx]
	for i, cl := range set {
		if cl.line == l {
			copy(set[1:i+1], set[:i])
			set[0] = cacheLine{l, st}
			return false
		}
	}
	evicted := false
	if len(set) >= c.ways {
		evicted = set[len(set)-1].state != invalid
		set = set[:len(set)-1]
	}
	set = append([]cacheLine{{l, st}}, set...)
	c.sets[idx] = set
	return evicted
}

// invalidate removes the line if present.
func (c *cache) invalidate(l mem.Line) {
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l {
			set[i].state = invalid
		}
	}
}

// downgrade moves an exclusive line to shared if present.
func (c *cache) downgrade(l mem.Line) {
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l && set[i].state == exclusive {
			set[i].state = shared
		}
	}
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg Config
	l1  []*cache
	l2  []*cache

	// stickyM remembers the last core that held each line exclusively,
	// even after eviction — the LogTM-SE-style hint of §6.3.
	stickyM map[mem.Line]int

	stats Stats
}

// New creates a hierarchy.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{cfg: cfg, stickyM: make(map[mem.Line]int)}
	for i := 0; i < cfg.Threads; i++ {
		h.l1 = append(h.l1, newCache(cfg.L1Size, cfg.L1Ways))
		h.l2 = append(h.l2, newCache(cfg.L2Size, cfg.L2Ways))
	}
	return h
}

// Access performs the memory event e on the core its thread runs on, a
// line at a time over e.Lines; events that touch no memory (fences,
// transaction markers) do nothing. TIDs map onto cores modulo Threads as
// unsigned numbers, so a negative TID in a hostile file still names one.
func (h *Hierarchy) Access(e trace.Event) {
	var op func(*Hierarchy, int, mem.Line)
	switch e.Kind {
	case trace.KStore, trace.KVStore:
		op = (*Hierarchy).writeLine
	case trace.KLoad, trace.KVLoad:
		op = (*Hierarchy).readLine
	case trace.KStoreNT:
		op = (*Hierarchy).writeNTLine
	case trace.KFlush:
		op = (*Hierarchy).flushLine
	default:
		return
	}
	tid := int(uint32(e.TID) % uint32(h.cfg.Threads))
	for l, n := e.Lines(); n > 0; l, n = l+1, n-1 {
		op(h, tid, l)
	}
}

// readLine performs a load of l by core tid.
func (h *Hierarchy) readLine(tid int, l mem.Line) {
	if h.l1[tid].lookup(l) != invalid {
		h.stats.L1Hits++
		return
	}
	if st := h.l2[tid].lookup(l); st != invalid {
		h.stats.L2Hits++
		h.l1[tid].fill(l, st, h)
		return
	}
	// Check other cores (coherence transfer).
	for o := 0; o < h.cfg.Threads; o++ {
		if o == tid {
			continue
		}
		if h.l1[o].lookup(l) != invalid || h.l2[o].lookup(l) != invalid {
			h.stats.RemoteHits++
			h.l1[o].downgrade(l)
			h.l2[o].downgrade(l)
			h.l1[tid].fill(l, shared, h)
			h.l2[tid].fill(l, shared, h)
			return
		}
	}
	// Memory access.
	if mem.LineIsPM(l) {
		h.stats.PMReads++
	} else {
		h.stats.DRAMReads++
	}
	h.l1[tid].fill(l, shared, h)
	h.l2[tid].fill(l, shared, h)
}

func (c *cache) fill(l mem.Line, st lineState, h *Hierarchy) {
	if c.insert(l, st) {
		h.stats.Evictions++
	}
}

// writeLine performs a cacheable store by core tid (write-allocate,
// writeback: the memory write happens on eviction/flush, counted as a
// PM/DRAM write).
func (h *Hierarchy) writeLine(tid int, l mem.Line) {
	// Invalidate all other copies (exclusive permission).
	for o := 0; o < h.cfg.Threads; o++ {
		if o == tid {
			continue
		}
		h.l1[o].invalidate(l)
		h.l2[o].invalidate(l)
	}
	if h.l1[tid].lookup(l) != invalid {
		h.stats.L1Hits++
	} else if h.l2[tid].lookup(l) != invalid {
		h.stats.L2Hits++
	} else {
		// Write-allocate: fetch then modify.
		if mem.LineIsPM(l) {
			h.stats.PMReads++
		} else {
			h.stats.DRAMReads++
		}
	}
	h.l1[tid].insert(l, exclusive)
	h.l2[tid].insert(l, exclusive)
	h.stickyM[l] = tid
}

// writeNTLine performs a non-temporal store: it bypasses the caches and
// goes straight to memory, invalidating any cached copies.
func (h *Hierarchy) writeNTLine(_ int, l mem.Line) {
	for o := 0; o < h.cfg.Threads; o++ {
		h.l1[o].invalidate(l)
		h.l2[o].invalidate(l)
	}
	h.stats.NTWrites++
}

// flushLine writes the line back to memory (CLWB): a PM or DRAM write if
// the line is cached anywhere.
func (h *Hierarchy) flushLine(_ int, l mem.Line) {
	cached := false
	for o := 0; o < h.cfg.Threads; o++ {
		if h.l1[o].lookup(l) != invalid || h.l2[o].lookup(l) != invalid {
			cached = true
		}
	}
	if !cached {
		return
	}
	if mem.LineIsPM(l) {
		h.stats.PMWrites++
	} else {
		h.stats.DRAMWrites++
	}
}

// StickyOwner returns the last core to hold the line exclusively, or -1.
func (h *Hierarchy) StickyOwner(l mem.Line) int {
	if o, ok := h.stickyM[l]; ok {
		return o
	}
	return -1
}

// Stats returns the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }
