// Package cachesim models the two-level write-back cache hierarchy of the
// paper's gem5 configuration (Table 3): private split L1s, private L2s
// acting as the last level before memory, MOESI-lite coherence with the
// sticky-M ownership hint HOPS relies on (§6.3), and per-level hit/miss
// plus DRAM/PM traffic accounting used by the Figure 6 study.
//
// The simulator is functional (no timing): it classifies each access as an
// L1 hit, L2 hit, remote-cache transfer, or memory access, and attributes
// memory accesses to DRAM or PM by address. Timing belongs to
// internal/hops; this package answers "where did the access go".
//
// One directory entry per line says which caches hold it: bit 2c of its
// holder mask is core c's L1, bit 2c+1 its L2, and a bit is set exactly
// when that cache holds a valid entry for the line — set on a fill, cleared
// on an invalidation and when a valid entry is evicted. The entry also
// carries the sticky-M owner. A local L1 hit touches no table; a miss or a
// store looks the entry up once and updates it in place, and
// invalidations, remote lookups and flushes visit only the caches whose
// bit is set, never every core. Each cache's sets are carved from one
// array at construction and shift in place.
//
// Four behaviours are deliberate and pinned by the reference hierarchy in
// reference_test.go; changing any of them moves the bench `analyze`
// sim_digest and what `whisper -cache` prints:
//
//  1. Only a load's fills count evictions; a store's inserts evict
//     without counting.
//  2. A flush promotes the line to MRU in each holding core's L1, or in
//     its L2 when the L1 does not hold it.
//  3. An invalidated entry keeps its way and its LRU position, and falling
//     out of the set later is not an eviction.
//  4. Sticky-M survives eviction and non-temporal stores.
package cachesim

import (
	"fmt"
	"math/bits"

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

// maxThreads is the most cores the holder mask can name: two bits a core
// in a uint64.
const maxThreads = 32

// cache is one set-associative level. Its sets share one backing array of
// nsets × ways entries allocated by newCache: each set is a slice of it
// whose capacity is the associativity, so an insert shifts the set in place
// and a cache never allocates after construction.
type cache struct {
	sets [][]cacheLine // per set, LRU order (front = most recent)
	// mask is the set count less one: New admits only power-of-two set
	// counts, as both levels of DefaultConfig have, so a line's set is
	// its low bits.
	mask uint64
}

// cacheLine is one entry of a set: a line and its state in one word, the
// state in the top two bits. A line is an address over the line size, so
// it is below 2^58 and never reaches them.
type cacheLine uint64

const stateShift = 62

func entry(l mem.Line, st lineState) cacheLine {
	return cacheLine(l) | cacheLine(st)<<stateShift
}

func (cl cacheLine) line() mem.Line   { return mem.Line(cl &^ (3 << stateShift)) }
func (cl cacheLine) state() lineState { return lineState(cl >> stateShift) }

// setCount is the number of sets a level of size bytes and ways ways has;
// a level smaller than one set still has one.
func setCount(size, ways int) int {
	return max(size/mem.LineSize/ways, 1)
}

func newCache(size, ways int) cache {
	nsets := setCount(size, ways)
	backing := make([]cacheLine, nsets*ways)
	c := cache{sets: make([][]cacheLine, nsets), mask: uint64(nsets - 1)}
	for i := range c.sets {
		c.sets[i] = backing[i*ways : i*ways : (i+1)*ways]
	}
	return c
}

func (c *cache) setOf(l mem.Line) *[]cacheLine { return &c.sets[uint64(l)&c.mask] }

// lookup returns the line's state and promotes it to MRU.
func (c *cache) lookup(l mem.Line) lineState {
	set := *c.setOf(l)
	for i, cl := range set {
		if cl.line() == l && cl.state() != invalid {
			copy(set[1:i+1], set[:i])
			set[0] = cl
			return cl.state()
		}
	}
	return invalid
}

// insert places the line in MRU position with state st. An entry the set
// already has for the line, valid or not, moves to the front; otherwise a
// full set drops its LRU entry, and when that entry was valid insert
// returns its line as the victim.
func (c *cache) insert(l mem.Line, st lineState) (victim mem.Line, evicted bool) {
	p := c.setOf(l)
	set := *p
	i := 0
	for i < len(set) && set[i].line() != l {
		i++
	}
	if i == len(set) {
		if len(set) < cap(set) {
			set = set[:i+1]
			*p = set
		} else {
			i--
			victim, evicted = set[i].line(), set[i].state() != invalid
		}
	}
	copy(set[1:i+1], set[:i])
	set[0] = entry(l, st)
	return victim, evicted
}

// invalidate marks the line's entry invalid; it keeps its way and its LRU
// position.
func (c *cache) invalidate(l mem.Line) {
	set := *c.setOf(l)
	for i := range set {
		if set[i].line() == l {
			set[i] = entry(l, invalid)
		}
	}
}

// downgrade moves an exclusive line to shared if present.
func (c *cache) downgrade(l mem.Line) {
	set := *c.setOf(l)
	for i := range set {
		if set[i] == entry(l, exclusive) {
			set[i] = entry(l, shared)
		}
	}
}

// lineInfo is a line's directory entry.
type lineInfo struct {
	// holders has bit b set exactly when caches[b] holds a valid entry for
	// the line: bit 2c is core c's L1, bit 2c+1 its L2.
	holders uint64
	// sticky is one more than the last core to hold the line exclusively,
	// kept after eviction — the LogTM-SE-style hint of §6.3; 0 when no core
	// has.
	sticky int32
}

// coreBits is the holder mask of core c's two caches.
func coreBits(c int) uint64 { return 3 << (2 * c) }

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg Config
	// caches holds core c's L1 at index 2c and its L2 at 2c+1: a cache's
	// index is its bit in lineInfo.holders.
	caches []cache
	// dir has an entry for every line any access has touched — a load
	// that misses L1 makes one as surely as a store does — so sticky-M
	// outlives the copies. It grows with the pass's footprint a 4 KiB page
	// of 256 entries at a time: 16.1 B per touched line when the footprint
	// is dense, 4.1 KiB when it touches one line per page
	// (TestTableBytesPerTouchedLine in the root package pins both).
	dir mem.LineTable[lineInfo]

	stats Stats
}

// New creates a hierarchy. It panics, naming the field, unless Threads is
// 1 to 32, both associativities are at least 1, both sizes at least one
// line and both levels a power-of-two number of sets.
func New(cfg Config) *Hierarchy {
	require(cfg.Threads >= 1 && cfg.Threads <= maxThreads, "Threads", cfg.Threads, fmt.Sprintf("1 to %d", maxThreads))
	require(cfg.L1Ways >= 1, "L1Ways", cfg.L1Ways, "at least 1")
	require(cfg.L2Ways >= 1, "L2Ways", cfg.L2Ways, "at least 1")
	require(cfg.L1Size >= mem.LineSize, "L1Size", cfg.L1Size, fmt.Sprintf("at least one %d-byte line", mem.LineSize))
	require(cfg.L2Size >= mem.LineSize, "L2Size", cfg.L2Size, fmt.Sprintf("at least one %d-byte line", mem.LineSize))
	require(bits.OnesCount(uint(setCount(cfg.L1Size, cfg.L1Ways))) == 1, "L1Size", cfg.L1Size, setsWanted(cfg.L1Ways))
	require(bits.OnesCount(uint(setCount(cfg.L2Size, cfg.L2Ways))) == 1, "L2Size", cfg.L2Size, setsWanted(cfg.L2Ways))
	h := &Hierarchy{cfg: cfg, caches: make([]cache, 0, 2*cfg.Threads)}
	for i := 0; i < cfg.Threads; i++ {
		h.caches = append(h.caches, newCache(cfg.L1Size, cfg.L1Ways), newCache(cfg.L2Size, cfg.L2Ways))
	}
	return h
}

func setsWanted(ways int) string {
	return fmt.Sprintf("a power-of-two count of %d-way sets of %d-byte lines", ways, mem.LineSize)
}

func require(ok bool, field string, v int, want string) {
	if !ok {
		panic(fmt.Sprintf("cachesim: Config.%s = %d, want %s", field, v, want))
	}
}

// Access performs the memory event e on the core its thread runs on, a
// line at a time over e.Lines; events that touch no memory (fences,
// transaction markers) do nothing. TIDs map onto cores modulo Threads, so
// any TID a file names, 0xFFFF included, names one.
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
	case trace.KReleased:
		panic("cachesim: an event read after its chunk was released")
	default:
		return
	}
	tid := int(uint32(e.TID) % uint32(h.cfg.Threads))
	for l, n := e.Lines(); n > 0; l, n = l+1, n-1 {
		op(h, tid, l)
	}
}

// readLine performs a load of l by core tid. An L1 hit touches no table;
// anything else looks the line's entry up once.
func (h *Hierarchy) readLine(tid int, l mem.Line) {
	l1, l2 := 2*tid, 2*tid+1
	if h.caches[l1].lookup(l) != invalid {
		h.stats.L1Hits++
		return
	}
	info := h.dir.Get(l)
	if others := info.holders &^ coreBits(tid); info.holders&(1<<l2) != 0 {
		h.stats.L2Hits++
		h.fill(l1, l, h.caches[l2].lookup(l), info)
	} else if others != 0 {
		// Coherence transfer from the lowest-numbered core holding the
		// line: its L1 if that holds it (the lower bit), else its L2.
		b := bits.TrailingZeros64(others)
		h.caches[b].lookup(l)
		h.stats.RemoteHits++
		o := b &^ 1
		h.caches[o].downgrade(l)
		h.caches[o+1].downgrade(l)
		h.fill(l1, l, shared, info)
		h.fill(l2, l, shared, info)
	} else {
		h.countRead(l)
		h.fill(l1, l, shared, info)
		h.fill(l2, l, shared, info)
	}
}

// countRead counts a read of l from memory.
func (h *Hierarchy) countRead(l mem.Line) {
	if mem.LineIsPM(l) {
		h.stats.PMReads++
	} else {
		h.stats.DRAMReads++
	}
}

// fill allocates l in caches[b] for a load; a load's fill is the only
// place an eviction is counted.
func (h *Hierarchy) fill(b int, l mem.Line, st lineState, info *lineInfo) {
	if h.allocate(b, l, st, info) {
		h.stats.Evictions++
	}
}

// allocate inserts l into caches[b] and sets its holder bit in info; a
// valid line the insert evicts loses its bit in its own entry. It reports
// whether there was one.
func (h *Hierarchy) allocate(b int, l mem.Line, st lineState, info *lineInfo) bool {
	victim, evicted := h.caches[b].insert(l, st)
	if evicted {
		h.dir.Get(victim).holders &^= 1 << b
	}
	info.holders |= 1 << b
	return evicted
}

// invalidate invalidates l in every cache of the mask and clears their
// bits in info.
func (h *Hierarchy) invalidate(l mem.Line, info *lineInfo, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		h.caches[bits.TrailingZeros64(m)].invalidate(l)
	}
	info.holders &^= mask
}

// writeLine performs a cacheable store by core tid (write-allocate,
// writeback: the memory write happens on eviction/flush, counted as a
// PM/DRAM write). It invalidates every other core's copy and takes the
// line exclusive in both of its own caches; inserting an entry the cache
// holds promotes it as a lookup would.
func (h *Hierarchy) writeLine(tid int, l mem.Line) {
	l1, l2 := 2*tid, 2*tid+1
	info := h.dir.Get(l)
	h.invalidate(l, info, info.holders&^coreBits(tid))
	switch {
	case info.holders&(1<<l1) != 0:
		h.stats.L1Hits++
	case info.holders&(1<<l2) != 0:
		h.stats.L2Hits++
	default:
		h.countRead(l) // write-allocate: fetch then modify
	}
	h.allocate(l1, l, exclusive, info)
	h.allocate(l2, l, exclusive, info)
	info.sticky = int32(tid) + 1
}

// writeNTLine performs a non-temporal store: it bypasses the caches and
// goes straight to memory, invalidating any cached copies.
func (h *Hierarchy) writeNTLine(_ int, l mem.Line) {
	info := h.dir.Get(l)
	h.invalidate(l, info, info.holders)
	h.stats.NTWrites++
}

// flushLine writes the line back to memory (CLWB): a PM or DRAM write if
// the line is cached anywhere. Each holding core finds it in its L1, or
// in its L2 when the L1 does not hold it, and promotes it there.
func (h *Hierarchy) flushLine(_ int, l mem.Line) {
	holders := h.dir.Get(l).holders
	if holders == 0 {
		return
	}
	for m := holders; m != 0; {
		b := bits.TrailingZeros64(m)
		h.caches[b].lookup(l)
		m &^= coreBits(b / 2)
	}
	if mem.LineIsPM(l) {
		h.stats.PMWrites++
	} else {
		h.stats.DRAMWrites++
	}
}

// Stats returns the accumulated counters.
func (h *Hierarchy) Stats() Stats { return h.stats }
