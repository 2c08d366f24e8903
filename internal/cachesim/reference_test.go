package cachesim

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// The reference hierarchy: the simulator as it stood before the holder
// directory, moved here verbatim (identifiers prefixed ref, nothing else
// changed). It scans every core to find a line, keeps sticky-M in a map of
// its own and reallocates a set on every insert, so it shares no
// bookkeeping with cachesim.go — an independent statement of what every
// access counts, and TestHierarchyMatchesReference holds Hierarchy to it.

// refCache is one set-associative level.
type refCache struct {
	sets [][]refCacheLine // per set, LRU order (front = most recent)
	ways int
}

type refCacheLine struct {
	line  mem.Line
	state lineState
}

func newRefCache(size, ways int) *refCache {
	nsets := size / mem.LineSize / ways
	if nsets < 1 {
		nsets = 1
	}
	c := &refCache{ways: ways}
	c.sets = make([][]refCacheLine, nsets)
	return c
}

func (c *refCache) setOf(l mem.Line) int { return int(uint64(l) % uint64(len(c.sets))) }

// lookup returns the line's state and promotes it to MRU.
func (c *refCache) lookup(l mem.Line) lineState {
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
func (c *refCache) insert(l mem.Line, st lineState) bool {
	idx := c.setOf(l)
	set := c.sets[idx]
	for i, cl := range set {
		if cl.line == l {
			copy(set[1:i+1], set[:i])
			set[0] = refCacheLine{l, st}
			return false
		}
	}
	evicted := false
	if len(set) >= c.ways {
		evicted = set[len(set)-1].state != invalid
		set = set[:len(set)-1]
	}
	set = append([]refCacheLine{{l, st}}, set...)
	c.sets[idx] = set
	return evicted
}

// invalidate removes the line if present.
func (c *refCache) invalidate(l mem.Line) {
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l {
			set[i].state = invalid
		}
	}
}

// downgrade moves an exclusive line to shared if present.
func (c *refCache) downgrade(l mem.Line) {
	set := c.sets[c.setOf(l)]
	for i := range set {
		if set[i].line == l && set[i].state == exclusive {
			set[i].state = shared
		}
	}
}

// refHierarchy is the full multi-core cache system.
type refHierarchy struct {
	cfg Config
	l1  []*refCache
	l2  []*refCache

	// stickyM remembers the last core that held each line exclusively,
	// even after eviction — the LogTM-SE-style hint of §6.3.
	stickyM map[mem.Line]int

	stats Stats
}

// newRefHierarchy creates a hierarchy.
func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{cfg: cfg, stickyM: make(map[mem.Line]int)}
	for i := 0; i < cfg.Threads; i++ {
		h.l1 = append(h.l1, newRefCache(cfg.L1Size, cfg.L1Ways))
		h.l2 = append(h.l2, newRefCache(cfg.L2Size, cfg.L2Ways))
	}
	return h
}

// Access performs the memory event e on the core its thread runs on, a
// line at a time over e.Lines; events that touch no memory (fences,
// transaction markers) do nothing. TIDs map onto cores modulo Threads, so
// any TID a file names, 0xFFFF included, names one.
func (h *refHierarchy) Access(e trace.Event) {
	var op func(*refHierarchy, int, mem.Line)
	switch e.Kind {
	case trace.KStore, trace.KVStore:
		op = (*refHierarchy).writeLine
	case trace.KLoad, trace.KVLoad:
		op = (*refHierarchy).readLine
	case trace.KStoreNT:
		op = (*refHierarchy).writeNTLine
	case trace.KFlush:
		op = (*refHierarchy).flushLine
	default:
		return
	}
	tid := int(uint32(e.TID) % uint32(h.cfg.Threads))
	for l, n := e.Lines(); n > 0; l, n = l+1, n-1 {
		op(h, tid, l)
	}
}

// readLine performs a load of l by core tid.
func (h *refHierarchy) readLine(tid int, l mem.Line) {
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

func (c *refCache) fill(l mem.Line, st lineState, h *refHierarchy) {
	if c.insert(l, st) {
		h.stats.Evictions++
	}
}

// writeLine performs a cacheable store by core tid (write-allocate,
// writeback: the memory write happens on eviction/flush, counted as a
// PM/DRAM write).
func (h *refHierarchy) writeLine(tid int, l mem.Line) {
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
func (h *refHierarchy) writeNTLine(_ int, l mem.Line) {
	for o := 0; o < h.cfg.Threads; o++ {
		h.l1[o].invalidate(l)
		h.l2[o].invalidate(l)
	}
	h.stats.NTWrites++
}

// flushLine writes the line back to memory (CLWB): a PM or DRAM write if
// the line is cached anywhere.
func (h *refHierarchy) flushLine(_ int, l mem.Line) {
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
func (h *refHierarchy) StickyOwner(l mem.Line) int {
	if o, ok := h.stickyM[l]; ok {
		return o
	}
	return -1
}

// Stats returns the accumulated counters.
func (h *refHierarchy) Stats() Stats { return h.stats }

// tinyConfig is a geometry small enough that evictions, invalidations of
// lines other cores hold and remote hits are common: L1 4 sets of 2 ways,
// L2 8 sets of 4.
func tinyConfig(threads int) Config {
	return Config{L1Size: 512, L1Ways: 2, L2Size: 2048, L2Ways: 4, Threads: threads}
}

// randomProgram is n events over every memory kind plus fences, on a pool
// of 48 PM and 16 DRAM lines that collide in the tiny geometry's sets. TIDs
// include 1<<15 and 0xFFFF, and sizes run up to three lines from any offset.
func randomProgram(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	kinds := []trace.Kind{trace.KLoad, trace.KVLoad, trace.KStore, trace.KVStore, trace.KStoreNT, trace.KFlush, trace.KFence}
	tids := []uint16{0, 1, 2, 3, 4, 5, 31, 32, 33, 1 << 15, 0xFFFF}
	events := make([]trace.Event, n)
	for i := range events {
		base := mem.PMBase + mem.Addr(rng.Intn(48))*mem.LineSize
		if rng.Intn(4) == 0 {
			base = 0x10000 + mem.Addr(rng.Intn(16))*mem.LineSize
		}
		events[i] = trace.Event{
			Kind: kinds[rng.Intn(len(kinds))],
			TID:  tids[rng.Intn(len(tids))],
			Time: mem.Time(i),
			Addr: base + mem.Addr(rng.Intn(mem.LineSize)),
			Size: uint32(1 + rng.Intn(3*mem.LineSize)),
		}
	}
	return events
}

// recordedTrace runs one app at a small size through the suite's one
// driver and returns the trace it recorded: the three simulatable apps
// HOPS replays, and nfs (on its eight clients) for PMFS's NT-store-heavy
// file writes.
func recordedTrace(app string) *trace.Trace {
	const ops, seed = 12, 1
	a, err := crashcheck.Lookup(app)
	if err != nil {
		panic(err)
	}
	clients := 4
	if app == "nfs" {
		clients = a.Clients
	}
	rt := persist.NewRuntime(a.Name, a.Layer, clients, persist.Config{})
	a.Run(rt, clients, ops, seed)
	return rt.Trace
}

// requireMatchesReference replays src through Hierarchy and refHierarchy
// side by side: Stats equal after every event, and StickyOwner equal for
// every line any event touched. It returns the final Stats.
func requireMatchesReference(t *testing.T, cfg Config, src trace.EventSource) Stats {
	t.Helper()
	h, ref := New(cfg), newRefHierarchy(cfg)
	touched := map[mem.Line]bool{}
	i := 0
	for {
		chunk, err := src.NextChunk()
		if err != nil {
			break
		}
		for _, e := range chunk {
			h.Access(e)
			ref.Access(e)
			if got, want := h.Stats(), ref.Stats(); got != want {
				t.Fatalf("event %d %+v: stats %+v, reference %+v", i, e, got, want)
			}
			for l, n := e.Lines(); n > 0; l, n = l+1, n-1 {
				touched[l] = true
			}
			i++
		}
	}
	for l := range touched {
		if got, want := h.StickyOwner(l), ref.StickyOwner(l); got != want {
			t.Errorf("StickyOwner(%#x) = %d, reference %d", l, got, want)
		}
	}
	return ref.Stats()
}

// TestHierarchyMatchesReference holds the directory-driven hierarchy to the
// scan-every-core one it replaced: random programs on a tiny geometry at
// every core count up to the holder mask's 32, and the recorded apps at
// both the tiny geometry and Table 3's.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 32} {
		var total Stats
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("random/threads%d/seed%d", threads, seed), func(t *testing.T) {
				tr := appended(&trace.Trace{App: "random", Threads: threads}, randomProgram(seed, 4000))
				st := requireMatchesReference(t, tinyConfig(threads), trace.NewSliceSource(tr))
				total.L1Hits += st.L1Hits
				total.L2Hits += st.L2Hits
				total.RemoteHits += st.RemoteHits
				total.Evictions += st.Evictions
				total.DRAMWrites += st.DRAMWrites
				total.PMWrites += st.PMWrites
			})
		}
		// The programs reach every path: a zero here means the comparison
		// above was vacuous for it. One core has no one to hit remotely.
		if total.L1Hits == 0 || total.L2Hits == 0 || total.Evictions == 0 || total.DRAMWrites == 0 || total.PMWrites == 0 ||
			(threads > 1) != (total.RemoteHits > 0) {
			t.Errorf("threads %d: random programs left a path unexercised: %+v", threads, total)
		}
	}
	for _, app := range []string{"ycsb", "ctree", "vacation", "nfs"} {
		tr := recordedTrace(app)
		for _, cfg := range []Config{tinyConfig(4), DefaultConfig()} {
			t.Run(fmt.Sprintf("%s/L1-%d", app, cfg.L1Size), func(t *testing.T) {
				requireMatchesReference(t, cfg, trace.NewSliceSource(tr))
			})
		}
	}
}
