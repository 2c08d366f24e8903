// Package pmem simulates the persistent-memory device and its persistence
// domain. It is the substrate that stands in for the paper's NVDIMM-backed
// testbed (see DESIGN.md, "Substitutions").
//
// The device answers two questions about every byte of persistent memory:
//
//   - its live value: what loads observe, i.e. the union of caches,
//     write-combining buffers and the PM device;
//   - its durable value: exactly what would survive a power failure right
//     now.
//
// Software moves bytes from live to durable exactly the way x86-64 software
// does: cacheable stores followed by CLWB of each line and an SFENCE, or
// non-temporal stores (NTI) drained by an SFENCE. Until then the bytes sit
// in simulated caches/WCBs and are at the mercy of a crash.
//
// The two values differ only for the lines in flight, and the applications
// WHISPER measures make almost every line durable soon after writing it
// (Figure 4). So the device holds one image, and each in-flight line keeps
// its durable value on the side, as an undo log does. The image is a map
// from page index (Line >> mem.PageShift) to a page of 64 contiguous cache
// lines (4 KiB of data), carved from slabs, with a one-entry cache in front
// of the map for the common run of accesses to one page. A page with a line
// changed since it was last persisted (a stale line) borrows an undo block
// from a recycled pool; the block holds those lines' durable values and
// goes back to the pool when the last of them is persisted.
// Every page is held once, so a written 4 KiB costs the host about 4 KiB.
//
// Every operation costs O(what it touches), never O(history): a fence walks
// exactly the lines flushed since the thread's previous fence, and a crash
// restores exactly the in-flight pages from their undo blocks.
//
// Crash injection supports two adversaries:
//
//   - Strict: everything not explicitly persisted is lost. This is the
//     most pessimistic legal outcome.
//   - Adversarial: each dirty, unpersisted line is independently kept or
//     lost under a seeded RNG, modelling cache evictions that race ahead of
//     program order. Crash-consistent software must tolerate both.
package pmem

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"github.com/whisper-pm/whisper/internal/mem"
)

// ThreadID identifies a logical hardware thread. The paper's testbed has
// four cores with two hardware threads each; the workloads drive four or
// eight clients.
type ThreadID int

type line [mem.LineSize]byte

// block is one page's worth of line values: mem.PageLines contiguous cache
// lines, 4 KiB. Blocks hold no pointer, so the garbage collector never
// scans them.
type block [mem.PageLines]line

// page is one page of the device's image: the block holding its lines' live
// values and the bookkeeping that recovers their durable values.
type page struct {
	data *block
	// dirty is a bitmap of lines whose live bytes differ from their
	// durable ones because of cacheable stores not yet written back.
	dirty uint64
	// stale is a bitmap of lines whose durable value is in the page's undo
	// block rather than in data. A line not in it is durable as it stands.
	// Every dirty line is stale.
	stale uint64
	// undo is 1 + the page's position in Device.inflight while stale is
	// not zero, and 0 otherwise.
	undo int32
	// persisted records that a line of the page was ever persisted: the
	// page is part of DurableImage. A page never persisted is durably zero.
	persisted bool
}

// inflightPage is a page with a stale line and the undo block it borrowed,
// which holds the durable values of the page's stale lines at their line
// positions.
type inflightPage struct {
	idx uint64 // page index
	pg  *page
	blk *block
}

// noPage is a page index no line has: the empty one-entry page cache.
const noPage = ^uint64(0)

// Page blocks are carved from slabs. A new slab holds as many blocks as the
// image has pages, between firstSlabPages and maxSlabPages, so a small
// device stays small, a large one pays one allocation per maxSlabPages
// pages, and only the newest slab has blocks not yet given out.
const (
	firstSlabPages = 4
	maxSlabPages   = 64
)

// maxSpareBlocks bounds the pool of undo blocks kept for reuse: one large
// epoch borrows a block per page it touches, and the pool should not keep
// them all for the life of the device.
const maxSpareBlocks = 64

// Stats counts device-level activity. All counts are since construction or
// the last ResetStats. Memory-operation counters (Stores, NTStores, Loads,
// Flushes) count one per 64 B line touched, matching how the paper counts
// PM accesses: a store spanning three lines is three stores, exactly as a
// flush of three lines is three CLWBs. The device counts in plain fields,
// on the goroutine driving it, like the rest of its state.
type Stats struct {
	Stores       uint64 // cacheable PM stores (per line touched)
	NTStores     uint64 // non-temporal PM stores (per line touched)
	Loads        uint64 // PM loads (per line touched)
	Flushes      uint64 // CLWB operations issued (per line)
	Fences       uint64 // SFENCE operations issued
	LinesPersist uint64 // lines made durable by fences
	BytesStored  uint64 // bytes written to PM (cacheable + NTI)
	Crashes      uint64 // injected crashes
}

// CrashMode selects the crash adversary.
type CrashMode int

const (
	// Strict loses every byte not explicitly made durable.
	Strict CrashMode = iota
	// Adversarial independently persists or loses each unpersisted dirty
	// line, modelling early cache evictions.
	Adversarial
)

// lineSet is a set of pending line snapshots: keys holds the distinct pending
// lines in first-insertion order (membership by mem.LineSet's high-water fast
// path, short backwards scan or lazily built index) and snaps[i] is the
// latest snapshot of keys.Lines()[i]. snaps may run past keys with slots
// reserved for lines not yet added, so that put never grows it. reset
// truncates both, so the cost of a fence is the lines flushed since the
// previous one — never the size of the largest epoch the thread has had —
// and steady-state small epochs allocate nothing.
type lineSet struct {
	keys  mem.LineSet
	snaps []line
}

// reserve makes room for n more lines, which put needs before it adds them.
func (s *lineSet) reserve(n int) {
	if need := s.keys.Len() + n; need > len(s.snaps) {
		s.snaps = slices.Grow(s.snaps, need-len(s.snaps))[:need]
	}
}

// put records snap as line l's pending snapshot, replacing an earlier one.
// A slot for l must have been reserved.
func (s *lineSet) put(l mem.Line, snap *line) {
	pos, _ := s.keys.Add(l)
	s.snaps[pos] = *snap
}

// reset empties the set, keeping the slices' capacity.
func (s *lineSet) reset() {
	s.keys.Reset()
	s.snaps = s.snaps[:0]
}

// clone returns an independent copy.
func (s *lineSet) clone() lineSet {
	return lineSet{keys: s.keys.Clone(), snaps: slices.Clone(s.snaps[:s.keys.Len()])}
}

// threadBuf holds one thread's volatile write-back machinery: flushed is
// the set of CLWB snapshots that become durable at the thread's next
// SFENCE, wcb the non-temporal stores awaiting the same. Both are emptied by
// truncation at the fence and dropped at a crash.
type threadBuf struct {
	flushed lineSet
	wcb     lineSet
}

// Device is the simulated PM device plus the volatile machinery (caches,
// WCBs) in front of it. No method is safe for concurrent use, Stats and
// ResetStats included: the deterministic scheduler (internal/sched)
// serializes all access, the parallel suite runner gives every run its own
// Device, and whoever reads the counters does so on the goroutine driving
// the device or after a happens-before edge from it (the run's end, a lock,
// a channel receive).
type Device struct {
	// pages is the image: every page ever written, flushed or persisted.
	// lastIdx/lastPg cache the page used last (lastIdx is noPage when
	// empty), and slab holds the blocks new pages are given.
	pages   map[uint64]*page
	lastIdx uint64
	lastPg  *page
	slab    []block

	// inflight lists the pages with a stale line, each with its undo
	// block, in no particular order; spare holds undo blocks for reuse.
	inflight []inflightPage
	spare    []*block

	// ndirty counts lines whose live value differs from the durable one
	// due to cacheable stores (the set bits across the pages' dirty maps).
	ndirty int

	// threads holds per-thread flush/WCB buffers, indexed by ThreadID so
	// that every per-thread iteration is in ascending thread order by
	// construction — crash injection must not depend on map order.
	threads []threadBuf

	next  mem.Addr // bump pointer for Map
	stats Stats
}

// New creates an empty device whose persistent range starts at mem.PMBase.
func New() *Device {
	return &Device{
		pages:   make(map[uint64]*page),
		lastIdx: noPage,
		next:    mem.PMBase,
	}
}

// Map reserves size bytes of persistent address space and returns the base
// address. The region is zero until written. Map never fails; the simulated
// device is as large as the address space.
func (d *Device) Map(size int) mem.Addr {
	if size < 0 {
		panic("pmem: negative Map size")
	}
	base := d.next
	// Keep regions line-aligned so independent structures never share a
	// line by accident (false sharing would manufacture dependencies the
	// software didn't create).
	n := mem.Addr(size)
	n = (n + mem.LineSize - 1) &^ (mem.LineSize - 1)
	d.next += n
	return base
}

// page returns the page containing l, creating a zero page on first use.
func (d *Device) page(l mem.Line) *page {
	if mem.PageOf(l) == d.lastIdx {
		return d.lastPg
	}
	return d.lookup(l, true)
}

// readPage returns the page containing l, or nil if no store or flush ever
// touched it (it reads as zero).
func (d *Device) readPage(l mem.Line) *page {
	if mem.PageOf(l) == d.lastIdx {
		return d.lastPg
	}
	return d.lookup(l, false)
}

// lookup is the map probe behind page and readPage: it returns the page
// containing l, creating it if create is set, and caches what it returns.
// It is kept out of line so that both callers' cache hits inline.
//
//go:noinline
func (d *Device) lookup(l mem.Line, create bool) *page {
	idx := mem.PageOf(l)
	pg := d.pages[idx]
	if pg == nil {
		if !create {
			return nil
		}
		if len(d.slab) == 0 {
			d.slab = make([]block, min(max(len(d.pages), firstSlabPages), maxSlabPages))
		}
		pg = &page{data: &d.slab[0]}
		d.slab = d.slab[1:]
		d.pages[idx] = pg
	}
	d.lastIdx, d.lastPg = idx, pg
	return pg
}

// undoOf returns pg's undo block, borrowing one from the pool if pg has
// none. idx is pg's page index.
func (d *Device) undoOf(idx uint64, pg *page) *block {
	if pg.undo == 0 {
		var blk *block
		if n := len(d.spare); n > 0 {
			blk, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			blk = new(block)
		}
		d.inflight = append(d.inflight, inflightPage{idx: idx, pg: pg, blk: blk})
		pg.undo = int32(len(d.inflight))
	}
	return d.inflight[pg.undo-1].blk
}

// release returns the undo block of pg, which has no stale line left, to
// the pool.
func (d *Device) release(pg *page) {
	i := pg.undo - 1
	d.recycle(d.inflight[i].blk)
	last := len(d.inflight) - 1
	if int(i) != last {
		d.inflight[i] = d.inflight[last]
		d.inflight[i].pg.undo = i + 1
	}
	d.inflight[last] = inflightPage{}
	d.inflight = d.inflight[:last]
	pg.undo = 0
}

// recycle puts blk in the pool unless the pool is full.
func (d *Device) recycle(blk *block) {
	if len(d.spare) < maxSpareBlocks {
		d.spare = append(d.spare, blk)
	}
}

// saveLine keeps line l's durable value, which its live bytes still are,
// in its page's undo block before the line first changes.
func (d *Device) saveLine(l mem.Line, pg *page) {
	li := mem.PageIndex(l)
	d.undoOf(mem.PageOf(l), pg)[li] = pg.data[li]
	pg.stale |= 1 << li
}

// durableLine returns line li of pg's durable value.
func (d *Device) durableLine(pg *page, li uint) *line {
	if pg.stale&(1<<li) != 0 {
		return &d.inflight[pg.undo-1].blk[li]
	}
	return &pg.data[li]
}

// buf returns tid's flush/WCB buffers, growing the thread table on demand.
func (d *Device) buf(tid ThreadID) *threadBuf {
	if tid >= 0 && int(tid) < len(d.threads) {
		return &d.threads[tid]
	}
	return d.growThreads(tid)
}

// growThreads is buf's slow path.
func (d *Device) growThreads(tid ThreadID) *threadBuf {
	if tid < 0 {
		panic(fmt.Sprintf("pmem: negative thread id %d", tid))
	}
	for int(tid) >= len(d.threads) {
		d.threads = append(d.threads, threadBuf{})
	}
	return &d.threads[tid]
}

func checkRange(a mem.Addr, size int) {
	if !mem.IsPM(a) || size < 0 {
		badRange(a, size)
	}
}

// badRange panics for the range checkRange refused. It is kept out of line
// so that checkRange inlines.
//
//go:noinline
func badRange(a mem.Addr, size int) {
	if !mem.IsPM(a) {
		panic(fmt.Sprintf("pmem: address %v is not persistent", a))
	}
	panic("pmem: negative size")
}

// Store performs cacheable stores of data starting at a. The bytes become
// visible to loads immediately but durable only after CLWB+SFENCE (or a
// lucky adversarial eviction).
func (d *Device) Store(tid ThreadID, a mem.Addr, data []byte) {
	checkRange(a, len(data))
	off, lines := 0, uint64(0)
	for off < len(data) {
		ad := a + mem.Addr(off)
		l := mem.LineOf(ad)
		pg := d.page(l)
		li := mem.PageIndex(l)
		if pg.stale&(1<<li) == 0 {
			d.saveLine(l, pg)
		}
		off += copy(pg.data[li][ad-mem.LineAddr(l):], data[off:])
		if pg.dirty&(1<<li) == 0 {
			pg.dirty |= 1 << li
			d.ndirty++
		}
		lines++
	}
	d.stats.Stores += lines
	d.stats.BytesStored += uint64(len(data))
}

// StoreNT performs non-temporal stores: the bytes bypass the cache, land in
// the thread's write-combining buffer, and become durable at the thread's
// next SFENCE.
func (d *Device) StoreNT(tid ThreadID, a mem.Addr, data []byte) {
	checkRange(a, len(data))
	w := &d.buf(tid).wcb
	w.reserve(mem.LinesSpanned(a, len(data)))
	off, lines := 0, uint64(0)
	for off < len(data) {
		ad := a + mem.Addr(off)
		l := mem.LineOf(ad)
		pg := d.page(l)
		li := mem.PageIndex(l)
		if pg.stale&(1<<li) == 0 {
			d.saveLine(l, pg)
		}
		off += copy(pg.data[li][ad-mem.LineAddr(l):], data[off:])
		w.put(l, &pg.data[li])
		// NTI does not leave the line dirty in the cache; if it was
		// dirty before, the WCB snapshot now carries the latest bytes.
		if pg.dirty&(1<<li) != 0 {
			pg.dirty &^= 1 << li
			d.ndirty--
		}
		lines++
	}
	d.stats.NTStores += lines
	d.stats.BytesStored += uint64(len(data))
}

// Load reads size bytes at a from the live image into a fresh slice.
func (d *Device) Load(tid ThreadID, a mem.Addr, size int) []byte {
	out := make([]byte, size)
	d.LoadInto(tid, a, out)
	return out
}

// LoadInto reads len(out) bytes at a from the live image into out, whatever
// out held before. It allocates nothing, so a caller that does not keep the
// bytes can reuse one buffer across loads.
func (d *Device) LoadInto(tid ThreadID, a mem.Addr, out []byte) {
	checkRange(a, len(out))
	off, lines := 0, uint64(0)
	for off < len(out) {
		ad := a + mem.Addr(off)
		l := mem.LineOf(ad)
		start := int(ad - mem.LineAddr(l))
		if pg := d.readPage(l); pg != nil {
			off += copy(out[off:], pg.data[mem.PageIndex(l)][start:])
		} else {
			// Unwritten memory reads as zero.
			n := min(mem.LineSize-start, len(out)-off)
			clear(out[off : off+n])
			off += n
		}
		lines++
	}
	d.stats.Loads += lines
}

// Flush issues CLWB for every line overlapping [a, a+size). The current
// live contents of each line are snapshotted and will become durable at the
// thread's next SFENCE.
func (d *Device) Flush(tid ThreadID, a mem.Addr, size int) {
	checkRange(a, size)
	f := &d.buf(tid).flushed
	n := mem.LinesSpanned(a, size)
	f.reserve(n)
	l := mem.LineOf(a)
	for i := 0; i < n; i++ {
		f.put(l, &d.page(l).data[mem.PageIndex(l)])
		l++
	}
	d.stats.Flushes += uint64(n)
}

// Fence issues SFENCE for tid: all of the thread's outstanding flushes and
// write-combining entries become durable. The cost is the lines pending
// since the thread's previous fence, whatever the thread flushed before.
func (d *Device) Fence(tid ThreadID) {
	if tid >= 0 && int(tid) < len(d.threads) {
		b := &d.threads[tid]
		// Within one thread a line flushed and NT-stored persists the WCB
		// snapshot (processed second), mirroring program order on x86.
		d.drain(&b.flushed)
		d.drain(&b.wcb)
	}
	d.stats.Fences++
}

// drain persists every pending snapshot of s and empties it.
func (d *Device) drain(s *lineSet) {
	lines := s.keys.Lines()
	if len(lines) == 0 {
		return
	}
	for i, l := range lines {
		d.persistLine(l, &s.snaps[i])
	}
	d.stats.LinesPersist += uint64(len(lines))
	s.reset()
}

// persistLine makes snap line l's durable value. Its caller counts it in
// Stats.LinesPersist.
func (d *Device) persistLine(l mem.Line, snap *line) {
	pg := d.page(l)
	li := mem.PageIndex(l)
	pg.persisted = true
	if pg.data[li] == *snap {
		// The live line is what was just persisted: it is clean and
		// durable as it stands.
		if pg.dirty&(1<<li) != 0 {
			pg.dirty &^= 1 << li
			d.ndirty--
		}
		if pg.stale&(1<<li) != 0 {
			if pg.stale &^= 1 << li; pg.stale == 0 {
				d.release(pg)
			}
		}
		return
	}
	// A later store changed the line: the snapshot is its durable value.
	d.undoOf(mem.PageOf(l), pg)[li] = *snap
	pg.stale |= 1 << li
}

// Crash simulates a power failure. Each in-flight page gets its stale
// lines back from its undo block, so loads observe what the durable image
// plus the chosen adversary allows; the cost is the in-flight lines, never
// the image. Outstanding flushes and WCB entries for all threads are lost
// (under Adversarial mode they may independently survive, like any other
// in-flight line). After Crash, software must run its recovery path before
// trusting the contents.
func (d *Device) Crash(mode CrashMode, seed int64) {
	if mode == Adversarial {
		// Collect candidate in-flight lines. When several snapshots of the
		// same line are buffered, the surviving one is fixed by collection
		// order — dirty cache lines, then flushed snapshots in ascending
		// thread order, then WCB entries in ascending thread order, later
		// entries overriding earlier ones — so the post-crash image is a
		// pure function of device state and seed, never of Go map
		// iteration order.
		cands := make(map[mem.Line]*line)
		for _, f := range d.inflight {
			for dirty := f.pg.dirty; dirty != 0; dirty &= dirty - 1 {
				li := bits.TrailingZeros64(dirty)
				cands[mem.PageFirstLine(f.idx)+mem.Line(li)] = &f.pg.data[li]
			}
		}
		for tid := range d.threads {
			f := &d.threads[tid].flushed
			for i, l := range f.keys.Lines() {
				cands[l] = &f.snaps[i]
			}
		}
		for tid := range d.threads {
			w := &d.threads[tid].wcb
			for i, l := range w.keys.Lines() {
				cands[l] = &w.snaps[i]
			}
		}
		lines := make([]mem.Line, 0, len(cands))
		for l := range cands {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		rng := rand.New(rand.NewSource(seed))
		kept := uint64(0)
		for _, l := range lines {
			if rng.Intn(2) == 0 {
				d.persistLine(l, cands[l])
				kept++
			}
		}
		d.stats.LinesPersist += kept
	}
	// Reset volatile state: every stale line takes its durable value back.
	for _, f := range d.inflight {
		for stale := f.pg.stale; stale != 0; stale &= stale - 1 {
			li := bits.TrailingZeros64(stale)
			f.pg.data[li] = f.blk[li]
		}
		f.pg.dirty, f.pg.stale, f.pg.undo = 0, 0, 0
		d.recycle(f.blk)
	}
	clear(d.inflight)
	d.inflight = d.inflight[:0]
	d.ndirty = 0
	for i := range d.threads {
		d.threads[i] = threadBuf{}
	}
	d.stats.Crashes++
}

// Durable reads size bytes at a from the durable image (what a crash right
// now would preserve). Test helper.
func (d *Device) Durable(a mem.Addr, size int) []byte {
	checkRange(a, size)
	out := make([]byte, size)
	off := 0
	for off < size {
		ad := a + mem.Addr(off)
		l := mem.LineOf(ad)
		start := int(ad - mem.LineAddr(l))
		if pg := d.readPage(l); pg != nil {
			off += copy(out[off:], d.durableLine(pg, mem.PageIndex(l))[start:])
		} else {
			off += mem.LineSize - start
		}
	}
	return out
}

// IsDurable reports whether the live bytes at [a, a+size) all match the
// durable image.
func (d *Device) IsDurable(a mem.Addr, size int) bool {
	checkRange(a, size)
	off := 0
	for off < size {
		ad := a + mem.Addr(off)
		l := mem.LineOf(ad)
		start := int(ad - mem.LineAddr(l))
		end := min(start+(size-off), mem.LineSize)
		// Only a stale line can differ from its durable value.
		if pg := d.readPage(l); pg != nil {
			li := mem.PageIndex(l)
			if lv, dv := &pg.data[li], d.durableLine(pg, li); !bytes.Equal(lv[start:end], dv[start:end]) {
				return false
			}
		}
		off += end - start
	}
	return true
}

// DirtyLines returns the number of lines whose live image differs from the
// durable image and that have not been flushed.
func (d *Device) DirtyLines() int { return d.ndirty }

// PendingFlushes returns the number of lines flushed by tid but not yet
// fenced.
func (d *Device) PendingFlushes(tid ThreadID) int {
	if tid < 0 || int(tid) >= len(d.threads) {
		return 0
	}
	return d.threads[tid].flushed.keys.Len()
}

// Stats returns a copy of the device counters. Like every other method, it
// runs on the goroutine driving the device or after a happens-before edge
// from it.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the device counters, under the same rule as Stats.
func (d *Device) ResetStats() { d.stats = Stats{} }

// Mapped returns the device's bump pointer: the first unmapped persistent
// address. Together with DurableImage it fully describes the durable state.
func (d *Device) Mapped() mem.Addr { return d.next }

// Clone returns a deep copy of the device: the image, its blocks in one
// slab, a copy of every undo block, every thread's flush/WCB buffers, the
// bump pointer and the counters. The crash checker clones the device at the
// injection point so the crash image is frozen while deferred cleanup code
// keeps running on the original.
func (d *Device) Clone() *Device {
	c := &Device{
		pages:    make(map[uint64]*page, len(d.pages)),
		lastIdx:  noPage,
		inflight: make([]inflightPage, len(d.inflight)),
		ndirty:   d.ndirty,
		next:     d.next,
		stats:    d.stats,
	}
	pages, blocks := make([]page, 0, len(d.pages)), make([]block, 0, len(d.pages))
	for idx, pg := range d.pages {
		blocks = append(blocks, *pg.data)
		pages = append(pages, *pg)
		cp := &pages[len(pages)-1]
		cp.data = &blocks[len(blocks)-1]
		c.pages[idx] = cp
	}
	// A page's undo field is its position in inflight, which the copy
	// keeps.
	for i, f := range d.inflight {
		blk := *f.blk
		c.inflight[i] = inflightPage{idx: f.idx, pg: c.pages[f.idx], blk: &blk}
	}
	c.threads = make([]threadBuf, len(d.threads))
	for i := range d.threads {
		c.threads[i] = threadBuf{
			flushed: d.threads[i].flushed.clone(),
			wcb:     d.threads[i].wcb.clone(),
		}
	}
	return c
}

// PageBytes is the data size of one image page.
const PageBytes = mem.PageLines * mem.LineSize

// PageOverheadBytes bounds the host heap a written page costs beyond its
// PageBytes of data: the page's record, its map entry and its share of a
// part-filled slab and of the undo pool. TestDeviceHoldsOneImage measures
// it.
const PageOverheadBytes = 128

// DurablePage is one 4 KiB page of the durable image, identified by its
// page index (line number >> mem.PageShift).
type DurablePage struct {
	Index uint64
	Data  [PageBytes]byte
}

// DurableImage returns a copy of the durable image, the pages ever
// persisted, sorted by index. The enumeration is deterministic: two devices
// with equal durable state return identical slices regardless of write
// order or map layout.
func (d *Device) DurableImage() []DurablePage {
	out := make([]DurablePage, 0, len(d.pages))
	for idx, pg := range d.pages {
		if !pg.persisted {
			continue
		}
		dp := DurablePage{Index: idx}
		for li := uint(0); li < mem.PageLines; li++ {
			copy(dp.Data[li*mem.LineSize:], d.durableLine(pg, li)[:])
		}
		out = append(out, dp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
