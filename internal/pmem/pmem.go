// Package pmem simulates the persistent-memory device and its persistence
// domain. It is the substrate that stands in for the paper's NVDIMM-backed
// testbed (see DESIGN.md, "Substitutions").
//
// The device keeps two images of persistent memory:
//
//   - the live image: what loads observe, i.e. the union of caches,
//     write-combining buffers and the PM device;
//   - the durable image: exactly the bytes that would survive a power
//     failure right now.
//
// Software moves bytes from live to durable exactly the way x86-64 software
// does: cacheable stores followed by CLWB of each line and an SFENCE, or
// non-temporal stores (NTI) drained by an SFENCE. Until then the bytes sit
// in simulated caches/WCBs and are at the mercy of a crash.
//
// Both images are paged arenas: a two-level line table whose leaves hold 64
// contiguous cache lines (one 4 KiB page of data). The live image is a lazy
// copy-on-write overlay of the durable one: it holds only the pages written
// (or flushed) since the last crash, each copied from its durable page on
// first write, and reads of any other page fall through to the durable
// image. The page table replaces the seed's map-per-line layout, which paid
// a heap allocation and a map lookup for every 64 B line on the hottest
// path in the repo.
//
// Every operation costs O(what it touches), never O(history): a fence walks
// exactly the lines flushed since the thread's previous fence, and a crash
// drops the overlay instead of re-copying the durable image.
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
	"math/rand"
	"sort"
	"sync/atomic"

	"github.com/whisper-pm/whisper/internal/mem"
)

// ThreadID identifies a logical hardware thread. The paper's testbed has
// four cores with two hardware threads each; the workloads drive four or
// eight clients.
type ThreadID int

type line [mem.LineSize]byte

// page is one leaf of the two-level line table: mem.PageLines contiguous
// cache lines (4 KiB of data). In the live image, dirty is a bitmap of
// lines whose bytes differ from the durable image due to cacheable stores
// not yet written back; the durable image leaves it zero.
type page struct {
	dirty uint64
	data  [mem.PageLines]line
}

// image is a paged memory image: the first level maps a page index
// (Line >> mem.PageShift) to a leaf page, the second level is the leaf's
// line array. A one-entry cache short-circuits the map lookup for the
// common run of accesses to the same page. The durable image holds every
// page ever persisted; the live image holds only the pages materialised
// since the last crash, and a page absent from it reads as its durable
// page (see Device.readPage).
type image struct {
	pages   map[uint64]*page
	lastIdx uint64
	lastPg  *page
}

func newImage() image {
	return image{pages: make(map[uint64]*page)}
}

// lookup returns the page containing l, or nil if the page was never
// written.
func (im *image) lookup(l mem.Line) *page {
	idx := mem.PageOf(l)
	if im.lastPg != nil && im.lastIdx == idx {
		return im.lastPg
	}
	pg := im.pages[idx]
	if pg != nil {
		im.lastIdx, im.lastPg = idx, pg
	}
	return pg
}

// lineValue returns a copy of line l's bytes (zero if never written).
func (im *image) lineValue(l mem.Line) line {
	if pg := im.lookup(l); pg != nil {
		return pg.data[mem.PageIndex(l)]
	}
	return line{}
}

// Stats counts device-level activity. All counts are since construction or
// the last ResetStats. Memory-operation counters (Stores, NTStores, Loads,
// Flushes) count one per 64 B line touched, matching how the paper counts
// PM accesses: a store spanning three lines is three stores, exactly as a
// flush of three lines is three CLWBs.
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

// deviceStats is the device's internal counter block. Every field is
// atomic so that Stats/ResetStats may be called from a metrics scraper (or
// the parallel suite runner's bookkeeping) concurrently with the single
// goroutine driving device operations, without a data race. Hot paths
// accumulate per-call tallies locally and publish them with one atomic add
// per counter, so the store path pays at most two uncontended atomic adds
// per operation regardless of how many lines it spans.
type deviceStats struct {
	stores       atomic.Uint64
	ntStores     atomic.Uint64
	loads        atomic.Uint64
	flushes      atomic.Uint64
	fences       atomic.Uint64
	linesPersist atomic.Uint64
	bytesStored  atomic.Uint64
	crashes      atomic.Uint64
}

// load copies the counters into the public value struct.
func (s *deviceStats) load() Stats {
	return Stats{
		Stores:       s.stores.Load(),
		NTStores:     s.ntStores.Load(),
		Loads:        s.loads.Load(),
		Flushes:      s.flushes.Load(),
		Fences:       s.fences.Load(),
		LinesPersist: s.linesPersist.Load(),
		BytesStored:  s.bytesStored.Load(),
		Crashes:      s.crashes.Load(),
	}
}

// store overwrites the counters from the public value struct.
func (s *deviceStats) store(v Stats) {
	s.stores.Store(v.Stores)
	s.ntStores.Store(v.NTStores)
	s.loads.Store(v.Loads)
	s.flushes.Store(v.Flushes)
	s.fences.Store(v.Fences)
	s.linesPersist.Store(v.LinesPersist)
	s.bytesStored.Store(v.BytesStored)
	s.crashes.Store(v.Crashes)
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
// latest snapshot of keys.Lines()[i]. reset truncates both, so the
// cost of a fence is the lines flushed since the previous one — never the
// size of the largest epoch the thread has had — and steady-state small
// epochs allocate nothing.
type lineSet struct {
	keys  mem.LineSet
	snaps []line
}

// put records snap as line l's pending snapshot, replacing an earlier one.
func (s *lineSet) put(l mem.Line, snap *line) {
	if pos, added := s.keys.Add(l); added {
		s.snaps = append(s.snaps, *snap)
	} else {
		s.snaps[pos] = *snap
	}
}

// reset empties the set, keeping the slices' capacity.
func (s *lineSet) reset() {
	s.keys.Reset()
	s.snaps = s.snaps[:0]
}

// clone returns an independent copy.
func (s *lineSet) clone() lineSet {
	return lineSet{keys: s.keys.Clone(), snaps: append([]line(nil), s.snaps...)}
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
// WCBs) in front of it. Memory operations are not safe for concurrent use;
// the deterministic scheduler (internal/sched) serializes all access, and
// the parallel suite runner gives every run its own Device. The stats
// counters are the exception: Stats and ResetStats are atomic and may be
// called from another goroutine (a metrics scraper, the suite runner's
// bookkeeping) while operations are in flight.
type Device struct {
	live    image
	durable image

	// ndirty counts lines whose live image differs from the durable image
	// due to cacheable stores (the set bits across live pages' dirty maps).
	ndirty int

	// threads holds per-thread flush/WCB buffers, indexed by ThreadID so
	// that every per-thread iteration is in ascending thread order by
	// construction — crash injection must not depend on map order.
	threads []threadBuf

	next  mem.Addr // bump pointer for Map
	stats deviceStats
}

// New creates an empty device whose persistent range starts at mem.PMBase.
func New() *Device {
	return &Device{
		live:    newImage(),
		durable: newImage(),
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

// readPage returns the page loads of l observe: the live page if it was
// materialised since the last crash, else the durable page, else nil (never
// written; reads as zero).
func (d *Device) readPage(l mem.Line) *page {
	if pg := d.live.lookup(l); pg != nil {
		return pg
	}
	return d.durable.lookup(l)
}

// livePage returns the live page containing l, creating it on first write
// with a copy of the durable page (copy-on-first-write).
func (d *Device) livePage(l mem.Line) *page {
	idx := mem.PageOf(l)
	if d.live.lastPg != nil && d.live.lastIdx == idx {
		return d.live.lastPg
	}
	pg := d.live.pages[idx]
	if pg == nil {
		pg = &page{}
		if dur := d.durable.pages[idx]; dur != nil {
			pg.data = dur.data
		}
		d.live.pages[idx] = pg
	}
	d.live.lastIdx, d.live.lastPg = idx, pg
	return pg
}

// durablePage returns the durable page containing l, creating a zero page
// on first persist.
func (d *Device) durablePage(l mem.Line) *page {
	idx := mem.PageOf(l)
	if d.durable.lastPg != nil && d.durable.lastIdx == idx {
		return d.durable.lastPg
	}
	pg := d.durable.pages[idx]
	if pg == nil {
		pg = &page{}
		d.durable.pages[idx] = pg
	}
	d.durable.lastIdx, d.durable.lastPg = idx, pg
	return pg
}

// buf returns tid's flush/WCB buffers, growing the thread table on demand.
func (d *Device) buf(tid ThreadID) *threadBuf {
	if tid < 0 {
		panic(fmt.Sprintf("pmem: negative thread id %d", tid))
	}
	for int(tid) >= len(d.threads) {
		d.threads = append(d.threads, threadBuf{})
	}
	return &d.threads[tid]
}

func checkRange(a mem.Addr, size int) {
	if !mem.IsPM(a) {
		panic(fmt.Sprintf("pmem: address %v is not persistent", a))
	}
	if size < 0 {
		panic("pmem: negative size")
	}
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
		pg := d.livePage(l)
		li := mem.PageIndex(l)
		start := int(ad - mem.LineAddr(l))
		n := copy(pg.data[li][start:], data[off:])
		off += n
		if pg.dirty&(1<<li) == 0 {
			pg.dirty |= 1 << li
			d.ndirty++
		}
		lines++
	}
	d.stats.stores.Add(lines)
	d.stats.bytesStored.Add(uint64(len(data)))
}

// StoreNT performs non-temporal stores: the bytes bypass the cache, land in
// the thread's write-combining buffer, and become durable at the thread's
// next SFENCE.
func (d *Device) StoreNT(tid ThreadID, a mem.Addr, data []byte) {
	checkRange(a, len(data))
	w := &d.buf(tid).wcb
	off, lines := 0, uint64(0)
	for off < len(data) {
		ad := a + mem.Addr(off)
		l := mem.LineOf(ad)
		pg := d.livePage(l)
		li := mem.PageIndex(l)
		start := int(ad - mem.LineAddr(l))
		n := copy(pg.data[li][start:], data[off:])
		off += n
		w.put(l, &pg.data[li])
		// NTI does not leave the line dirty in the cache; if it was
		// dirty before, the WCB snapshot now carries the latest bytes.
		if pg.dirty&(1<<li) != 0 {
			pg.dirty &^= 1 << li
			d.ndirty--
		}
		lines++
	}
	d.stats.ntStores.Add(lines)
	d.stats.bytesStored.Add(uint64(len(data)))
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
	d.stats.loads.Add(lines)
}

// Flush issues CLWB for every line overlapping [a, a+size). The current
// live contents of each line are snapshotted and will become durable at the
// thread's next SFENCE.
func (d *Device) Flush(tid ThreadID, a mem.Addr, size int) {
	checkRange(a, size)
	f := &d.buf(tid).flushed
	n := mem.LinesSpanned(a, size)
	l := mem.LineOf(a)
	for i := 0; i < n; i++ {
		pg := d.livePage(l)
		f.put(l, &pg.data[mem.PageIndex(l)])
		l++
	}
	d.stats.flushes.Add(uint64(n))
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
	d.stats.fences.Add(1)
}

// drain persists every pending snapshot of s and empties it.
func (d *Device) drain(s *lineSet) {
	for i, l := range s.keys.Lines() {
		d.persistLine(l, &s.snaps[i])
	}
	s.reset()
}

func (d *Device) persistLine(l mem.Line, snap *line) {
	// Materialize the live page first (copying the pre-update durable
	// bytes) so persisting never changes what loads observe. Every caller
	// took snap from a live page, so this is a lookup, not a copy.
	lp := d.livePage(l)
	li := mem.PageIndex(l)
	d.durablePage(l).data[li] = *snap
	d.stats.linesPersist.Add(1)
	// If the live image still matches what we just persisted, the line is
	// clean again. A later cacheable store may have re-dirtied it; compare
	// to be exact.
	if lp.dirty&(1<<li) != 0 && lp.data[li] == *snap {
		lp.dirty &^= 1 << li
		d.ndirty--
	}
}

// Crash simulates a power failure. The live overlay is dropped, so loads
// fall through to what the durable image plus the chosen adversary allows —
// O(1) under Strict, O(in-flight lines) under Adversarial, never O(image).
// Outstanding flushes and WCB entries for all threads are lost (under
// Adversarial mode they may independently survive, like any other in-flight
// line). After Crash, software must run its recovery path before trusting
// the contents.
func (d *Device) Crash(mode CrashMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	if mode == Adversarial {
		// Collect candidate in-flight lines. When several snapshots of the
		// same line are buffered, the surviving one is fixed by collection
		// order — dirty cache lines, then flushed snapshots in ascending
		// thread order, then WCB entries in ascending thread order, later
		// entries overriding earlier ones — so the post-crash image is a
		// pure function of device state and seed, never of Go map
		// iteration order.
		cands := make(map[mem.Line]*line)
		for idx, pg := range d.live.pages {
			if pg.dirty == 0 {
				continue
			}
			for li := uint(0); li < mem.PageLines; li++ {
				if pg.dirty&(1<<li) != 0 {
					cands[mem.PageFirstLine(idx)+mem.Line(li)] = &pg.data[li]
				}
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
		for _, l := range lines {
			if rng.Intn(2) == 0 {
				d.persistLine(l, cands[l])
			}
		}
	}
	// Reset volatile state: an empty overlay reads as the durable image.
	d.live = newImage()
	d.ndirty = 0
	for i := range d.threads {
		d.threads[i] = threadBuf{}
	}
	d.stats.crashes.Add(1)
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
		if pg := d.durable.lookup(l); pg != nil {
			off += copy(out[off:], pg.data[mem.PageIndex(l)][start:])
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
		end := start + (size - off)
		if end > mem.LineSize {
			end = mem.LineSize
		}
		// A line absent from the live overlay is its durable value.
		if lp := d.live.lookup(l); lp != nil {
			lv, dv := lp.data[mem.PageIndex(l)], d.durable.lineValue(l)
			if !bytes.Equal(lv[start:end], dv[start:end]) {
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

// Stats returns a copy of the device counters. Safe to call concurrently
// with device operations (the counters are atomics); the copy is a
// near-point-in-time view, not a synchronized snapshot.
func (d *Device) Stats() Stats { return d.stats.load() }

// ResetStats zeroes the device counters. Like Stats, it is safe against
// concurrent device operations.
func (d *Device) ResetStats() { d.stats.store(Stats{}) }

// Mapped returns the device's bump pointer: the first unmapped persistent
// address. Together with DurableImage it fully describes the durable state.
func (d *Device) Mapped() mem.Addr { return d.next }

// Clone returns a deep copy of the device: the durable image and the live
// overlay (still lazy in the copy), every thread's flush/WCB buffers, the
// bump pointer and the counters. The crash checker clones the device at the
// injection point so the crash image is frozen while deferred cleanup code
// keeps running on the original.
func (d *Device) Clone() *Device {
	c := &Device{
		live:    image{pages: make(map[uint64]*page, len(d.live.pages))},
		durable: image{pages: make(map[uint64]*page, len(d.durable.pages))},
		ndirty:  d.ndirty,
		next:    d.next,
	}
	c.stats.store(d.stats.load())
	for idx, pg := range d.live.pages {
		cp := *pg
		c.live.pages[idx] = &cp
	}
	for idx, pg := range d.durable.pages {
		cp := *pg
		c.durable.pages[idx] = &cp
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

// DurablePage is one 4 KiB page of the durable image, identified by its
// page index (line number >> mem.PageShift).
type DurablePage struct {
	Index uint64
	Data  [PageBytes]byte
}

// DurableImage returns a copy of the durable image as pages sorted by
// index. The enumeration is deterministic: two devices with equal durable
// state return identical slices regardless of write order or map layout.
func (d *Device) DurableImage() []DurablePage {
	out := make([]DurablePage, 0, len(d.durable.pages))
	for idx, pg := range d.durable.pages {
		dp := DurablePage{Index: idx}
		for li := 0; li < mem.PageLines; li++ {
			copy(dp.Data[li*mem.LineSize:], pg.data[li][:])
		}
		out = append(out, dp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
