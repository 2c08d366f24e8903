package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
)

func TestMapAlignment(t *testing.T) {
	d := New()
	a := d.Map(10)
	b := d.Map(1)
	c := d.Map(100)
	for _, addr := range []mem.Addr{a, b, c} {
		if addr%mem.LineSize != 0 {
			t.Errorf("Map returned unaligned address %v", addr)
		}
		if !mem.IsPM(addr) {
			t.Errorf("Map returned non-PM address %v", addr)
		}
	}
	if b < a+mem.LineSize {
		t.Error("regions overlap")
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d := New()
	a := d.Map(256)
	data := []byte("hello, persistent world — spanning lines ........................")
	d.Store(0, a+10, data)
	got := d.Load(0, a+10, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("Load = %q, want %q", got, data)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d := New()
	a := d.Map(128)
	got := d.Load(0, a, 128)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestDurabilityRequiresFlushAndFence(t *testing.T) {
	d := New()
	a := d.Map(64)
	d.Store(0, a, []byte{1, 2, 3})

	if got := d.Durable(a, 3); !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatalf("store became durable without flush: %v", got)
	}
	d.Flush(0, a, 3)
	if got := d.Durable(a, 3); !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatalf("flush became durable without fence: %v", got)
	}
	d.Fence(0)
	if got := d.Durable(a, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("flush+fence not durable: %v", got)
	}
}

func TestFlushSnapshotsAtFlushTime(t *testing.T) {
	// A store after the CLWB but before the SFENCE must not ride along:
	// CLWB writes back the line contents as of the flush.
	d := New()
	a := d.Map(64)
	d.Store(0, a, []byte{1})
	d.Flush(0, a, 1)
	d.Store(0, a, []byte{2}) // dirties the line again after the flush
	d.Fence(0)
	if got := d.Durable(a, 1)[0]; got != 1 {
		t.Fatalf("durable byte = %d, want 1 (flush-time snapshot)", got)
	}
	if got := d.Load(0, a, 1)[0]; got != 2 {
		t.Fatalf("live byte = %d, want 2", got)
	}
	if d.DirtyLines() != 1 {
		t.Fatalf("line should remain dirty, DirtyLines = %d", d.DirtyLines())
	}
}

func TestNTStoreDurableAtFence(t *testing.T) {
	d := New()
	a := d.Map(64)
	d.StoreNT(0, a, []byte{9, 9})
	if got := d.Durable(a, 2); !bytes.Equal(got, []byte{0, 0}) {
		t.Fatalf("NT store durable before fence: %v", got)
	}
	d.Fence(0)
	if got := d.Durable(a, 2); !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("NT store not durable after fence: %v", got)
	}
}

func TestFenceIsPerThread(t *testing.T) {
	d := New()
	a := d.Map(128)
	d.Store(0, a, []byte{1})
	d.Flush(0, a, 1)
	d.Store(1, a+64, []byte{2})
	d.Flush(1, a+64, 1)

	d.Fence(0) // must not drain thread 1's flush
	if got := d.Durable(a, 1)[0]; got != 1 {
		t.Fatal("thread 0 flush not drained by its own fence")
	}
	if got := d.Durable(a+64, 1)[0]; got != 0 {
		t.Fatal("thread 1 flush drained by thread 0's fence")
	}
	d.Fence(1)
	if got := d.Durable(a+64, 1)[0]; got != 2 {
		t.Fatal("thread 1 flush not drained by its own fence")
	}
}

func TestStrictCrashLosesUnpersisted(t *testing.T) {
	d := New()
	a := d.Map(192)
	d.Store(0, a, []byte{1})    // dirty, unflushed
	d.Store(0, a+64, []byte{2}) // will be flushed but not fenced
	d.Flush(0, a+64, 1)
	d.Store(0, a+128, []byte{3}) // fully persisted
	d.Flush(0, a+128, 1)
	// The fence drains both outstanding flushes (a+64 and a+128): that is
	// exactly x86 semantics, so persist a+128 via a dedicated sequence.
	d.Fence(0)

	d.Store(0, a, []byte{4}) // dirty again
	d.Crash(Strict, 1)

	if got := d.Load(0, a, 1)[0]; got != 0 {
		t.Errorf("unflushed store survived strict crash: %d", got)
	}
	if got := d.Load(0, a+64, 1)[0]; got != 2 {
		t.Errorf("fenced line lost: %d", got)
	}
	if got := d.Load(0, a+128, 1)[0]; got != 3 {
		t.Errorf("fenced line lost: %d", got)
	}
	if d.DirtyLines() != 0 || d.PendingFlushes(0) != 0 {
		t.Error("crash left volatile state behind")
	}
}

func TestAdversarialCrashIsSubsetOfStores(t *testing.T) {
	// Property: after an adversarial crash every byte equals either its
	// pre-crash durable value or its pre-crash live value — the adversary
	// may persist early but never invents data.
	f := func(seed int64, vals [8]byte) bool {
		d := New()
		a := d.Map(8 * 64)
		for i, v := range vals {
			d.Store(0, a+mem.Addr(i*64), []byte{v})
		}
		d.Crash(Adversarial, seed)
		for i, v := range vals {
			got := d.Load(0, a+mem.Addr(i*64), 1)[0]
			if got != 0 && got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialCrashDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []byte {
		d := New()
		a := d.Map(32 * 64)
		for i := 0; i < 32; i++ {
			d.Store(0, a+mem.Addr(i*64), []byte{byte(i + 1)})
		}
		d.Crash(Adversarial, seed)
		return d.Load(0, a, 32*64)
	}
	if !bytes.Equal(run(42), run(42)) {
		t.Error("same seed produced different crash outcomes")
	}
	if bytes.Equal(run(1), run(2)) {
		// Not strictly guaranteed, but with 32 coin flips a collision means
		// the seed is being ignored.
		t.Error("different seeds produced identical crash outcomes")
	}
}

// TestAdversarialCrashDeterministicAcrossRuns rebuilds the same
// multi-thread device state 50 times and demands bit-identical durable
// images after an adversarial crash with a fixed seed. When several
// threads hold buffered snapshots of the same line (flushed-but-unfenced
// CLWBs, WCB entries), which snapshot the adversary persists must be a
// pure function of device state and seed — not of Go map iteration order.
// The seed implementation collected candidates by ranging over the
// per-thread maps and failed this test.
func TestAdversarialCrashDeterministicAcrossRuns(t *testing.T) {
	build := func() (*Device, mem.Addr) {
		d := New()
		a := d.Map(16 * 64)
		// Four threads each store their own value to the SAME 16 lines and
		// flush without fencing, so every line has four competing flushed
		// snapshots. Two threads additionally hold WCB entries for the even
		// lines.
		for tid := ThreadID(0); tid < 4; tid++ {
			for i := 0; i < 16; i++ {
				addr := a + mem.Addr(i*64)
				d.Store(tid, addr, []byte{byte(10*int(tid) + i + 1)})
				d.Flush(tid, addr, 1)
			}
		}
		for tid := ThreadID(0); tid < 2; tid++ {
			for i := 0; i < 16; i += 2 {
				addr := a + mem.Addr(i*64)
				d.StoreNT(tid, addr, []byte{byte(100 + 10*int(tid) + i)})
			}
		}
		return d, a
	}
	d, a := build()
	d.Crash(Adversarial, 7)
	want := d.Durable(a, 16*64)
	for run := 1; run < 50; run++ {
		d, a := build()
		d.Crash(Adversarial, 7)
		if got := d.Durable(a, 16*64); !bytes.Equal(got, want) {
			t.Fatalf("run %d: durable image diverged from run 0\n got: %v\nwant: %v", run, got, want)
		}
	}
}

func TestIsDurable(t *testing.T) {
	d := New()
	a := d.Map(64)
	d.Store(0, a, []byte{5})
	if d.IsDurable(a, 1) {
		t.Error("dirty line reported durable")
	}
	d.Flush(0, a, 1)
	d.Fence(0)
	if !d.IsDurable(a, 1) {
		t.Error("persisted line reported not durable")
	}
}

func TestStats(t *testing.T) {
	d := New()
	a := d.Map(256)
	d.Store(0, a, []byte{1, 2})
	d.StoreNT(0, a+8, []byte{3})
	d.Load(0, a, 2)
	d.Flush(0, a, 2)
	d.Fence(0)
	s := d.Stats()
	if s.Stores != 1 || s.NTStores != 1 || s.Loads != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if s.BytesStored != 3 {
		t.Errorf("BytesStored = %d, want 3", s.BytesStored)
	}
	if s.LinesPersist != 2 { // one flushed line + one WCB line
		t.Errorf("LinesPersist = %d, want 2", s.LinesPersist)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

// TestStatsCountPerLine pins the per-line accounting contract: a store,
// NT store or load spanning n cache lines counts n operations, exactly as
// a flush of n lines counts n CLWBs and as the paper counts PM accesses.
// (The seed counted stores and loads once per call, so a 3-line
// Store+Flush reported 1 store but 3 flushes.)
func TestStatsCountPerLine(t *testing.T) {
	d := New()
	a := d.Map(512)
	d.Store(0, a, make([]byte, 3*mem.LineSize)) // exactly 3 lines
	d.Store(0, a+60, make([]byte, 8))           // straddles 2 lines
	d.Flush(0, a, 3*mem.LineSize)
	d.Fence(0)
	d.StoreNT(0, a+256, make([]byte, 2*mem.LineSize))
	d.Load(0, a, 2*mem.LineSize)
	s := d.Stats()
	if s.Stores != 5 {
		t.Errorf("Stores = %d, want 5 (3-line store + 2-line store)", s.Stores)
	}
	if s.Flushes != 3 {
		t.Errorf("Flushes = %d, want 3", s.Flushes)
	}
	if s.NTStores != 2 {
		t.Errorf("NTStores = %d, want 2", s.NTStores)
	}
	if s.Loads != 2 {
		t.Errorf("Loads = %d, want 2", s.Loads)
	}
}

func TestNonPMAddressPanics(t *testing.T) {
	d := New()
	defer func() {
		if recover() == nil {
			t.Error("store to DRAM address did not panic")
		}
	}()
	d.Store(0, 0x1000, []byte{1})
}

// TestStatsAfterHandoff runs memory operations on one goroutine and reads
// the counters on another after a channel receive — the happens-before edge
// every reader of a device's counters has. The counts are exact, ResetStats
// zeroes them, and under -race the hand-off is the only synchronisation the
// plain counters need.
func TestStatsAfterHandoff(t *testing.T) {
	d := New()
	a := d.Map(4096)
	const rounds = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			d.Store(0, a, []byte{byte(i)})
			d.StoreNT(1, a+64, []byte{byte(i), 1})
			d.LoadInto(0, a, make([]byte, 1))
			d.Flush(0, a, 1)
			d.Fence(0)
			d.Fence(1)
		}
	}()
	<-done
	want := Stats{Stores: rounds, NTStores: rounds, Loads: rounds, Flushes: rounds,
		Fences: 2 * rounds, LinesPersist: 2 * rounds, BytesStored: 3 * rounds}
	if s := d.Stats(); s != want {
		t.Errorf("stats after the hand-off %+v, want %+v", s, want)
	}
	if c := d.Clone(); c.Stats() != want {
		t.Errorf("clone's stats %+v, want %+v", c.Stats(), want)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

// refDevice is the reference model the differential test checks Device
// against: the device's documented semantics written the obvious way, one
// map entry per line, with no attention to cost. It deliberately shares no
// code with the device.
type refDevice struct {
	live    map[mem.Line]line
	durable map[uint64]*[PageBytes]byte // pages ever persisted to
	dirty   map[mem.Line]bool
	flushed []map[mem.Line]line // per thread
	wcb     []map[mem.Line]line
	stats   Stats
}

func newRefDevice(threads int) *refDevice {
	r := &refDevice{
		live:    map[mem.Line]line{},
		durable: map[uint64]*[PageBytes]byte{},
		dirty:   map[mem.Line]bool{},
	}
	for i := 0; i < threads; i++ {
		r.flushed = append(r.flushed, map[mem.Line]line{})
		r.wcb = append(r.wcb, map[mem.Line]line{})
	}
	return r
}

// write copies data into the live image and calls touched for every line.
func (r *refDevice) write(a mem.Addr, data []byte, touched func(mem.Line)) {
	for i := 0; i < len(data); {
		ad := a + mem.Addr(i)
		l := mem.LineOf(ad)
		v := r.live[l]
		i += copy(v[ad-mem.LineAddr(l):], data[i:])
		r.live[l] = v
		touched(l)
	}
	r.stats.BytesStored += uint64(len(data))
}

func (r *refDevice) store(a mem.Addr, data []byte) {
	r.write(a, data, func(l mem.Line) {
		r.dirty[l] = true
		r.stats.Stores++
	})
}

func (r *refDevice) storeNT(tid int, a mem.Addr, data []byte) {
	r.write(a, data, func(l mem.Line) {
		r.wcb[tid][l] = r.live[l]
		delete(r.dirty, l)
		r.stats.NTStores++
	})
}

func (r *refDevice) flush(tid int, a mem.Addr, size int) {
	l := mem.LineOf(a)
	for i := 0; i < mem.LinesSpanned(a, size); i++ {
		r.flushed[tid][l] = r.live[l]
		r.stats.Flushes++
		l++
	}
}

func (r *refDevice) durableLine(l mem.Line) line {
	var v line
	if pg := r.durable[mem.PageOf(l)]; pg != nil {
		copy(v[:], pg[mem.PageIndex(l)*mem.LineSize:])
	}
	return v
}

func (r *refDevice) persist(l mem.Line, snap line) {
	pg := r.durable[mem.PageOf(l)]
	if pg == nil {
		pg = new([PageBytes]byte)
		r.durable[mem.PageOf(l)] = pg
	}
	copy(pg[mem.PageIndex(l)*mem.LineSize:], snap[:])
	r.stats.LinesPersist++
	if r.dirty[l] && r.live[l] == snap {
		delete(r.dirty, l)
	}
}

func (r *refDevice) fence(tid int) {
	for l, snap := range r.flushed[tid] {
		r.persist(l, snap)
	}
	for l, snap := range r.wcb[tid] {
		r.persist(l, snap)
	}
	r.flushed[tid] = map[mem.Line]line{}
	r.wcb[tid] = map[mem.Line]line{}
	r.stats.Fences++
}

func (r *refDevice) crash(mode CrashMode, seed int64) {
	if mode == Adversarial {
		cands := map[mem.Line]line{}
		for l := range r.dirty {
			cands[l] = r.live[l]
		}
		for _, bufs := range [][]map[mem.Line]line{r.flushed, r.wcb} {
			for _, buf := range bufs {
				for l, snap := range buf {
					cands[l] = snap
				}
			}
		}
		lines := make([]mem.Line, 0, len(cands))
		for l := range cands {
			lines = append(lines, l)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		rng := rand.New(rand.NewSource(seed))
		for _, l := range lines {
			if rng.Intn(2) == 0 {
				r.persist(l, cands[l])
			}
		}
	}
	r.live = map[mem.Line]line{}
	for idx, pg := range r.durable {
		for li := 0; li < mem.PageLines; li++ {
			var v line
			copy(v[:], pg[li*mem.LineSize:])
			r.live[mem.PageFirstLine(idx)+mem.Line(li)] = v
		}
	}
	r.dirty = map[mem.Line]bool{}
	for tid := range r.flushed {
		r.flushed[tid] = map[mem.Line]line{}
		r.wcb[tid] = map[mem.Line]line{}
	}
	r.stats.Crashes++
}

// load reads from the live image; isDurable compares it with the durable.
func (r *refDevice) load(a mem.Addr, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		ad := a + mem.Addr(i)
		v := r.live[mem.LineOf(ad)]
		out[i] = v[ad-mem.LineAddr(mem.LineOf(ad))]
	}
	return out
}

func (r *refDevice) isDurable(a mem.Addr, size int) bool {
	for i := 0; i < size; i++ {
		ad := a + mem.Addr(i)
		l := mem.LineOf(ad)
		lv, dv := r.live[l], r.durableLine(l)
		if lv[ad-mem.LineAddr(l)] != dv[ad-mem.LineAddr(l)] {
			return false
		}
	}
	return true
}

// diff reports the first observable on which d departs from the model.
func (r *refDevice) diff(d *Device) string {
	if got := d.Stats(); got != r.stats {
		return fmt.Sprintf("Stats: got %+v, want %+v", got, r.stats)
	}
	if got := d.DirtyLines(); got != len(r.dirty) {
		return fmt.Sprintf("DirtyLines: got %d, want %d", got, len(r.dirty))
	}
	for tid := range r.flushed {
		if got := d.PendingFlushes(ThreadID(tid)); got != len(r.flushed[tid]) {
			return fmt.Sprintf("PendingFlushes(%d): got %d, want %d", tid, got, len(r.flushed[tid]))
		}
	}
	img := d.DurableImage()
	if len(img) != len(r.durable) {
		return fmt.Sprintf("DurableImage: got %d pages, want %d", len(img), len(r.durable))
	}
	for i := range img {
		if want := r.durable[img[i].Index]; want == nil || img[i].Data != *want {
			return fmt.Sprintf("DurableImage: page %d differs", img[i].Index)
		}
	}
	return ""
}

// TestDifferentialAgainstReferenceModel runs seeded random programs of
// Store / StoreNT / Flush / Fence / Crash / Clone over 1-4 threads against
// the device and the map-based reference model, comparing every observable
// after every step. Epochs run from one line to more than 10 000, so each
// thread's pending sets cross the scan/index switch in both directions;
// lines are flushed twice inside an epoch and both flushed and NT-stored.
func TestDifferentialAgainstReferenceModel(t *testing.T) {
	const regionLines = 11000
	seeds, steps := 6, 400
	if testing.Short() {
		seeds = 2
	}
	var sawSingleton, sawHuge, sawGrow, sawShrink bool
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		threads := 1 + seed%4
		d := New()
		base := d.Map(regionLines * mem.LineSize)
		ref := newRefDevice(threads)

		// target[tid] is the distinct-line count at which tid fences;
		// lastEpoch[tid] the size of its previous epoch.
		target := make([]int, threads)
		lastEpoch := make([]int, threads)
		lastFlush := make([]mem.Addr, threads)
		pickTarget := func() int {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				return 1 + rng.Intn(4)
			case 4, 5:
				return smallSet - 3 + rng.Intn(8)
			case 6, 7:
				return smallSet + 1 + rng.Intn(400)
			case 8:
				return 1000 + rng.Intn(2000)
			}
			return 10001 + rng.Intn(500)
		}
		for tid := range target {
			target[tid] = pickTarget()
			lastFlush[tid] = base
		}
		randBytes := func(n int) []byte {
			b := make([]byte, n)
			rng.Read(b)
			return b
		}
		randAddr := func(span int) mem.Addr {
			return base + mem.Addr(rng.Intn(regionLines*mem.LineSize-span))
		}
		fence := func(tid int) {
			n := d.PendingFlushes(ThreadID(tid))
			sawSingleton = sawSingleton || n == 1
			sawHuge = sawHuge || n > 10000
			if lastEpoch[tid] > 0 {
				sawGrow = sawGrow || (lastEpoch[tid] <= smallSet && n > smallSet)
				sawShrink = sawShrink || (lastEpoch[tid] > smallSet && n > 0 && n <= smallSet)
			}
			lastEpoch[tid] = n
			d.Fence(ThreadID(tid))
			ref.fence(tid)
			target[tid] = pickTarget()
		}

		for step := 0; step < steps; step++ {
			tid := rng.Intn(threads)
			op := rng.Intn(100)
			switch {
			case op < 25:
				data := randBytes(1 + rng.Intn(200))
				a := randAddr(len(data))
				d.Store(ThreadID(tid), a, data)
				ref.store(a, data)
			case op < 33:
				data := randBytes(1 + rng.Intn(300))
				a := randAddr(len(data))
				d.StoreNT(ThreadID(tid), a, data)
				ref.storeNT(tid, a, data)
			case op < 38:
				// NT-store into a line this epoch already flushed.
				data := randBytes(1 + rng.Intn(16))
				d.StoreNT(ThreadID(tid), lastFlush[tid], data)
				ref.storeNT(tid, lastFlush[tid], data)
			case op < 85:
				// Store, then flush a run sized to the epoch's target; a
				// quarter of the runs restart at the previous flush, so its
				// lines are flushed twice with different contents.
				remaining := target[tid] - d.PendingFlushes(ThreadID(tid))
				lines := 1 + rng.Intn(3)
				if remaining > 8 {
					lines = 1 + rng.Intn(min(remaining, 4000))
				}
				size := lines*mem.LineSize - rng.Intn(mem.LineSize)
				a := randAddr(size)
				if rng.Intn(4) == 0 {
					a = lastFlush[tid]
					size = min(size, int(base)+regionLines*mem.LineSize-int(a))
				}
				data := randBytes(1 + rng.Intn(min(size, 300)))
				d.Store(ThreadID(tid), a, data)
				ref.store(a, data)
				d.Flush(ThreadID(tid), a, size)
				ref.flush(tid, a, size)
				lastFlush[tid] = a
				if d.PendingFlushes(ThreadID(tid)) >= target[tid] {
					fence(tid)
				}
			case op < 88:
				d = d.Clone()
			case op < 90:
				mode, cseed := CrashMode(rng.Intn(2)), rng.Int63()
				d.Crash(mode, cseed)
				ref.crash(mode, cseed)
				for tid := range lastEpoch {
					lastEpoch[tid] = 0
				}
			default:
				fence(tid)
			}
			if msg := ref.diff(d); msg != "" {
				t.Fatalf("seed %d step %d (op %d, thread %d): %s", seed, step, op, tid, msg)
			}
			a := randAddr(512)
			if got, want := d.Load(0, a, 512), ref.load(a, 512); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: Load(%v, 512) differs from the model", seed, step, a)
			}
			ref.stats.Loads += uint64(mem.LinesSpanned(a, 512))
			into := bytes.Repeat([]byte{0xFF}, 512)
			if d.LoadInto(0, a, into); !bytes.Equal(into, ref.load(a, 512)) {
				t.Fatalf("seed %d step %d: LoadInto(%v, 512) differs from the model", seed, step, a)
			}
			ref.stats.Loads += uint64(mem.LinesSpanned(a, 512))
			if got, want := d.IsDurable(a, 512), ref.isDurable(a, 512); got != want {
				t.Fatalf("seed %d step %d: IsDurable(%v, 512) = %v, model says %v", seed, step, a, got, want)
			}
		}
	}
	if !testing.Short() && !(sawSingleton && sawHuge && sawGrow && sawShrink) {
		t.Errorf("programs missed an epoch shape: singleton=%v >10000=%v small->large=%v large->small=%v",
			sawSingleton, sawHuge, sawGrow, sawShrink)
	}
}

// crashFixture builds a device whose durable image has a fully persisted
// page, a partially persisted page (some lines durable, some only dirty, one
// flushed but unfenced) and an NT-written page, next to a page that was
// never written. It returns the base of the four pages.
func crashFixture() (*Device, mem.Addr) {
	d := New()
	a := d.Map(4 * PageBytes)
	full := make([]byte, PageBytes)
	for i := range full {
		full[i] = byte(i%251 + 1)
	}
	d.Store(0, a, full)
	d.Flush(0, a, PageBytes)
	d.Fence(0)
	part := a + PageBytes
	d.Store(0, part, full[:PageBytes/2])
	d.Flush(0, part, 4*mem.LineSize)
	d.Fence(0)
	d.Flush(0, part+8*mem.LineSize, mem.LineSize) // pending at the crash
	d.StoreNT(1, a+2*PageBytes+100, full[:300])
	d.Fence(1)
	return d, a
}

// TestCrashRestoresOnlyInFlightPages checks that a crash visits exactly the
// pages with a stale line: each takes its durable values back and returns
// its undo block, every other page is left as it was, bit for bit, and
// loads then read the durable image, on the device and on a clone of it.
func TestCrashRestoresOnlyInFlightPages(t *testing.T) {
	for _, mode := range []CrashMode{Strict, Adversarial} {
		d, a := crashFixture()
		d.Store(0, a+3*PageBytes, []byte{7, 7, 7}) // dirties the unwritten page
		inflight := map[*page]bool{}
		for _, f := range d.inflight {
			inflight[f.pg] = true
		}
		if len(inflight) != 2 {
			t.Fatalf("%d pages in flight, want 2: the partly persisted page and the one stored last", len(inflight))
		}
		type pageCopy struct {
			meta page
			data block
		}
		others := map[*page]pageCopy{}
		for _, pg := range d.pages {
			if !inflight[pg] {
				others[pg] = pageCopy{*pg, *pg.data}
			}
		}
		spare := len(d.spare)
		d.Crash(mode, 3)
		if len(d.inflight) != 0 || len(d.spare) != spare+2 {
			t.Errorf("mode %d: after Crash %d pages in flight and %d spare blocks, want 0 and %d", mode, len(d.inflight), len(d.spare), spare+2)
		}
		for pg := range inflight {
			if pg.dirty != 0 || pg.stale != 0 || pg.undo != 0 {
				t.Errorf("mode %d: a restored page kept dirty %#x, stale %#x, undo %d", mode, pg.dirty, pg.stale, pg.undo)
			}
		}
		for pg, was := range others {
			if *pg != was.meta || *pg.data != was.data {
				t.Errorf("mode %d: Crash changed a page with nothing in flight", mode)
			}
		}
		durable := d.Durable(a, 4*PageBytes)
		if !bytes.Equal(d.Load(0, a, 4*PageBytes), durable) || !bytes.Equal(d.Clone().Load(0, a, 4*PageBytes), durable) {
			t.Errorf("mode %d: after Crash loads differ from the durable image", mode)
		}
		if !d.IsDurable(a, 4*PageBytes) {
			t.Errorf("mode %d: after Crash the live image departs from the durable one", mode)
		}
	}
}

// TestStoreAfterCrashSavesOneLine checks the undo bookkeeping on a recovered
// device: a store saves the durable value of the one line it changes, a
// fence gives it back, reads of every page stay right, and a second crash
// recovers what was persisted since.
func TestStoreAfterCrashSavesOneLine(t *testing.T) {
	d, a := crashFixture()
	d.Crash(Strict, 1)
	before := d.Load(0, a, 4*PageBytes)
	saved := func(when string, stale uint64) {
		t.Helper()
		if len(d.inflight) != 1 || d.inflight[0].pg.stale != stale {
			t.Fatalf("%s: %d pages in flight, want 1 with stale lines %#x", when, len(d.inflight), stale)
		}
	}

	d.Store(0, a+10, []byte{0xAA}) // page 0: persisted below
	saved("one store", 0b01)
	d.Store(0, a+10+mem.LineSize, []byte{0xBB}) // page 0: left dirty
	saved("two stores", 0b11)
	d.Flush(0, a+10, 1)
	d.Fence(0)
	saved("after the fence", 0b10)
	want := append([]byte(nil), before...)
	want[10], want[10+mem.LineSize] = 0xAA, 0xBB
	if got := d.Load(0, a, 4*PageBytes); !bytes.Equal(got, want) {
		t.Fatal("loads after a store to a recovered page are wrong")
	}
	if d.IsDurable(a+10+mem.LineSize, 1) || !d.IsDurable(a+PageBytes, 3*PageBytes) {
		t.Error("IsDurable wrong after a store to a recovered page")
	}

	d.Crash(Strict, 2)
	want[10+mem.LineSize] = before[10+mem.LineSize] // the dirty store is lost
	if got := d.Load(0, a, 4*PageBytes); !bytes.Equal(got, want) {
		t.Fatal("second crash did not recover the persisted image")
	}
	if len(d.inflight) != 0 {
		t.Fatalf("second crash left %d pages in flight", len(d.inflight))
	}
}

// TestDeviceHoldsOneImage pins the device's host footprint: each page
// written and persisted costs its PageBytes of data plus at most
// PageOverheadBytes of bookkeeping. Measured on linux/amd64 with Go 1.24:
// 69 B a page in epochs of one page, 93 B in epochs of sixteen (whose
// sixteen undo blocks stay pooled).
func TestDeviceHoldsOneImage(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const pages = 3000
	for _, epoch := range []int{1, 16} {
		buf := bytes.Repeat([]byte{0x5A}, epoch*PageBytes)
		before := heap()
		d := New()
		a := d.Map(pages * PageBytes)
		for p := 0; p < pages; p += epoch {
			at := a + mem.Addr(p*PageBytes)
			d.Store(0, at, buf)
			d.Flush(0, at, len(buf))
			d.Fence(0)
		}
		per := (int64(heap()) - int64(before)) / pages
		runtime.KeepAlive(d)
		t.Logf("epochs of %d pages: %d B of heap per page (%d B beyond the data)", epoch, per, per-PageBytes)
		if per > PageBytes+PageOverheadBytes {
			t.Errorf("epochs of %d pages: %d B of heap per written and persisted page, want at most %d + %d", epoch, per, PageBytes, PageOverheadBytes)
		}
	}
}

// TestLoadIntoMatchesLoad: LoadInto must overwrite every byte of a dirty
// caller buffer exactly as Load fills a fresh one — including the spans that
// no page backs, which Load got for free from make.
func TestLoadIntoMatchesLoad(t *testing.T) {
	d := New()
	a := d.Map(4 * PageBytes)
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	// Page 0: lines 0 and 2 written, line 1 a hole inside a backed page.
	d.Store(0, a, fill(mem.LineSize, 1))
	d.Store(0, a+2*mem.LineSize, fill(mem.LineSize, 2))
	// Pages 1-2: a write straddling the page boundary. Page 3: never written.
	d.Store(0, a+2*PageBytes-24, fill(48, 3))
	d.Flush(0, a, 2*PageBytes+64)
	d.Fence(0)

	check := func(when string) {
		t.Helper()
		for _, c := range []struct {
			name string
			off  mem.Addr
			size int
		}{
			{"hole between written lines", 0, 3 * mem.LineSize},
			{"inside the hole, unaligned", mem.LineSize + 5, 40},
			{"page boundary", 2*PageBytes - 100, 200},
			{"backed page into unbacked page", 3*PageBytes - 70, 300},
			{"unbacked page only", 3*PageBytes + 9, 130},
			{"empty", 7, 0},
		} {
			want := d.Load(0, a+c.off, c.size)
			got := fill(c.size, 0xFF)
			before := d.Stats().Loads
			d.LoadInto(0, a+c.off, got)
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: LoadInto differs from Load", when, c.name)
			}
			if n, w := d.Stats().Loads-before, uint64(mem.LinesSpanned(a+c.off, c.size)); n != w {
				t.Errorf("%s, %s: LoadInto counted %d loads, want %d", when, c.name, n, w)
			}
		}
	}
	check("persisted")
	// A store left in flight, then lost: the crash restores its line.
	d.Store(0, a+mem.LineSize+5, fill(40, 4))
	check("in flight")
	d.Crash(Strict, 1)
	check("after a crash")
	if got := d.Load(0, a+mem.LineSize, mem.LineSize); !bytes.Equal(got, fill(mem.LineSize, 0)) {
		t.Fatalf("an unpersisted store survived the crash: %v", got)
	}
	if got := d.Load(0, a+2*PageBytes-24, 48); !bytes.Equal(got, fill(48, 3)) {
		t.Fatalf("persisted bytes lost across the crash: %v", got)
	}
}

// TestLoadIntoDoesNotAllocate pins the read primitive at zero allocations,
// backed or not.
func TestLoadIntoDoesNotAllocate(t *testing.T) {
	d := New()
	a := d.Map(2 * PageBytes)
	d.Store(0, a, bytes.Repeat([]byte{7}, 256))
	out := make([]byte, 192)
	if n := testing.AllocsPerRun(1000, func() { d.LoadInto(0, a+32, out) }); n != 0 {
		t.Errorf("LoadInto of a written span allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { d.LoadInto(0, a+PageBytes, out) }); n != 0 {
		t.Errorf("LoadInto of an unwritten span allocates %v times per op, want 0", n)
	}
}

// TestSmallEpochPathsDoNotAllocate pins the steady-state hot paths at zero
// allocations: store+flush+fence and NT-store+fence of one line.
func TestSmallEpochPathsDoNotAllocate(t *testing.T) {
	d := New()
	a := d.Map(1 << 16)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	i := 0
	sff := func() {
		addr := a + mem.Addr((i%1024)*mem.LineSize)
		i++
		d.Store(0, addr, buf)
		d.Flush(0, addr, len(buf))
		d.Fence(0)
	}
	nt := func() {
		addr := a + mem.Addr((i%1024)*mem.LineSize)
		i++
		d.StoreNT(0, addr, buf)
		d.Fence(0)
	}
	for j := 0; j < 1024; j++ { // touch every page and grow the sets once
		sff()
		nt()
	}
	if n := testing.AllocsPerRun(1000, sff); n != 0 {
		t.Errorf("store+flush+fence allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, nt); n != 0 {
		t.Errorf("NT-store+fence allocates %v times per op, want 0", n)
	}
}

// TestFenceCostIndependentOfHistory is the regression pin for O(history)
// fences: store+flush+fence of one line must cost about the same on a
// thread that has had an 8 192-line epoch as on a fresh device. With
// map-backed buffers cleared at every fence the ratio was 390x; the limit
// leaves room for a noisy box.
func TestFenceCostIndependentOfHistory(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock ratio: skipped under -short and -race")
	}
	nsPerOp := func(seen bool) float64 {
		return float64(testing.Benchmark(func(b *testing.B) {
			d := New()
			a := d.Map(1 << 20)
			if seen {
				largeEpoch(d, a)
			}
			storeFlushFenceLoop(b, d, a)
		}).NsPerOp())
	}
	fresh, after := nsPerOp(false), nsPerOp(true)
	t.Logf("store+flush+fence: %.0f ns/op fresh, %.0f ns/op after a %d-line epoch (%.1fx)",
		fresh, after, largeEpochLines, after/fresh)
	if after > 20*fresh {
		t.Errorf("a fence after one large epoch costs %.0f ns/op against %.0f fresh (%.0fx, limit 20x)",
			after, fresh, after/fresh)
	}
}
