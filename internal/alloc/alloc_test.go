package alloc

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newRT() (*persist.Runtime, *persist.Thread) {
	rt := persist.NewRuntime("alloc-test", "native", 1, persist.Config{})
	return rt, rt.Thread(0)
}

// allocated counts the blocks m's persistent bitmaps mark live.
func allocated(th *persist.Thread, m *MultiSlab) int {
	n := 0
	for _, c := range m.classes {
		for w := 0; w < c.perSlab/64; w++ {
			n += bits.OnesCount64(th.LoadU64(c.bitmaps + mem.Addr(w*8)))
		}
	}
	return n
}

// --- SingleSlab ----------------------------------------------------------

func TestSingleSlabExhaustion(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 256)
	var got []mem.Addr
	for {
		a := s.Alloc(th, 32)
		if a == 0 {
			break
		}
		got = append(got, a)
	}
	if len(got) == 0 {
		t.Fatal("no allocations succeeded")
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1]+32 {
			t.Fatalf("allocations %v and %v overlap", got[i-1], got[i])
		}
	}
	// Everything must fit in the slab.
	if len(got) > 256/(32+headerSize)+1 {
		t.Errorf("too many allocations: %d", len(got))
	}
}

func TestSingleSlabMetadataIsDurable(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 2048)
	a := s.Alloc(th, 64)
	rt.Crash(pmem.Strict, 1)
	s.Recover(th)
	// The allocation must survive the crash: recovering must not hand the
	// same block out again.
	b := s.Alloc(th, 64)
	if b == a {
		t.Fatal("recovered allocator reissued a live block")
	}
}

func TestSingleSlabRecoverMatchesFreeList(t *testing.T) {
	f := func(sizes []uint8) bool {
		rt, th := newRT()
		s := NewSingleSlab(rt, th, 8192)
		for _, size := range sizes {
			s.Alloc(th, int(size))
		}
		before := slices.Clone(s.free)
		s.Recover(th)
		return slices.Equal(s.free, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSlabSetStateEpoch(t *testing.T) {
	rt, th := newRT()
	s := NewSingleSlab(rt, th, 1024)
	a := s.Alloc(th, 64)
	n := rt.Trace.CountKind(trace.KFence)
	s.SetState(th, a, StateVolatile)
	if got := rt.Trace.CountKind(trace.KFence) - n; got != 1 {
		t.Errorf("SetState used %d epochs, want exactly 1", got)
	}
}

// --- MultiSlab -----------------------------------------------------------

func TestMultiSlabAllocFree(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	a := m.Alloc(th, 20) // -> 32-byte class
	b := m.Alloc(th, 20)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad allocations %v %v", a, b)
	}
	if allocated(th, m) != 2 {
		t.Fatalf("Allocated = %d", allocated(th, m))
	}
	m.Free(th, a)
	m.Free(th, b)
	if allocated(th, m) != 0 {
		t.Fatalf("Allocated = %d after frees", allocated(th, m))
	}
}

func TestMultiSlabSingletonEpochPerAlloc(t *testing.T) {
	// The paper: Mnemosyne allocs are single sub-10-byte singleton epochs.
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	fences := rt.Trace.CountKind(trace.KFence)
	stores := rt.Trace.CountKind(trace.KStore)
	m.Alloc(th, 64)
	if got := rt.Trace.CountKind(trace.KFence) - fences; got != 1 {
		t.Errorf("alloc used %d epochs, want 1", got)
	}
	if got := rt.Trace.CountKind(trace.KStore) - stores; got != 1 {
		t.Errorf("alloc used %d stores, want 1", got)
	}
	// The single store must be 8 bytes (a bitmap word).
	var last trace.Event
	for _, e := range rt.Trace.Events() {
		if e.Kind == trace.KStore {
			last = e
		}
	}
	if sz := last.Size; sz != 8 {
		t.Errorf("alloc store size = %d, want 8", sz)
	}
}

func TestMultiSlabClassSelection(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 64)
	seen := map[mem.Addr]bool{}
	for _, size := range []int{1, 16, 17, 100, 4096} {
		a := m.Alloc(th, size)
		if a == 0 {
			t.Fatalf("alloc(%d) failed", size)
		}
		if seen[a] {
			t.Fatalf("alloc(%d) reused address %v", size, a)
		}
		seen[a] = true
	}
}

func TestMultiSlabOversizePanics(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 64)
	defer func() {
		if recover() == nil {
			t.Error("oversize alloc did not panic")
		}
	}()
	m.Alloc(th, 100000)
}

func TestMultiSlabRecover(t *testing.T) {
	rt, th := newRT()
	m := NewMultiSlab(rt, 128)
	a := m.Alloc(th, 64)
	b := m.Alloc(th, 64)
	m.Free(th, a)
	rt.Crash(pmem.Strict, 1)
	m.Recover(th)
	if allocated(th, m) != 1 {
		t.Fatalf("Allocated after recover = %d, want 1", allocated(th, m))
	}
	// Drain the class: the surviving block b must never come back, and a,
	// freed before the crash, exactly once.
	seen := map[mem.Addr]bool{}
	for x := m.Alloc(th, 64); x != 0; x = m.Alloc(th, 64) {
		if x == b {
			t.Fatalf("Alloc after Recover returned the live block %v", b)
		}
		if seen[x] {
			t.Fatalf("Alloc after Recover returned %v twice", x)
		}
		seen[x] = true
	}
	if len(seen) != 127 || !seen[a] {
		t.Fatalf("drained %d blocks (a handed out: %v), want 127 with a", len(seen), seen[a])
	}
}

// eagerFree is the free index NewMultiSlab and Recover built a block at a
// time before the index went a word at a time, kept as the oracle for the
// order blocks are handed out in: every block pushed at construction,
// highest first, onto its stripe's stack.
type eagerFree [stripes][]int

func newEagerFree(perSlab int) *eagerFree {
	e := &eagerFree{}
	for blk := perSlab - 1; blk >= 0; blk-- {
		e.push(blk)
	}
	return e
}

func (e *eagerFree) push(blk int) { e[(blk/64)%stripes] = append(e[(blk/64)%stripes], blk) }

func (e *eagerFree) pop(tid int) (int, bool) {
	for i := 0; i < stripes; i++ {
		idx := (tid%stripes + i) % stripes
		if n := len(e[idx]); n > 0 {
			blk := e[idx][n-1]
			e[idx] = e[idx][:n-1]
			return blk, true
		}
	}
	return 0, false
}

// recover rebuilds the stacks from bitmap words as Recover once did: words
// ascending, bits descending, every clear bit pushed.
func (e *eagerFree) recover(words []uint64) {
	for i := range e {
		e[i] = e[i][:0]
	}
	for w, v := range words {
		for b := 63; b >= 0; b-- {
			if v&(1<<uint(b)) == 0 {
				e.push(w*64 + b)
			}
		}
	}
}

// bitmapWords reads c's persistent bitmap.
func bitmapWords(th *persist.Thread, c *slabClass) []uint64 {
	words := make([]uint64, c.perSlab/64)
	for w := range words {
		words[w] = th.LoadU64(c.bitmaps + mem.Addr(w*8))
	}
	return words
}

// orderAllocator is what TestMultiSlabPopOrderMatchesEager drives: one of
// the two bitmap allocators, seen through the block bases of the class
// under test.
type orderAllocator struct {
	class   *slabClass
	events  int                               // PM events in an Alloc
	alloc   func(th *persist.Thread) mem.Addr // a block base of the class, or 0
	free    func(th *persist.Thread, base mem.Addr)
	recover func(th *persist.Thread)
}

func newOrderAllocator(logged bool, rt *persist.Runtime, per int, rng *rand.Rand) orderAllocator {
	if !logged {
		m := NewMultiSlab(rt, per)
		return orderAllocator{
			class:   m.classes[1], // the 32-byte class
			events:  4,
			alloc:   func(th *persist.Thread) mem.Addr { return m.Alloc(th, 17+rng.Intn(16)) },
			free:    m.Free,
			recover: m.Recover,
		}
	}
	g := NewLogged(rt, per)
	return orderAllocator{
		class:  g.inner.classes[1], // 32 bytes with the header
		events: 18,
		alloc: func(th *persist.Thread) mem.Addr {
			if a := g.Alloc(th, 1+rng.Intn(16)); a != 0 {
				return a - objHeaderSize
			}
			return 0
		},
		free:    func(th *persist.Thread, base mem.Addr) { g.Free(th, base+objHeaderSize) },
		recover: g.Recover,
	}
}

// TestMultiSlabPopOrderMatchesEager: the word-at-a-time free indexes hand
// out blocks in exactly the order the eager per-block stacks did, for
// MultiSlab and for Logged, over random runs of allocations from several
// threads, frees of random live blocks and Recovers, through exhaustion of
// whole stripes and classes. In the crash runs a Recover follows an Alloc
// or Free stopped at a random event and an Adversarial crash, and the
// oracle is rebuilt from the durable bitmap words. The order is what every
// sim_digest and golden depends on.
func TestMultiSlabPopOrderMatchesEager(t *testing.T) {
	for _, logged := range []bool{false, true} {
		for _, crash := range []bool{false, true} {
			for _, per := range []int{64, 128, 1000, 2048} {
				for seed := int64(1); seed <= 4; seed++ {
					checkPopOrder(t, logged, crash, per, seed)
				}
			}
		}
	}
}

func checkPopOrder(t *testing.T, logged, crash bool, per int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rt := persist.NewRuntime("alloc-test", "native", 4, persist.Config{NoTrace: true})
	m := newOrderAllocator(logged, rt, per, rng)
	c := m.class
	ref := newEagerFree(c.perSlab)
	live := map[int]bool{}
	var order []int // the live blocks, for picking one to free
	for op := 0; op < 6*c.perSlab; op++ {
		th := rt.Thread(rng.Intn(4))
		switch r := rng.Intn(100); {
		case r < 60:
			want, ok := ref.pop(th.ID())
			a := m.alloc(th)
			if !ok {
				if a != 0 {
					t.Fatalf("logged=%v crash=%v per=%d seed=%d op %d: got %v from an exhausted class", logged, crash, per, seed, op, a)
				}
				continue
			}
			if wantA := c.data + mem.Addr(want*c.blockSize); a != wantA {
				t.Fatalf("logged=%v crash=%v per=%d seed=%d op %d: thread %d got %v, eager order gives %v", logged, crash, per, seed, op, th.ID(), a, wantA)
			}
			live[want] = true
			order = append(order, want)
		case r < 98:
			if len(order) == 0 {
				continue
			}
			i := rng.Intn(len(order))
			blk := order[i]
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			delete(live, blk)
			m.free(th, c.data+mem.Addr(blk*c.blockSize))
			ref.push(blk)
		case !crash:
			m.recover(th)
			words := bitmapWords(th, c)
			for blk := 0; blk < c.perSlab; blk++ {
				if words[blk/64]&(1<<uint(blk%64)) != 0 != live[blk] {
					t.Fatalf("logged=%v per=%d seed=%d op %d: bitmap and live disagree on block %d", logged, per, seed, op, blk)
				}
			}
			ref.recover(words)
		default:
			// Stop an Alloc, or the Free of a live block, at a random event
			// (or, past its last one, not at all), crash, recover; the
			// durable bitmap decides which blocks are live.
			fn := func() { m.alloc(th) }
			if len(order) > 0 && rng.Intn(2) == 0 {
				blk := order[rng.Intn(len(order))]
				fn = func() { m.free(th, c.data+mem.Addr(blk*c.blockSize)) }
			}
			rt.AbortAt(1+rng.Intn(m.events+2), nil, fn)
			rt.Crash(pmem.Adversarial, rng.Int63())
			m.recover(th)
			words := bitmapWords(th, c)
			ref.recover(words)
			clear(live)
			order = order[:0]
			for blk := 0; blk < c.perSlab; blk++ {
				if words[blk/64]&(1<<uint(blk%64)) != 0 {
					live[blk] = true
					order = append(order, blk)
				}
			}
		}
	}
}

// --- Logged --------------------------------------------------------------

func TestLoggedAllocFree(t *testing.T) {
	rt, th := newRT()
	g := NewLogged(rt, 128)
	a := g.Alloc(th, 40)
	if a == 0 {
		t.Fatal("alloc failed")
	}
	th.Store(a, []byte("hello"))
	if allocated(th, g.inner) != 1 {
		t.Fatalf("Allocated = %d", allocated(th, g.inner))
	}
	g.Free(th, a)
	if allocated(th, g.inner) != 0 {
		t.Fatalf("Allocated = %d after free", allocated(th, g.inner))
	}
}

func TestLoggedAllocEpochCount(t *testing.T) {
	// NVML-style allocation costs several epochs (log write, commit,
	// apply, clear, header init) — the write-amplification story of §5.2.
	rt, th := newRT()
	g := NewLogged(rt, 128)
	n := rt.Trace.CountKind(trace.KFence)
	g.Alloc(th, 40)
	if got := rt.Trace.CountKind(trace.KFence) - n; got != 5 {
		t.Errorf("logged alloc used %d epochs, want 5", got)
	}
}

// TestLoggedCrashAtomicity stops a second allocation at each of its 18 PM
// events, crashes the device and recovers. The first block must stay live
// and never be handed out again; the second is live or free, and live
// whenever the crashed image held a committed redo record, which Recover
// must apply.
func TestLoggedCrashAtomicity(t *testing.T) {
	const events = 18 // Alloc: bitmap load, four logged epochs' 13, the header's 4
	for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
		for seed := int64(1); seed <= 8; seed++ {
			for stop := 1; stop <= events; stop++ {
				rt, th := newRT()
				g := NewLogged(rt, 128)
				pre := g.Alloc(th, 40)
				if !rt.AbortAt(stop, nil, func() { g.Alloc(th, 40) }) {
					t.Fatalf("Alloc ended before its event %d", stop)
				}
				rt.Crash(mode, seed)
				committed := th.LoadU64(g.logs[0]+16) == logCommitted
				g.Recover(th)
				n := allocated(th, g.inner)
				if n != 1 && n != 2 || committed && n != 2 {
					t.Fatalf("mode %d seed %d stop %d: Allocated = %d with committed record %v", mode, seed, stop, n, committed)
				}
				for a := g.Alloc(th, 40); a != 0; a = g.Alloc(th, 40) {
					if a == pre {
						t.Fatalf("mode %d seed %d stop %d: Alloc after Recover returned the live block %v", mode, seed, stop, pre)
					}
				}
			}
		}
	}
}

func TestLoggedRecoverReplaysCommittedRecord(t *testing.T) {
	rt, th := newRT()
	g := NewLogged(rt, 128)
	// Hand-craft the dangerous window: record committed, mutation not yet
	// durable. Write a committed record pointing at a bitmap word.
	c := g.inner.classes[0]
	word := c.bitmaps
	th.StoreU64(g.logs[0], uint64(word))
	th.StoreU64(g.logs[0]+8, 0b1)
	th.Flush(g.logs[0], 16)
	th.Fence()
	th.StoreU64(g.logs[0]+16, logCommitted)
	th.Flush(g.logs[0]+16, 8)
	th.Fence()

	rt.Crash(pmem.Strict, 9)
	g.Recover(th)
	if got := th.LoadU64(word); got != 1 {
		t.Fatalf("redo record not replayed: word = %#x", got)
	}
	if allocated(th, g.inner) != 1 {
		t.Fatalf("Allocated = %d, want 1 (replayed allocation)", allocated(th, g.inner))
	}
}

// BenchmarkMultiSlabRecover rebuilds the free indexes of an empty
// allocator at the crash checker's pool size, 13 classes of 1<<15 blocks:
// the cost every recovery of an NVML or Mnemosyne pool pays however
// little the app allocated.
func BenchmarkMultiSlabRecover(b *testing.B) {
	rt := persist.NewRuntime("alloc-bench", "native", 1, persist.Config{NoTrace: true})
	th := rt.Thread(0)
	m := NewMultiSlab(rt, 1<<15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Recover(th)
	}
}
