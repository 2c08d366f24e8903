package mnemosyne

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newHeap(opts Options) (*persist.Runtime, *persist.Thread, *Heap) {
	rt := persist.NewRuntime("mnemosyne-test", "mnemosyne", 2, persist.Config{})
	return rt, rt.Thread(0), New(rt, 256, opts)
}

func TestCommitMakesWritesDurable(t *testing.T) {
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	err := h.Run(th, func(tx *Tx) error {
		tx.Write(a, []byte("durable!"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Dev.Durable(a, 8); !bytes.Equal(got, []byte("durable!")) {
		t.Fatalf("durable image = %q", got)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	h.Run(th, func(tx *Tx) error {
		tx.Write(a, []byte("first"))
		return nil
	})
	err := h.Run(th, func(tx *Tx) error {
		tx.Write(a, []byte("oops!"))
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected error from aborting body")
	}
	// Redo logging never touched the data in place, so both live and
	// durable images must still hold the committed value.
	if got := rt.Dev.Load(0, a, 5); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("live image = %q after abort", got)
	}
	if got := rt.Dev.Durable(a, 5); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("durable image = %q after abort", got)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	_, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	h.Run(th, func(tx *Tx) error {
		tx.WriteU64(a, 42)
		if got := tx.ReadU64(a); got != 42 {
			t.Errorf("tx read = %d, want 42 (own write invisible)", got)
		}
		tx.WriteU64(a, 43)
		if got := tx.ReadU64(a); got != 43 {
			t.Errorf("tx read = %d, want 43 (overwrite invisible)", got)
		}
		return nil
	})
	if got := th.LoadU64(a); got != 43 {
		t.Fatalf("post-commit read = %d", got)
	}
}

func TestReadOverlayPartial(t *testing.T) {
	_, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	persistStore(th, a, []byte("AAAAAAAA"))
	h.Run(th, func(tx *Tx) error {
		tx.Write(a+2, []byte("BB"))
		if got := tx.Read(a, 8); !bytes.Equal(got, []byte("AABBAAAA")) {
			t.Errorf("overlay read = %q", got)
		}
		return nil
	})
}

func TestLogWritesUseNTI(t *testing.T) {
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	before := rt.Trace.Len()
	h.Run(th, func(tx *Tx) error {
		tx.Write(a, []byte("12345678"))
		return nil
	})
	got := 0
	for _, e := range rt.Trace.Events()[before:] {
		if e.Kind == trace.KStoreNT {
			got++
		}
	}
	if got < 2 {
		// at least: one log record + commit record (+ clears)
		t.Errorf("NT stores in tx = %d, want >= 2 (redo log uses NTI)", got)
	}
}

func TestEpochsPerSmallTx(t *testing.T) {
	// One 8-byte write: log append (1) + commit record (1) + data apply
	// (1) + state reset (1) + per-entry clear (1) = 5 epochs. The paper's
	// Mnemosyne transactions land in this small-single-digit range.
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	f0 := int(rt.Dev.Stats().Fences)
	h.Run(th, func(tx *Tx) error {
		tx.WriteU64(a, 7)
		return nil
	})
	got := int(rt.Dev.Stats().Fences) - f0
	if got < 4 || got > 6 {
		t.Errorf("epochs per 1-write tx = %d, want 4..6", got)
	}
}

func TestBatchClearUsesFewerEpochs(t *testing.T) {
	count := func(opts Options) int {
		rt, th, h := newHeap(opts)
		a := h.PMalloc(th, 256)
		f0 := int(rt.Dev.Stats().Fences)
		h.Run(th, func(tx *Tx) error {
			for i := 0; i < 8; i++ {
				tx.WriteU64(a+mem.Addr(i*8), uint64(i))
			}
			return nil
		})
		return int(rt.Dev.Stats().Fences) - f0
	}
	per := count(Options{})
	batch := count(Options{BatchClear: true})
	if batch >= per {
		t.Errorf("batch clear epochs (%d) not fewer than per-entry (%d)", batch, per)
	}
}

func TestCrashBeforeCommitRollsForwardNothing(t *testing.T) {
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	persistStore(th, a, []byte("original"))

	// Simulate a crash mid-transaction: write a log record but never
	// commit. Run the body far enough by panicking inside.
	func() {
		defer func() { recover() }()
		h.Run(th, func(tx *Tx) error {
			tx.Write(a, []byte("uncommit"))
			panic("power failure")
		})
	}()
	rt.Crash(pmem.Strict, 1)
	h.Recover(th)
	if got := th.Load(a, 8); !bytes.Equal(got, []byte("original")) {
		t.Fatalf("after crash+recover = %q, want original", got)
	}
}

func TestCrashAfterCommitRecordReplays(t *testing.T) {
	// The dangerous window for redo logging: commit record durable, data
	// application lost. Recovery must replay the log.
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	persistStore(th, a, []byte("original"))

	// Build the window by hand: durable log record + durable commit
	// record, then crash before any in-place apply.
	logBase := h.logs[th.ID()]
	var rec [32]byte
	putU64(rec[0:], uint64(a))
	putU64(rec[8:], 8)
	copy(rec[16:], "replayed")
	th.StoreNT(logBase+entryOffset, rec[:])
	th.Fence()
	th.StoreU64NT(logBase+stateOffset, logCommitted)
	th.Fence()

	rt.Crash(pmem.Strict, 2)
	h.Recover(th)
	if got := th.Load(a, 8); !bytes.Equal(got, []byte("replayed")) {
		t.Fatalf("after crash+recover = %q, want replayed", got)
	}
	// Log must be clean for reuse.
	if th.LoadU64(logBase+stateOffset) != logIdle {
		t.Error("log state not reset")
	}
	if th.LoadU64(logBase+entryOffset) != 0 {
		t.Error("log entries not cleared")
	}
}

// TestCrashAtEveryEpochBoundary stops a transaction at each of its PM
// events, every fence that ends one of its epochs included, crashes a clone
// of the device taken at that instant in both crash modes, reboots on it
// and recovers: the value is all old or all new. A stop before the commit
// record is durable must recover the old value and one after it the new,
// so some stop recovers each. The value spans three lines, which a crash
// keeps or loses one by one, so a half-applied update shows as torn.
func TestCrashAtEveryEpochBoundary(t *testing.T) {
	oldVal := bytes.Repeat([]byte("OLDOLDOL"), 16)
	newVal := bytes.Repeat([]byte("NEWNEWNE"), 16)
	setup := func() (*persist.Runtime, *persist.Thread, *Heap, mem.Addr) {
		rt, th, h := newHeap(Options{})
		a := h.PMalloc(th, len(oldVal))
		persistStore(th, a, oldVal)
		return rt, th, h, a
	}
	update := func(th *persist.Thread, h *Heap, a mem.Addr) func() {
		return func() {
			h.Run(th, func(tx *Tx) error { tx.Write(a, newVal); return nil })
		}
	}
	rt, th, h, a := setup()
	events := 0
	rt.SetEventHook(func(trace.Event) { events++ })
	update(th, h, a)()
	rt.SetEventHook(nil)

	recovered := map[string]int{}
	for k := 1; k <= events; k++ {
		for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
			rt, th, h, a := setup()
			var clone *pmem.Device
			if !rt.AbortAt(k, func() { clone = rt.Dev.Clone() }, update(th, h, a)) {
				t.Fatalf("the update ran to its end before its event %d of %d", k, events)
			}
			clone.Crash(mode, int64(k))
			rt.Reboot(clone)
			h.Recover(th)
			got := th.Load(a, len(oldVal))
			if !bytes.Equal(got, oldVal) && !bytes.Equal(got, newVal) {
				t.Fatalf("crash at event %d of %d, mode %v: torn value %q after recovery", k, events, mode, got)
			}
			recovered[string(got[:3])]++
		}
	}
	if recovered["OLD"] == 0 || recovered["NEW"] == 0 {
		t.Fatalf("over %d stops in two modes, recovery gave %v: want both the old and the new value", events, recovered)
	}
}

func TestRootSlots(t *testing.T) {
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	h.SetRoot(th, 3, a)
	if got := h.Root(th, 3); got != a {
		t.Fatalf("Root = %v, want %v", got, a)
	}
	rt.Crash(pmem.Strict, 1)
	if got := h.Root(th, 3); got != a {
		t.Fatalf("Root lost on crash: %v", got)
	}
}

func TestAllocFreeInsideTx(t *testing.T) {
	_, th, h := newHeap(Options{})
	var a mem.Addr
	h.Run(th, func(tx *Tx) error {
		a = tx.Alloc(32)
		tx.Write(a, []byte("obj"))
		return nil
	})
	if a == 0 {
		t.Fatal("alloc failed")
	}
	h.Run(th, func(tx *Tx) error {
		tx.Free(a)
		return nil
	})
	// The block is free again: freeing it once more is a double free.
	defer func() {
		if recover() == nil {
			t.Fatal("block still allocated after tx.Free")
		}
	}()
	h.alloc.Free(th, a)
}

func TestConcurrentThreadsIndependentLogs(t *testing.T) {
	rt := persist.NewRuntime("mnemosyne-test", "mnemosyne", 2, persist.Config{})
	h := New(rt, 256, Options{})
	t0, t1 := rt.Thread(0), rt.Thread(1)
	a := h.PMalloc(t0, 64)
	b := h.PMalloc(t1, 64)
	h.Run(t0, func(tx *Tx) error {
		tx.WriteU64(a, 1)
		// Interleave: thread 1 commits a whole tx in the middle.
		h.Run(t1, func(tx2 *Tx) error { tx2.WriteU64(b, 2); return nil })
		return nil
	})
	if t0.LoadU64(a) != 1 || t0.LoadU64(b) != 2 {
		t.Fatal("interleaved transactions corrupted each other")
	}
}

func TestTransactionAtomicityQuick(t *testing.T) {
	// Multi-word transaction + strict crash at commit-published boundary:
	// recovery yields all-or-nothing.
	f := func(vals [4]uint64, commitFirst bool) bool {
		rt, th, h := newHeap(Options{})
		a := h.PMalloc(th, 64)
		if commitFirst {
			h.Run(th, func(tx *Tx) error {
				for i, v := range vals {
					tx.WriteU64(a+mem.Addr(i*8), v)
				}
				return nil
			})
			rt.Crash(pmem.Strict, 3)
			h.Recover(th)
			for i, v := range vals {
				if th.LoadU64(a+mem.Addr(i*8)) != v {
					return false
				}
			}
			return true
		}
		// No commit: all zero after crash.
		func() {
			defer func() { recover() }()
			h.Run(th, func(tx *Tx) error {
				for i, v := range vals {
					tx.WriteU64(a+mem.Addr(i*8), v)
				}
				panic("crash")
			})
		}()
		rt.Crash(pmem.Strict, 4)
		h.Recover(th)
		for i := range vals {
			if th.LoadU64(a+mem.Addr(i*8)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLogOverflowPanics(t *testing.T) {
	_, th, h := newHeap(Options{})
	a := h.PMalloc(th, 4096)
	defer func() {
		if recover() == nil {
			t.Error("log overflow did not panic")
		}
	}()
	h.Run(th, func(tx *Tx) error {
		for i := 0; ; i++ {
			tx.Write(a+mem.Addr((i%4096/8)*8), []byte("xxxxxxxx"))
		}
	})
}

func TestReadOnlyAbortIssuesNoFence(t *testing.T) {
	// An aborted transaction that never appended a log record has no NT
	// stores in flight; its abort path must not fence (pmsan's
	// fence-without-work diagnostic). An aborted tx *with* log records
	// still drains them.
	rt, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	h.Run(th, func(tx *Tx) error {
		tx.Read(a, 8) // read-only
		return errors.New("abort")
	})
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("ordering errors:\n%s", rep)
	}
	if n := rep.Sites(pmsan.FenceNoWork); n != 0 {
		t.Fatalf("read-only abort fenced nothing useful: %d sites\n%s", n, rep)
	}

	// A writing abort must still fence its buffered log records.
	fences := int(rt.Dev.Stats().Fences)
	h.Run(th, func(tx *Tx) error {
		tx.Write(a, []byte{7}) // appends an undo record (NT stores)
		return errors.New("abort")
	})
	if int(rt.Dev.Stats().Fences) == fences {
		t.Fatal("writing abort issued no fence for its log records")
	}
}

// TestReadU64DoesNotAllocate pins the transactional word read (every
// field() of Vacation's red-black trees) at zero allocations, with an empty
// write set and with one it has to overlay, and holds it to Read's value.
// (The recorder's chunk growth is a handful of allocations over a thousand
// calls, below AllocsPerRun's whole-number average.)
func TestReadU64DoesNotAllocate(t *testing.T) {
	_, th, h := newHeap(Options{})
	a := h.PMalloc(th, 64)
	th.StoreU64(a, 0x1111111111111111)
	th.StoreU64(a+8, 0x2222222222222222)
	err := h.Run(th, func(tx *Tx) error {
		var v uint64
		read := func() { v = tx.ReadU64(a + 4) } // straddles both words
		if n := testing.AllocsPerRun(1000, read); n != 0 {
			t.Errorf("ReadU64 with an empty write set allocates %v times per call, want 0", n)
		}
		if v != 0x2222222211111111 {
			t.Errorf("ReadU64 with an empty write set = %#x", v)
		}
		tx.WriteU64(a, 0x3333333333333333)
		tx.Write(a+8, []byte{0x44, 0x44}) // a later, smaller write wins its bytes
		if n := testing.AllocsPerRun(1000, read); n != 0 {
			t.Errorf("ReadU64 over a write set allocates %v times per call, want 0", n)
		}
		if want := getU64(tx.Read(a+4, 8)); v != want || v != 0x2222444433333333 {
			t.Errorf("ReadU64 over a write set = %#x, Read says %#x", v, want)
		}
		// Past indexAfter writes the read goes through the line index: built
		// by the first read (AllocsPerRun's warm-up call), free after it.
		for i := 0; i < indexAfter; i++ {
			tx.WriteU64(a+16+mem.Addr(i%4)*8, uint64(i))
		}
		if n := testing.AllocsPerRun(1000, read); n != 0 {
			t.Errorf("ReadU64 over an indexed write set allocates %v times per call, want 0", n)
		}
		if v != 0x2222444433333333 || tx.indexed != len(tx.writes) {
			t.Errorf("ReadU64 over an indexed write set = %#x with %d of %d writes indexed", v, tx.indexed, len(tx.writes))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// referenceOverlay is the overlay readInto did before the write set was
// indexed by line: every write of the transaction, in program order, laid
// over out wherever it intersects [a, a+len(out)).
func referenceOverlay(writes []shadowWrite, a mem.Addr, out []byte) {
	for _, w := range writes {
		sa, data := w.addr, w.data
		lo, hi := sa, sa+mem.Addr(len(data))
		if hi <= a || lo >= a+mem.Addr(len(out)) {
			continue
		}
		start := int64(lo) - int64(a)
		from := 0
		if start < 0 {
			from = int(-start)
			start = 0
		}
		copy(out[start:], data[from:])
	}
}

// TestReadYourWritesMatchesLinearOverlay: random writes — words, runs that
// cross a line, runs long enough to be chunked into several records, all
// landing on each other — and random reads of every alignment and of many
// lines at once; each read must return the device's bytes under the linear
// overlay of the whole write set, the loop the line index replaced.
func TestReadYourWritesMatchesLinearOverlay(t *testing.T) {
	const region = 8 * mem.LineSize
	for seed := int64(1); seed <= 20; seed++ {
		rt, th, h := newHeap(Options{})
		rng := rand.New(rand.NewSource(seed))
		base := h.PMalloc(th, region)
		init := make([]byte, region)
		rng.Read(init)
		th.Store(base, init)
		final := init
		err := h.Run(th, func(tx *Tx) error {
			for step := 0; step < 300; step++ {
				if rng.Intn(3) > 0 {
					n := []int{1, 2, 8, 8, 8, 24, 70, 130}[rng.Intn(8)]
					data := make([]byte, n)
					rng.Read(data)
					tx.Write(base+mem.Addr(rng.Intn(region-n+1)), data)
				}
				n := []int{0, 1, 8, 8, 8, 40, 64, 200, region}[rng.Intn(9)]
				a := base + mem.Addr(rng.Intn(region-n+1))
				want := rt.Dev.Load(0, a, n)
				referenceOverlay(tx.writes, a, want)
				if got := tx.Read(a, n); !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: Read(%v, %d) over %d writes\n got %x\nwant %x", seed, step, a, n, len(tx.writes), got, want)
				}
			}
			referenceOverlay(tx.writes, base, final)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// What the reads promised is what commit leaves in memory.
		if got := th.Load(base, region); !bytes.Equal(got, final) {
			t.Fatalf("seed %d: memory after commit differs from the overlaid write set", seed)
		}
	}
}

// persistStore is the complete native-persistence store: cacheable store,
// CLWB, SFENCE.
func persistStore(th *persist.Thread, a mem.Addr, data []byte) {
	th.Store(a, data)
	th.FlushFence(a, len(data))
}
