package nvml

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newPool(opts Options) (*persist.Runtime, *persist.Thread, *Pool) {
	rt := persist.NewRuntime("nvml-test", "nvml", 2, persist.Config{})
	return rt, rt.Thread(0), Open(rt, 256, opts)
}

func TestCommitDurable(t *testing.T) {
	rt, th, p := newPool(Options{})
	var a mem.Addr
	err := p.Run(th, func(tx *Tx) error {
		a = tx.Alloc(32)
		tx.Write(a, []byte("persist!"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Dev.Durable(a, 8); !bytes.Equal(got, []byte("persist!")) {
		t.Fatalf("durable = %q", got)
	}
}

func TestAbortRollsBackInPlaceWrites(t *testing.T) {
	_, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error {
		a = tx.Alloc(32)
		tx.Write(a, []byte("original"))
		return nil
	})
	err := p.Run(th, func(tx *Tx) error {
		tx.Set(a, []byte("mutated!"))
		// Undo logging writes in place immediately...
		if got := tx.Read(a, 8); !bytes.Equal(got, []byte("mutated!")) {
			t.Errorf("in-tx read = %q", got)
		}
		return errors.New("abort")
	})
	if err == nil {
		t.Fatal("expected abort error")
	}
	// ...so abort must restore the old image.
	if got := th.Load(a, 8); !bytes.Equal(got, []byte("original")) {
		t.Fatalf("after abort = %q, want original", got)
	}
}

func TestStrayWritePanics(t *testing.T) {
	_, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error {
		a = tx.Alloc(32)
		return nil
	})
	defer func() {
		if recover() == nil {
			t.Error("write without AddRange did not panic")
		}
	}()
	p.Run(th, func(tx *Tx) error {
		tx.Write(a, []byte{1}) // no AddRange, not fresh in THIS tx
		return nil
	})
}

func TestFreshObjectNeedsNoAddRange(t *testing.T) {
	_, th, p := newPool(Options{})
	err := p.Run(th, func(tx *Tx) error {
		a := tx.Alloc(32)
		tx.Write(a, []byte("fresh")) // must not panic
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubLineAddRangeThenWrite(t *testing.T) {
	// Regression: AddRange of 8 bytes inside a line must license a write
	// of those 8 bytes.
	_, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error {
		a = tx.Alloc(64)
		return nil
	})
	err := p.Run(th, func(tx *Tx) error {
		tx.AddRange(a+8, 8)
		tx.Write(a+8, []byte("12345678"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := th.Load(a+8, 8); !bytes.Equal(got, []byte("12345678")) {
		t.Fatalf("value = %q", got)
	}
}

func TestCoveredUnion(t *testing.T) {
	ranges := []dirtyRange{{100, 10}, {110, 5}, {120, 10}}
	cases := []struct {
		a    mem.Addr
		size int
		want bool
	}{
		{100, 10, true},
		{100, 15, true},  // spans two adjacent ranges
		{105, 10, true},  // crosses boundary
		{100, 21, false}, // hole at 115..119
		{120, 10, true},
		{119, 2, false},
		{99, 1, false},
		{100, 0, true}, // empty range trivially covered
	}
	for _, c := range cases {
		if got := covered(ranges, c.a, c.size); got != c.want {
			t.Errorf("covered(%d,%d) = %v, want %v", c.a, c.size, got, c.want)
		}
	}
}

func TestUndoEpochFragmentation(t *testing.T) {
	// Undo logging fragments a transaction: each AddRange is an epoch
	// ordered before the data writes (§5.1). Two updated fields => at
	// least two log epochs before the commit flush epoch.
	rt, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error { a = tx.Alloc(64); return nil })

	f0 := int(rt.Dev.Stats().Fences)
	p.Run(th, func(tx *Tx) error {
		tx.SetU64(a, 1)
		tx.SetU64(a+32, 2)
		return nil
	})
	epochs := int(rt.Dev.Stats().Fences) - f0
	if epochs < 5 {
		t.Errorf("undo tx epochs = %d, want >= 5 (2 log + flush + commit + clears)", epochs)
	}
}

func TestUndoVsRedoFragmentation(t *testing.T) {
	// Ablation invariant from §5.1: undo logging produces more, smaller
	// epochs than redo logging for the same update pattern. Here: NVML
	// per-entry clears on, same as Mnemosyne default.
	rt, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error { a = tx.Alloc(128); return nil })
	f0 := int(rt.Dev.Stats().Fences)
	p.Run(th, func(tx *Tx) error {
		for i := 0; i < 8; i++ {
			tx.SetU64(a+mem.Addr(i*16), uint64(i))
		}
		return nil
	})
	undoEpochs := int(rt.Dev.Stats().Fences) - f0
	if undoEpochs < 10 {
		t.Errorf("8-field undo tx = %d epochs; expected heavy fragmentation (>=10)", undoEpochs)
	}
}

func TestCrashMidTxRollsBack(t *testing.T) {
	rt, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error {
		a = tx.Alloc(32)
		tx.Write(a, []byte("original"))
		return nil
	})
	func() {
		defer func() { recover() }()
		p.Run(th, func(tx *Tx) error {
			tx.Set(a, []byte("mutated!"))
			// Force the in-place write to be durable — the worst case for
			// undo logging (data persisted, commit record absent).
			tx.th.Flush(a, 8)
			tx.th.Fence()
			panic("power failure")
		})
	}()
	rt.Crash(pmem.Strict, 1)
	p.Recover(th)
	if got := th.Load(a, 8); !bytes.Equal(got, []byte("original")) {
		t.Fatalf("after crash+recover = %q, want original", got)
	}
}

func TestCrashMidTxFreesFreshAllocation(t *testing.T) {
	rt, th, p := newPool(Options{})
	var a mem.Addr
	func() {
		defer func() { recover() }()
		p.Run(th, func(tx *Tx) error {
			a = tx.Alloc(32)
			panic("power failure")
		})
	}()
	rt.Crash(pmem.Strict, 1)
	p.Recover(th)
	if p.alloc.FreeIfAllocated(th, a) {
		t.Fatal("recovery left the aborted allocation allocated")
	}
}

func TestCrashAfterCommitFinishesDeferredFree(t *testing.T) {
	rt, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error { a = tx.Alloc(32); return nil })

	// Commit a tx that frees a, but crash before/while the deferred free
	// and log clear run. Emulate: write the free record and commit state
	// by hand, then crash.
	logBase := p.logs[th.ID()]
	th.StoreU64(logBase+entryOffset, uint64(a))
	th.StoreU64(logBase+entryOffset+8, freeMarker)
	th.Flush(logBase+entryOffset, 16)
	th.Fence()
	th.StoreU64(logBase+stateOffset, logCommitted)
	th.FlushFence(logBase+stateOffset, 8)

	rt.Crash(pmem.Strict, 1)
	p.Recover(th)
	if p.alloc.FreeIfAllocated(th, a) {
		t.Fatal("deferred free did not complete")
	}
	// Recovery must be idempotent: a second pass changes nothing.
	p.Recover(th)
	if p.alloc.FreeIfAllocated(th, a) {
		t.Fatal("second Recover re-allocated the freed block")
	}
}

func TestAbortKeepsDeferredFrees(t *testing.T) {
	_, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error { a = tx.Alloc(32); return nil })
	p.Run(th, func(tx *Tx) error {
		tx.Free(a)
		return errors.New("abort")
	})
	if !p.alloc.FreeIfAllocated(th, a) {
		t.Fatal("aborted free released the block")
	}
}

func TestRootSlots(t *testing.T) {
	rt, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error { a = tx.Alloc(16); return nil })
	p.SetRoot(th, 0, a)
	rt.Crash(pmem.Strict, 1)
	p.Recover(th)
	if got := p.Root(th, 0); got != a {
		t.Fatalf("Root = %v, want %v", got, a)
	}
}

func TestAtomicityQuick(t *testing.T) {
	// Multi-field update + adversarial crash mid-transaction: after
	// recovery every field holds its old value (rollback) — never a mix
	// with new values.
	f := func(seed int64, vals [4]uint64) bool {
		rt, th, p := newPool(Options{})
		var a mem.Addr
		p.Run(th, func(tx *Tx) error {
			a = tx.Alloc(64)
			for i := range vals {
				tx.Write(a+mem.Addr(i*8), []byte{9, 9, 9, 9, 9, 9, 9, 9})
			}
			return nil
		})
		func() {
			defer func() { recover() }()
			p.Run(th, func(tx *Tx) error {
				for i, v := range vals {
					tx.SetU64(a+mem.Addr(i*8), v)
				}
				panic("crash")
			})
		}()
		rt.Crash(pmem.Adversarial, seed)
		p.Recover(th)
		old := uint64(0x0909090909090909)
		for i := range vals {
			if th.LoadU64(a+mem.Addr(i*8)) != old {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchClearFewerEpochs(t *testing.T) {
	count := func(opts Options) int {
		rt, th, p := newPool(opts)
		var a mem.Addr
		p.Run(th, func(tx *Tx) error { a = tx.Alloc(128); return nil })
		f0 := int(rt.Dev.Stats().Fences)
		p.Run(th, func(tx *Tx) error {
			for i := 0; i < 8; i++ {
				tx.SetU64(a+mem.Addr(i*16), uint64(i))
			}
			return nil
		})
		return int(rt.Dev.Stats().Fences) - f0
	}
	if b, per := count(Options{BatchClear: true}), count(Options{}); b >= per {
		t.Errorf("batch clear (%d epochs) not fewer than per-entry (%d)", b, per)
	}
}

func TestDoubleAddRangeSingleRecord(t *testing.T) {
	rt, th, p := newPool(Options{})
	var a mem.Addr
	p.Run(th, func(tx *Tx) error { a = tx.Alloc(32); return nil })
	run := func(dup bool) int {
		f0 := int(rt.Dev.Stats().Fences)
		p.Run(th, func(tx *Tx) error {
			tx.AddRange(a, 8)
			if dup {
				tx.AddRange(a, 8) // duplicate must be deduplicated
			}
			tx.Write(a, []byte("x"))
			return nil
		})
		return int(rt.Dev.Stats().Fences) - f0
	}
	if with, without := run(true), run(false); with != without {
		t.Errorf("duplicate AddRange changed epoch count: %d vs %d", with, without)
	}
}

// sanReplay runs the pmsan durability-ordering sanitizer over the
// runtime's trace.
func sanReplay(t *testing.T, rt *persist.Runtime) *pmsan.Report {
	t.Helper()
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCommitFlushesCoalesced(t *testing.T) {
	// Several Writes into the same cache line must produce one commit
	// flush of that line, not one flush per Write — the redundant-flush
	// smell pmsan reports. The dedupe must not weaken durability.
	rt, th, p := newPool(Options{})
	var a mem.Addr
	err := p.Run(th, func(tx *Tx) error {
		a = tx.Alloc(64)
		tx.Write(a, []byte("field-a!"))
		tx.Write(a+8, []byte("field-b!"))
		tx.Write(a+16, []byte("field-c!"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"field-a!", "field-b!", "field-c!"} {
		if got := rt.Dev.Durable(a, 24); !bytes.Contains(got, []byte(want)) {
			t.Fatalf("durable image %q missing %q", got, want)
		}
	}
	rep := sanReplay(t, rt)
	if rep.Errors() != 0 {
		t.Fatalf("ordering errors in nvml trace:\n%s", rep)
	}
	if n := rep.Sites(pmsan.RedundantFlush); n != 0 {
		t.Fatalf("redundant flushes after coalescing: %d sites\n%s", n, rep)
	}
}

// TestReadU64DoesNotAllocate pins the transactional word read (every field
// a tree or hash walk visits) at zero allocations, and holds it to Read: the
// same value, and the same one KLoad event. (The recorder's chunk growth is
// a handful of allocations over a thousand calls, below AllocsPerRun's
// whole-number average.)
func TestReadU64DoesNotAllocate(t *testing.T) {
	rt, th, p := newPool(Options{})
	err := p.Run(th, func(tx *Tx) error {
		a := tx.Alloc(16)
		tx.Write(a, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		var v uint64
		if n := testing.AllocsPerRun(1000, func() { v = tx.ReadU64(a) }); n != 0 {
			t.Errorf("ReadU64 allocates %v times per call, want 0", n)
		}
		if v != 0x0807060504030201 {
			t.Errorf("ReadU64 = %#x", v)
		}
		before := rt.Trace.Len()
		tx.ReadU64(a)
		tx.Read(a, 8)
		if ev := rt.Trace.Events()[before:]; len(ev) != 2 ||
			ev[0].Kind != trace.KLoad || ev[0].Addr != ev[1].Addr || ev[0].Size != ev[1].Size || ev[0].Kind != ev[1].Kind {
			t.Errorf("ReadU64 and Read(a, 8) emitted %v", ev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
