package vacation

import (
	"math/rand"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newMgr(threads int) (*persist.Runtime, *mnemosyne.Heap, *Manager) {
	rt := persist.NewRuntime("vacation", "mnemosyne", threads, persist.Config{})
	heap := mnemosyne.New(rt, 16384, mnemosyne.Options{})
	return rt, heap, NewManager(rt, heap)
}

func TestRBTreeInsertLookup(t *testing.T) {
	rt := persist.NewRuntime("rb", "mnemosyne", 1, persist.Config{})
	heap := mnemosyne.New(rt, 8192, mnemosyne.Options{})
	th := rt.Thread(0)
	var tree *RBTree
	heap.Run(th, func(tx *mnemosyne.Tx) error {
		tree = NewRBTree(heap, tx)
		return nil
	})
	rng := rand.New(rand.NewSource(2))
	keys := rng.Perm(200)
	heap.Run(th, func(tx *mnemosyne.Tx) error {
		for _, k := range keys {
			tree.Insert(tx, uint64(k), uint64(k*10))
		}
		return nil
	})
	heap.Run(th, func(tx *mnemosyne.Tx) error {
		for _, k := range keys {
			v, ok := tree.Lookup(tx, uint64(k))
			if !ok || v != uint64(k*10) {
				t.Fatalf("Lookup(%d) = %v,%v", k, v, ok)
			}
		}
		if _, ok := tree.Lookup(tx, 9999); ok {
			t.Fatal("phantom key")
		}
		if !tree.CheckInvariants(tx) {
			t.Fatal("red-black invariants violated")
		}
		// In-order walk must be sorted and complete.
		n := 0
		tree.Walk(tx, func(k, v uint64) { n++ })
		if n != 200 {
			t.Fatalf("walk visited %d keys", n)
		}
		return nil
	})
}

func TestRBTreeSequentialInsertBalances(t *testing.T) {
	// Sequential keys are the worst case for an unbalanced BST; the RB
	// invariant check proves rotations happened.
	rt := persist.NewRuntime("rb", "mnemosyne", 1, persist.Config{})
	heap := mnemosyne.New(rt, 8192, mnemosyne.Options{})
	th := rt.Thread(0)
	heap.Run(th, func(tx *mnemosyne.Tx) error {
		tree := NewRBTree(heap, tx)
		for k := uint64(0); k < 128; k++ {
			tree.Insert(tx, k, k)
		}
		if !tree.CheckInvariants(tx) {
			t.Fatal("red-black invariants violated on sequential insert")
		}
		return nil
	})
}

func TestReserveDecrementsInventory(t *testing.T) {
	_, _, m := newMgr(1)
	before, _ := m.FreeSlots(0, TableCar, 3)
	ok, err := m.Reserve(0, 42, TableCar, 3)
	if err != nil || !ok {
		t.Fatalf("Reserve = %v,%v", ok, err)
	}
	after, _ := m.FreeSlots(0, TableCar, 3)
	if after != before-1 {
		t.Fatalf("free slots %d -> %d", before, after)
	}
	if m.Reservations(0, 42) != 1 {
		t.Fatalf("reservations = %d", m.Reservations(0, 42))
	}
}

func TestReserveSoldOut(t *testing.T) {
	_, _, m := newMgr(1)
	for i := 0; i < Capacity; i++ {
		if ok, _ := m.Reserve(0, uint64(i), TableRoom, 1); !ok {
			t.Fatalf("reservation %d failed early", i)
		}
	}
	if ok, _ := m.Reserve(0, 99, TableRoom, 1); ok {
		t.Fatal("overbooked")
	}
}

func TestCancelRestoresInventory(t *testing.T) {
	_, _, m := newMgr(1)
	m.Reserve(0, 7, TableFlight, 2)
	before, _ := m.FreeSlots(0, TableFlight, 2)
	ok, err := m.Cancel(0, 7, TableFlight)
	if err != nil || !ok {
		t.Fatalf("Cancel = %v,%v", ok, err)
	}
	after, _ := m.FreeSlots(0, TableFlight, 2)
	if after != before+1 {
		t.Fatalf("free slots %d -> %d", before, after)
	}
	if m.Reservations(0, 7) != 0 {
		t.Fatal("reservation list not emptied")
	}
	if ok, _ := m.Cancel(0, 7, TableFlight); ok {
		t.Fatal("cancelled a non-existent reservation")
	}
}

func TestCountersTrackInventory(t *testing.T) {
	_, _, m := newMgr(1)
	c0 := m.Counter(0, TableCar)
	m.Reserve(0, 1, TableCar, 0)
	if got := m.Counter(0, TableCar); got != c0-1 {
		t.Fatalf("counter %d -> %d", c0, got)
	}
	m.AddInventory(0, TableCar, 0, 5)
	if got := m.Counter(0, TableCar); got != c0+4 {
		t.Fatalf("counter after inventory add = %d, want %d", got, c0+4)
	}
}

func TestCrashRecoverConsistent(t *testing.T) {
	rt, heap, m := newMgr(1)
	m.Reserve(0, 5, TableCar, 2)
	m.Reserve(0, 5, TableRoom, 3)
	rt.Crash(pmem.Strict, 10)
	heap.Recover(rt.Thread(0))
	if m.Reservations(0, 5) != 2 {
		t.Fatalf("reservations after crash = %d", m.Reservations(0, 5))
	}
	if !m.CheckTrees(0) {
		t.Fatal("trees inconsistent after recovery")
	}
}

func TestCrashMidTxNoPartialBooking(t *testing.T) {
	// Crash inside a reservation: after recovery the booking is invisible
	// (inventory, list and counter all unchanged — redo logging).
	rt, heap, m := newMgr(1)
	before, _ := m.FreeSlots(0, TableCar, 1)
	c0 := m.Counter(0, TableCar)
	func() {
		defer func() { recover() }()
		heap.Run(rt.Thread(0), func(tx *mnemosyne.Tx) error {
			rec, _ := m.tables[TableCar].Lookup(tx, 1)
			free := tx.ReadU64(memA(rec) + resFree)
			tx.WriteU64(memA(rec)+resFree, free-1)
			panic("power failure mid-reservation")
		})
	}()
	rt.Crash(pmem.Adversarial, 11)
	heap.Recover(rt.Thread(0))
	after, _ := m.FreeSlots(0, TableCar, 1)
	if after != before {
		t.Fatalf("partial booking leaked: %d -> %d", before, after)
	}
	if m.Counter(0, TableCar) != c0 {
		t.Fatal("counter torn")
	}
}

func TestCrossDependenciesFromCounters(t *testing.T) {
	// Two clients updating the same global counter within the window
	// produce cross-dependencies (§5.1).
	rt, _, m := newMgr(2)
	*rt.Trace = trace.Trace{}
	for i := 0; i < 10; i++ {
		m.Reserve(0, 1, TableCar, uint64(i%8))
		m.Reserve(1, 2, TableCar, uint64(i%8))
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if a.CrossDepEpochs == 0 {
		t.Fatal("no cross-dependencies despite shared counters")
	}
	// Cross-deps must remain rare relative to self-deps (Figure 5).
	if a.CrossDepFraction() > a.SelfDepFraction() {
		t.Errorf("cross (%f) > self (%f)", a.CrossDepFraction(), a.SelfDepFraction())
	}
}

func memA(v uint64) memAddr { return memAddr(v) }

// memAddr aliases mem.Addr for brevity in tests.
type memAddr = mem.Addr
