package hashstore

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newMap(threads int) (*persist.Runtime, *nvml.Pool, *Map) {
	rt := persist.NewRuntime("hashmap", "nvml", threads, persist.Config{})
	pool := nvml.Open(rt, 4096, nvml.Options{})
	return rt, pool, New(rt, pool, 64)
}

func TestInsertGet(t *testing.T) {
	_, _, m := newMap(1)
	m.Insert(0, 10, 100)
	m.Insert(0, 74, 200) // same bucket as 10 (64 buckets): chain
	if v, ok := m.Get(0, 10); !ok || v != 100 {
		t.Fatalf("Get(10) = %v,%v", v, ok)
	}
	if v, ok := m.Get(0, 74); !ok || v != 200 {
		t.Fatalf("Get(74) = %v,%v", v, ok)
	}
	if _, ok := m.Get(0, 999); ok {
		t.Fatal("phantom key")
	}
}

func TestInsertUpdatesExisting(t *testing.T) {
	_, _, m := newMap(1)
	m.Insert(0, 5, 1)
	m.Insert(0, 5, 2)
	if v, _ := m.Get(0, 5); v != 2 {
		t.Fatalf("value = %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (update, not insert)", m.Len())
	}
}

func TestDelete(t *testing.T) {
	_, _, m := newMap(1)
	m.Insert(0, 10, 100)
	m.Insert(0, 74, 200)
	found, err := m.Delete(0, 10)
	if err != nil || !found {
		t.Fatalf("Delete = %v,%v", found, err)
	}
	if _, ok := m.Get(0, 10); ok {
		t.Fatal("deleted key still present")
	}
	if v, _ := m.Get(0, 74); v != 200 {
		t.Fatal("chain broken by delete")
	}
	if found, _ := m.Delete(0, 10); found {
		t.Fatal("double delete reported found")
	}
}

func TestEpochsPerInsertNearPaper(t *testing.T) {
	// Figure 3: hashmap median 11 epochs per transaction.
	rt, _, m := newMap(1)
	for k := uint64(0); k < 20; k++ {
		m.Insert(0, k*64, k) // all distinct buckets: pure inserts
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	med := a.MedianTxEpochs()
	if med < 7 || med > 16 {
		t.Errorf("median epochs/insert = %d, paper reports 11", med)
	}
}

func TestSelfDepsHigh(t *testing.T) {
	// Figure 5: hashmap ~81% self-dependencies (allocator bitmap words,
	// log set/clear, bucket heads).
	rt, pool, _ := newMap(1)
	_ = pool
	m := Attach(rt, pool, 64)
	for k := uint64(0); k < 50; k++ {
		m.Insert(0, k, k)
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if a.SelfDepFraction() < 0.4 {
		t.Errorf("self-dep fraction = %.2f, paper reports ~0.81", a.SelfDepFraction())
	}
}

func TestCrashRecoverConsistent(t *testing.T) {
	rt, pool, m := newMap(1)
	for k := uint64(0); k < 10; k++ {
		m.Insert(0, k, k*7)
	}
	rt.Crash(pmem.Strict, 5)
	pool.Recover(rt.Thread(0))
	m2 := Attach(rt, pool, 64)
	if got := m2.CountPersistent(0); got != 10 {
		t.Fatalf("persistent count = %d, want 10", got)
	}
	for k := uint64(0); k < 10; k++ {
		if v, ok := m2.Get(0, k); !ok || v != k*7 {
			t.Fatalf("key %d = %v,%v after recovery", k, v, ok)
		}
	}
}

func TestCrashMidInsertAtomic(t *testing.T) {
	// Adversarial crash right after a completed insert plus an interrupted
	// one: the map must recover to a consistent state where the
	// interrupted insert is invisible.
	for seed := int64(1); seed <= 6; seed++ {
		rt, pool, m := newMap(1)
		m.Insert(0, 1, 11)
		func() {
			defer func() { recover() }()
			pool.Run(rt.Thread(0), func(tx *nvml.Tx) error {
				ne := tx.Alloc(24)
				tx.Write(ne, make([]byte, 24))
				panic("power failure mid-insert")
			})
		}()
		rt.Crash(pmem.Adversarial, seed)
		pool.Recover(rt.Thread(0))
		m2 := Attach(rt, pool, 64)
		if got := m2.CountPersistent(0); got != 1 {
			t.Fatalf("seed %d: count = %d, want 1", seed, got)
		}
		if v, ok := m2.Get(0, 1); !ok || v != 11 {
			t.Fatalf("seed %d: committed insert lost", seed)
		}
	}
}
