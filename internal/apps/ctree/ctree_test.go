package ctree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newTree() (*persist.Runtime, *nvml.Pool, *Tree) {
	rt := persist.NewRuntime("ctree", "nvml", 2, persist.Config{})
	pool := nvml.Open(rt, 8192, nvml.Options{})
	return rt, pool, New(rt, pool)
}

func TestInsertGet(t *testing.T) {
	_, _, tr := newTree()
	keys := []uint64{5, 1, 9, 1 << 40, 0x8000000000000000, 2, 3}
	for i, k := range keys {
		if err := tr.Insert(0, k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if v, ok := tr.Get(0, k); !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %v,%v, want %d", k, v, ok, i)
		}
	}
	if _, ok := tr.Get(0, 12345); ok {
		t.Fatal("phantom key")
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertUpdates(t *testing.T) {
	_, _, tr := newTree()
	tr.Insert(0, 7, 1)
	tr.Insert(0, 7, 2)
	if v, _ := tr.Get(0, 7); v != 2 {
		t.Fatalf("value = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	_, _, tr := newTree()
	for _, k := range []uint64{10, 20, 30, 40} {
		tr.Insert(0, k, k)
	}
	found, err := tr.Delete(0, 20)
	if err != nil || !found {
		t.Fatalf("Delete = %v,%v", found, err)
	}
	if _, ok := tr.Get(0, 20); ok {
		t.Fatal("deleted key present")
	}
	for _, k := range []uint64{10, 30, 40} {
		if v, ok := tr.Get(0, k); !ok || v != k {
			t.Fatalf("sibling %d damaged: %v,%v", k, v, ok)
		}
	}
	if found, _ := tr.Delete(0, 20); found {
		t.Fatal("double delete found")
	}
	// Delete down to a single leaf and then empty.
	tr.Delete(0, 10)
	tr.Delete(0, 30)
	tr.Delete(0, 40)
	if tr.CountPersistent(0) != 0 {
		t.Fatal("tree not empty after deleting all")
	}
}

func TestMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, _, tr := newTree()
		model := make(map[uint64]uint64)
		for op := 0; op < 150; op++ {
			k := uint64(rng.Intn(64))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint64()
				tr.Insert(0, k, v)
				model[k] = v
			case 2:
				tr.Delete(0, k)
				delete(model, k)
			}
		}
		if tr.CountPersistent(0) != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get(0, k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochsPerInsertNearPaper(t *testing.T) {
	// Figure 3: ctree median 11 epochs/tx.
	rt, _, tr := newTree()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		tr.Insert(0, rng.Uint64(), uint64(i))
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	med := a.MedianTxEpochs()
	if med < 8 || med > 22 {
		t.Errorf("median epochs/insert = %d, paper reports 11", med)
	}
}

func TestCrashRecover(t *testing.T) {
	rt, _, tr := newTree()
	for k := uint64(1); k <= 8; k++ {
		tr.Insert(0, k*1000, k)
	}
	rt.Crash(pmem.Strict, 6)
	tr.Recover()
	if got := tr.CountPersistent(0); got != 8 {
		t.Fatalf("recovered count = %d, want 8", got)
	}
	for k := uint64(1); k <= 8; k++ {
		if v, ok := tr.Get(0, k*1000); !ok || v != k {
			t.Fatalf("key %d lost: %v,%v", k*1000, v, ok)
		}
	}
}

func TestCrashMidInsertInvisible(t *testing.T) {
	rt, pool, tr := newTree()
	tr.Insert(0, 100, 1)
	func() {
		defer func() { recover() }()
		pool.Run(rt.Thread(0), func(tx *nvml.Tx) error {
			leaf := tx.Alloc(lSize)
			tx.Write(leaf, make([]byte, lSize))
			panic("crash mid-insert")
		})
	}()
	rt.Crash(pmem.Adversarial, 7)
	tr.Recover()
	if got := tr.CountPersistent(0); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestCritBit(t *testing.T) {
	cases := []struct {
		a, b uint64
		want uint
	}{
		{0, 1, 0},
		{2, 3, 0},
		{0, 2, 1},
		{0, 1 << 63, 63},
		{0xff, 0x100, 8},
	}
	for _, c := range cases {
		if got := critBit(c.a, c.b); got != c.want {
			t.Errorf("critBit(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
