package echo

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

func newStore(threads int) (*persist.Runtime, *Store) {
	rt := persist.NewRuntime("echo", "native", threads, persist.Config{})
	return rt, New(rt)
}

func TestPutGetLocal(t *testing.T) {
	_, s := newStore(2)
	s.Put(0, "alpha", 42)
	if v, ok := s.Get(0, "alpha"); !ok || v != 42 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	// Other clients don't see unsubmitted updates.
	if _, ok := s.Get(1, "alpha"); ok {
		t.Fatal("unsubmitted update visible to another client")
	}
}

func TestSubmitMakesGloballyVisible(t *testing.T) {
	_, s := newStore(2)
	s.Put(0, "k", 7)
	if n := s.SubmitBatch(0); n != 1 {
		t.Fatalf("submitted %d", n)
	}
	if v, ok := s.Get(1, "k"); !ok || v != 7 {
		t.Fatalf("master value = %v,%v", v, ok)
	}
}

func TestVersionChaining(t *testing.T) {
	_, s := newStore(1)
	for i := 1; i <= 3; i++ {
		s.Put(0, "vkey", uint64(i*100))
		s.SubmitBatch(0)
	}
	th := s.rt.Thread(0)
	versions := 0
	for ver := mem.Addr(th.LoadU64(s.index[workload.HashKey("vkey")] + eVer)); ver != 0; ver = mem.Addr(th.LoadU64(ver + vPrev)) {
		versions++
	}
	if versions != 3 {
		t.Fatalf("version chain holds %d versions, want 3 (chronological chain)", versions)
	}
	if v, _ := s.Get(0, "vkey"); v != 300 {
		t.Fatalf("latest value = %d", v)
	}
}

func TestBatchIsOneTransaction(t *testing.T) {
	rt, s := newStore(1)
	for i := 0; i < 5; i++ {
		s.Put(0, fmt.Sprintf("k%d", i), uint64(i))
	}
	s.SubmitBatch(0)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TxEpochCounts) != 1 {
		t.Fatalf("transactions = %d, want 1", len(a.TxEpochCounts))
	}
	// A 5-update batch has many epochs: descriptor + logs + applies.
	if a.TxEpochCounts[0] < 15 {
		t.Fatalf("epochs in batch = %d, want >= 15", a.TxEpochCounts[0])
	}
}

func TestSelfDependenciesExist(t *testing.T) {
	// The INPROGRESS->CREATED descriptor walk plus version-pointer swings
	// make Echo self-dependency-heavy (Figure 5: ~54%).
	rt, s := newStore(1)
	for b := 0; b < 10; b++ {
		for i := 0; i < 8; i++ {
			s.Put(0, fmt.Sprintf("k%d", i), uint64(b))
		}
		s.SubmitBatch(0)
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if a.SelfDepFraction() < 0.2 {
		t.Errorf("self-dep fraction = %.2f, want substantial (paper: 0.55)", a.SelfDepFraction())
	}
}

func TestCrashRecoverKeepsSubmitted(t *testing.T) {
	rt, s := newStore(1)
	s.Put(0, "durable", 11)
	s.SubmitBatch(0)
	s.Put(0, "volatile-only", 22) // staged, never submitted

	rt.Crash(pmem.Strict, 1)
	s.Recover()

	if v, ok := s.Get(0, "durable"); !ok || v != 11 {
		t.Fatalf("submitted update lost: %v,%v", v, ok)
	}
	if _, ok := s.Get(0, "volatile-only"); ok {
		t.Fatal("staged update survived crash")
	}
}

func TestCrashMidBatchAdversarial(t *testing.T) {
	// Crash during a batch: previously submitted data must survive; the
	// interrupted batch may be partially applied (Echo's per-update commit
	// points) but never corrupt earlier values.
	for seed := int64(1); seed <= 8; seed++ {
		rt, s := newStore(1)
		s.Put(0, "base", 1)
		s.SubmitBatch(0)
		s.Put(0, "base", 2) // second batch staged
		// Apply the batch fully, then adversarially lose in-flight lines.
		s.SubmitBatch(0)
		rt.Crash(pmem.Adversarial, seed)
		s.Recover()
		v, ok := s.Get(0, "base")
		if !ok {
			t.Fatalf("seed %d: key lost entirely", seed)
		}
		if v != 1 && v != 2 {
			t.Fatalf("seed %d: torn value %d", seed, v)
		}
	}
}
