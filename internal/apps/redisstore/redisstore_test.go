package redisstore

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

func newStore() (*persist.Runtime, *nvml.Pool, *Store) {
	rt := persist.NewRuntime("redis", "nvml", 1, persist.Config{})
	pool := nvml.Open(rt, 4096, nvml.Options{})
	return rt, pool, New(rt, pool, 64)
}

func TestSetGet(t *testing.T) {
	_, _, s := newStore()
	s.Insert(0, "name", "whisper")
	s.Insert(0, "venue", "asplos17")
	if v, ok := s.Get(0, "name"); !ok || v != "whisper" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if v, ok := s.Get(0, "venue"); !ok || v != "asplos17" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := s.Get(0, "absent"); ok {
		t.Fatal("phantom key")
	}
}

func TestSetOverwrite(t *testing.T) {
	_, _, s := newStore()
	s.Insert(0, "k", "first")
	s.Insert(0, "k", "secondvalue")
	if v, _ := s.Get(0, "k"); v != "secondvalue" {
		t.Fatalf("value = %q", v)
	}
	s.Insert(0, "k", "x") // shrink
	if v, _ := s.Get(0, "k"); v != "x" {
		t.Fatalf("value = %q", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDel(t *testing.T) {
	_, _, s := newStore()
	s.Insert(0, "a", "1")
	s.Insert(0, "b", "2")
	found, err := s.Delete(0, "a")
	if err != nil || !found {
		t.Fatalf("Del = %v,%v", found, err)
	}
	if _, ok := s.Get(0, "a"); ok {
		t.Fatal("deleted key present")
	}
	if v, _ := s.Get(0, "b"); v != "2" {
		t.Fatal("unrelated key damaged")
	}
}

func TestChainCollisions(t *testing.T) {
	_, _, s := newStore()
	// 64 buckets, 200 keys: plenty of chaining.
	for i := 0; i < 200; i++ {
		s.Insert(0, fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i))
	}
	for i := 0; i < 200; i++ {
		if v, ok := s.Get(0, fmt.Sprintf("key%03d", i)); !ok || v != fmt.Sprintf("val%03d", i) {
			t.Fatalf("key%03d = %q,%v", i, v, ok)
		}
	}
	if s.CountPersistent() != 200 {
		t.Fatalf("persistent count = %d", s.CountPersistent())
	}
}

func TestEpochsPerSetNearPaper(t *testing.T) {
	// Figure 3: redis median 6 epochs/tx. Updates (no allocation) are the
	// common case in lru-test's steady state.
	rt, _, s := newStore()
	s.Insert(0, "warm", "v0")
	*rt.Trace = trace.Trace{}
	for i := 0; i < 10; i++ {
		s.Insert(0, "warm", fmt.Sprintf("v%d", i))
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	med := a.MedianTxEpochs()
	if med < 4 || med > 10 {
		t.Errorf("median epochs/update = %d, paper reports 6", med)
	}
}

func TestCrashRecover(t *testing.T) {
	rt, _, s := newStore()
	for i := 0; i < 20; i++ {
		s.Insert(0, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	rt.Crash(pmem.Strict, 8)
	s.Recover()
	if got := s.CountPersistent(); got != 20 {
		t.Fatalf("recovered count = %d", got)
	}
	for i := 0; i < 20; i++ {
		if v, ok := s.Get(0, fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q,%v", i, v, ok)
		}
	}
}

func TestCrashMidSetRollsBack(t *testing.T) {
	rt, pool, s := newStore()
	s.Insert(0, "key", "original")
	func() {
		defer func() { recover() }()
		pool.Run(rt.Thread(0), func(tx *nvml.Tx) error {
			// Start mutating the existing value then die.
			h := workload.HashKey("key")
			bucket := s.bucketAddr(h)
			e := memAddr(tx.ReadU64(bucket))
			kl := int(tx.ReadU64(e+eLens) & 0xffffffff)
			tx.AddRange(e+eData+memAddr(uint64(kl)), 8)
			tx.Write(e+eData+memAddr(uint64(kl)), []byte("CORRUPT!"))
			panic("crash mid-update")
		})
	}()
	rt.Crash(pmem.Adversarial, 9)
	s.Recover()
	if v, ok := s.Get(0, "key"); !ok || v != "original" {
		t.Fatalf("value = %q,%v, want original", v, ok)
	}
}

func TestOversizeValueClamped(t *testing.T) {
	_, _, s := newStore()
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if err := s.Insert(0, "k", string(long)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get(0, "k")
	if !ok || len(v) == 0 || len(v) > maxKV {
		t.Fatalf("clamped value len = %d", len(v))
	}
}

// memAddr converts a raw pointer word for test use.
func memAddr(v uint64) mem.Addr { return mem.Addr(v) }
