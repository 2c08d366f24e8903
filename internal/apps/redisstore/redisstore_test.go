package redisstore

import (
	"fmt"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newStore() (*persist.Runtime, *nvml.Pool, *Store) {
	rt := persist.NewRuntime("redis", "nvml", 1, persist.Config{})
	pool := nvml.Open(rt, 4096, nvml.Options{})
	return rt, pool, New(rt, pool, 64)
}

func TestSetGet(t *testing.T) {
	_, _, s := newStore()
	s.Set("name", "whisper")
	s.Set("venue", "asplos17")
	if v, ok := s.Get("name"); !ok || v != "whisper" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if v, ok := s.Get("venue"); !ok || v != "asplos17" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("phantom key")
	}
}

func TestSetOverwrite(t *testing.T) {
	_, _, s := newStore()
	s.Set("k", "first")
	s.Set("k", "secondvalue")
	if v, _ := s.Get("k"); v != "secondvalue" {
		t.Fatalf("value = %q", v)
	}
	s.Set("k", "x") // shrink
	if v, _ := s.Get("k"); v != "x" {
		t.Fatalf("value = %q", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDel(t *testing.T) {
	_, _, s := newStore()
	s.Set("a", "1")
	s.Set("b", "2")
	found, err := s.Del("a")
	if err != nil || !found {
		t.Fatalf("Del = %v,%v", found, err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key present")
	}
	if v, _ := s.Get("b"); v != "2" {
		t.Fatal("unrelated key damaged")
	}
}

func TestChainCollisions(t *testing.T) {
	_, _, s := newStore()
	// 64 buckets, 200 keys: plenty of chaining.
	for i := 0; i < 200; i++ {
		s.Set(fmt.Sprintf("key%03d", i), fmt.Sprintf("val%03d", i))
	}
	for i := 0; i < 200; i++ {
		if v, ok := s.Get(fmt.Sprintf("key%03d", i)); !ok || v != fmt.Sprintf("val%03d", i) {
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
	s.Set("warm", "v0")
	*rt.Trace = trace.Trace{}
	for i := 0; i < 10; i++ {
		s.Set("warm", fmt.Sprintf("v%d", i))
	}
	a := epoch.Analyze(rt.Trace)
	med := a.MedianTxEpochs()
	if med < 4 || med > 10 {
		t.Errorf("median epochs/update = %d, paper reports 6", med)
	}
}

func TestCrashRecover(t *testing.T) {
	rt, _, s := newStore()
	for i := 0; i < 20; i++ {
		s.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	rt.Crash(pmem.Strict, 8)
	s.Recover()
	if got := s.CountPersistent(); got != 20 {
		t.Fatalf("recovered count = %d", got)
	}
	for i := 0; i < 20; i++ {
		if v, ok := s.Get(fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q,%v", i, v, ok)
		}
	}
}

func TestCrashMidSetRollsBack(t *testing.T) {
	rt, pool, s := newStore()
	s.Set("key", "original")
	func() {
		defer func() { recover() }()
		pool.Run(rt.Thread(0), func(tx *nvml.Tx) error {
			// Start mutating the existing value then die.
			h := fnv("key")
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
	if v, ok := s.Get("key"); !ok || v != "original" {
		t.Fatalf("value = %q,%v, want original", v, ok)
	}
}

func TestOversizeValueClamped(t *testing.T) {
	_, _, s := newStore()
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'x'
	}
	if err := s.Set("k", string(long)); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || len(v) == 0 || len(v) > maxKV {
		t.Fatalf("clamped value len = %d", len(v))
	}
}

func TestRunWorkload(t *testing.T) {
	rt := persist.NewRuntime("redis", "nvml", 1, persist.Config{})
	pool := nvml.Open(rt, 8192, nvml.Options{})
	s := RunWorkload(rt, pool, 256, 1000, 200, 3)
	if s.Len() == 0 {
		t.Fatal("no keys stored")
	}
	a := epoch.Analyze(rt.Trace)
	if len(a.TxEpochCounts) == 0 {
		t.Fatal("no transactions traced")
	}
	// Single-threaded server: everything on thread 0.
	for _, e := range slices.Concat(rt.Trace.Chunks()...) {
		if e.TID != 0 {
			t.Fatal("event off the event-loop thread")
		}
	}
}

// memAddr converts a raw pointer word for test use.
func memAddr(v uint64) mem.Addr { return mem.Addr(v) }
