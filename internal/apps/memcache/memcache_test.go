package memcache

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newCache(threads, maxItems int) (*persist.Runtime, *mnemosyne.Heap, *Cache) {
	rt := persist.NewRuntime("memcached", "mnemosyne", threads, persist.Config{})
	heap := mnemosyne.New(rt, 8192, mnemosyne.Options{})
	return rt, heap, New(rt, heap, 64, maxItems)
}

func TestSetGet(t *testing.T) {
	_, _, c := newCache(1, 100)
	c.Insert(0, "hello", "world")
	if v, ok := c.Get(0, "hello"); !ok || v != "world" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := c.Get(0, "missing"); ok {
		t.Fatal("phantom key")
	}
}

func TestSetOverwrite(t *testing.T) {
	_, _, c := newCache(1, 100)
	c.Insert(0, "k", "v1")
	c.Insert(0, "k", "v2longer")
	if v, _ := c.Get(0, "k"); v != "v2longer" {
		t.Fatalf("value = %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestDelete(t *testing.T) {
	_, _, c := newCache(1, 100)
	c.Insert(0, "a", "1")
	c.Insert(0, "b", "2")
	if found, err := c.Delete(0, "a"); err != nil || !found {
		t.Fatalf("Delete = %v,%v", found, err)
	}
	if _, ok := c.Get(0, "a"); ok {
		t.Fatal("deleted key present")
	}
	if v, _ := c.Get(0, "b"); v != "2" {
		t.Fatal("chain damaged")
	}
}

func TestLRUEviction(t *testing.T) {
	_, _, c := newCache(1, 3)
	c.Insert(0, "a", "1")
	c.Insert(0, "b", "2")
	c.Insert(0, "c", "3")
	c.Get(0, "a") // touch a: now b is LRU
	c.Insert(0, "d", "4")
	if c.Len() != 3 {
		t.Fatalf("Len = %d after eviction", c.Len())
	}
	if _, ok := c.Get(0, "b"); ok {
		t.Fatal("LRU item b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(0, k); !ok {
			t.Fatalf("item %q wrongly evicted", k)
		}
	}
}

func TestGetIsReadOnlyTx(t *testing.T) {
	// GETs replaced locks with transactions: they must be cheap,
	// fence-free read-only transactions (the paper's median tx is 4
	// epochs because GETs dominate).
	rt, _, c := newCache(1, 100)
	c.Insert(0, "k", "v")
	n := int(rt.Dev.Stats().Fences)
	c.Get(0, "k")
	if got := int(rt.Dev.Stats().Fences) - n; got != 0 {
		t.Errorf("GET issued %d fences, want 0 (read-only tx)", got)
	}
	begins := 0
	for _, e := range rt.Trace.Events() {
		if e.Kind == trace.KTxBegin {
			begins++
		}
	}
	if begins < 2 {
		t.Error("GET not bracketed as a transaction")
	}
}

func TestCrashRecover(t *testing.T) {
	rt, heap, c := newCache(1, 100)
	for i := 0; i < 10; i++ {
		c.Insert(0, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	rt.Crash(pmem.Strict, 12)
	heap.Recover(rt.Thread(0))
	if got := c.CountPersistent(0); got != 10 {
		t.Fatalf("recovered count = %d", got)
	}
	for i := 0; i < 10; i++ {
		if v, ok := c.Get(0, fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q,%v", i, v, ok)
		}
	}
}

func TestCrashMidSetInvisible(t *testing.T) {
	rt, heap, c := newCache(1, 100)
	c.Insert(0, "stable", "yes")
	func() {
		defer func() { recover() }()
		heap.Run(rt.Thread(0), func(tx *mnemosyne.Tx) error {
			item := tx.Alloc(iSize)
			tx.Write(item, make([]byte, 32))
			tx.WriteU64(c.bucketAddr(123), uint64(item))
			panic("crash mid-set")
		})
	}()
	rt.Crash(pmem.Adversarial, 13)
	heap.Recover(rt.Thread(0))
	if got := c.CountPersistent(0); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if v, ok := c.Get(0, "stable"); !ok || v != "yes" {
		t.Fatal("committed item lost")
	}
}
