package kvservice

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Run and Crash put every shard on a goroutine of its own. These tests hold
// the contract that makes that invisible to callers: a panic on a shard
// goroutine reaches the caller's goroutine with its original value, after
// the other shards are done, with every shard lock released and no
// goroutine left behind; and an error is the lowest-indexed shard's.

// requireGoroutines waits for the goroutine count to come back to base: a
// shard goroutine has signalled the join by the time it returns, but may
// not have exited yet.
func requireGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a shard goroutine outlived its join", runtime.NumGoroutine(), base)
		}
	}
}

// requireUsable: every shard lock is free and the service still commits and
// recovers.
func requireUsable(t *testing.T, svc *Service) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if err := svc.Put(fmt.Sprintf("after-%d", i), []byte("abort")); err != nil {
			t.Fatal(err)
		}
	}
	svc.Flush()
	if err := svc.Crash(pmem.Strict, 2); err != nil {
		t.Fatalf("recovery after the aborted call: %v", err)
	}
	for i := 0; i < 8; i++ {
		if got, ok := svc.Get(fmt.Sprintf("after-%d", i)); !ok || string(got) != "abort" {
			t.Fatalf("after-%d lost across the recovery: %q, %v", i, got, ok)
		}
	}
}

// TestCrashPanicReachesCaller stops shard 1's recovery at every one of its
// PM events through AbortAt, whose recover runs on the test's goroutine: it
// must see its own panic value (anything else it re-raises and the test
// binary dies), and the service must come out usable.
func TestCrashPanicReachesCaller(t *testing.T) {
	for k := 1; ; k++ {
		svc := New(Config{Shards: 2, Batch: 4, Metrics: obs.NewRegistry()})
		for i := 0; i < 40; i++ {
			svc.Put(fmt.Sprintf("k%02d", i), []byte("v"))
		}
		svc.Flush()
		base := runtime.NumGoroutine()
		if !svc.Runtime(1).AbortAt(k, nil, func() { svc.Crash(pmem.Strict, 1) }) {
			if k < 10 {
				t.Fatalf("shard 1's recovery ran to completion within %d events", k)
			}
			break
		}
		requireGoroutines(t, base)
		requireUsable(t, svc)
	}
}

// TestFeedPanicReachesCaller drives Run's per-shard runner with a step that
// panics on shard 1's third chunk, holding the shard lock the way a commit
// does. The drawing side sends far more than the chunks in circulation, so
// it would block for good if the panicked goroutine stopped taking them;
// close must re-raise the value once shard 0 has simulated all of its
// requests.
func TestFeedPanicReachesCaller(t *testing.T) {
	svc := New(Config{Shards: 2, Batch: 8, Metrics: obs.NewRegistry()})
	boom := fmt.Errorf("step panicked")
	chunks := 0
	step := func(sh *shard, reqs []request) {
		if sh == svc.shards[1] {
			if chunks++; chunks == 3 {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				panic(boom)
			}
		}
		svc.enqueue(sh, reqs)
	}
	sent := [2]uint64{}
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("close raised %v, want the step's own panic value", r)
			}
		}()
		f := svc.startFeed(step)
		for i := 0; i < 8*(feedDepth+1)*feedChunk; i++ {
			key := keyName(uint64(i))
			sh := svc.ShardFor(key)
			sent[sh]++
			f.send(sh, request{op: workload.KVOp{Kind: workload.OpUpdate, Key: key, Value: []byte("v")}, arrival: mem.Time(i + 1)})
		}
		f.close()
		t.Fatal("close returned although a step panicked")
	}()
	requireGoroutines(t, base)
	svc.drain()
	if got := svc.shards[0].puts; got != sent[0] {
		t.Fatalf("shard 0 applied %d of its %d requests before the panic was re-raised", got, sent[0])
	}
	if got := svc.shards[1].puts; got >= sent[1] {
		t.Fatalf("shard 1 applied %d requests, its step panicked before %d", got, sent[1])
	}
	requireUsable(t, svc)
}

// TestCrashReturnsLowestShardError corrupts both shards' slot tables, each
// with a base of its own, and demands shard 0's error every time whichever
// shard finishes first.
func TestCrashReturnsLowestShardError(t *testing.T) {
	for round := 0; round < 20; round++ {
		svc := New(Config{Shards: 2, Batch: 1, SegBytes: 512, Metrics: obs.NewRegistry()})
		for i := 0; i < 8; i++ {
			svc.Put(fmt.Sprintf("k%d", i), []byte("v"))
		}
		svc.Flush()
		corruptSlot(svc, 0, 0, 0x40)
		corruptSlot(svc, 1, 0, 0xffffffffffffffc0)
		err := svc.Crash(pmem.Strict, 1)
		if err == nil || !strings.Contains(err.Error(), "at 0x40(dram)") {
			t.Fatalf("round %d: Crash returned %v, want shard 0's error (base 0x40)", round, err)
		}
	}
}
