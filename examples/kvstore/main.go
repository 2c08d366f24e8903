// kvstore builds a crash-consistent persistent key-value store directly on
// the library's NVML-style transactional layer — the way a downstream user
// would build their own PM application on this codebase. It demonstrates
// durable transactions, transactional allocation, abort semantics, and
// recovery after an injected power failure.
package main

import (
	"fmt"
	"log"

	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
)

func main() {
	// A runtime = simulated PM device + global clock + trace; nothing
	// here reads the trace, so the runtime keeps none.
	rt := persist.NewRuntime("kvstore-example", "nvml", 1, persist.Config{NoTrace: true})
	th := rt.Thread(0)

	// An object pool with undo-log transactions (pmemobj-style).
	pool := nvml.Open(rt, 4096, nvml.Options{})
	kv := hashstore.New(rt, pool, 256)

	// 1. Durable inserts.
	for i := uint64(0); i < 100; i++ {
		if err := kv.Insert(0, i, i*i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("inserted 100 keys; kv[7] = %d\n", mustGet(kv, 7))

	// 2. An aborted transaction leaves no trace.
	err := pool.Run(th, func(tx *nvml.Tx) error {
		tx.Alloc(64) // would leak without rollback
		return fmt.Errorf("application decided to abort")
	})
	fmt.Printf("aborted tx returned: %v\n", err)

	// 3. Power failure! Everything volatile is lost; the undo logs and
	// allocator redo log bring the pool back to a consistent state.
	rt.Crash(pmem.Adversarial, 0xC0FFEE)
	pool.Recover(th)
	kv2 := hashstore.Attach(rt, pool, 256)

	fmt.Printf("after crash+recovery: %d keys persisted\n", kv2.CountPersistent(0))
	fmt.Printf("kv[7] still = %d\n", mustGet(kv2, 7))

	// 4. The device counters show the cost of crash consistency.
	st := rt.Dev.Stats()
	fmt.Printf("device: %d stores, %d flushes, %d fences, %d crash\n",
		st.Stores, st.Flushes, st.Fences, st.Crashes)
}

func mustGet(kv *hashstore.Map, k uint64) uint64 {
	v, ok := kv.Get(0, k)
	if !ok {
		log.Fatalf("key %d lost", k)
	}
	return v
}
