package main

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmfs"
)

// The layer ladder: the same 64 B durable update issued one layer higher
// on each rung, so a layer's Go-side cost is the difference between two
// adjacent rungs. It runs only on traced passes. Rungs 0–2 (device,
// persist thread, transaction libraries) belong to the suite workload,
// rung 3 (Service.Put/Get) to kv_recover, the workloads whose end-to-end
// time those layers carry.

const (
	rungIters    = 1_000_000 // rungs 0 and 1
	txRungIters  = 200_000   // one transaction per iteration
	fsRungIters  = 50_000    // one 4 KiB block write per iteration
	svcRungIters = 20_000    // one Service.Put or Get per iteration
	rungSlots    = 4096      // distinct lines / keys an update rotates over
	rungPayload  = 64        // bytes per durable update
	rungPoolSize = 1024      // allocator blocks per size class
)

// ladderRuntime is a one-thread runtime reporting into a private registry,
// so rung counters never mix with a workload's.
func ladderRuntime(layer string) (*persist.Runtime, *persist.Thread) {
	rt := persist.NewRuntime("ladder", layer, 1, persist.Config{Metrics: obs.NewRegistry()})
	return rt, rt.Thread(0)
}

func slot(base mem.Addr, i int) mem.Addr {
	return base + mem.Addr((i%rungSlots)*mem.LineSize)
}

// libraryRungs measures rungs 0–2 into m.
func libraryRungs(cfg runConfig, tr *tracer, m map[string]float64) {
	buf := make([]byte, rungPayload)
	n := cfg.scaled(rungIters, 1000)
	perIter := func(seconds float64, n int) float64 { return seconds / float64(n) * 1e9 }

	dev := pmem.New()
	base := dev.Map(rungSlots * mem.LineSize)
	s0 := tr.do("rung0.pmem", func() {
		for i := 0; i < n; i++ {
			a := slot(base, i)
			dev.Store(0, a, buf)
			dev.Flush(0, a, len(buf))
			dev.Fence(0)
		}
	})
	m["pmem.sff_wall_ns"] = perIter(s0, n)

	rt, th := ladderRuntime("native")
	base = rt.Dev.Map(rungSlots * mem.LineSize)
	sim0 := rt.Clock.Now()
	s1 := tr.do("rung1.persist", func() {
		for i := 0; i < n; i++ {
			a := slot(base, i)
			th.Store(a, buf)
			th.Flush(a, len(buf))
			th.Fence()
		}
	})
	m["persist.sff_wall_ns"] = perIter(s1, n)
	m["persist.emit_wall_ns"] = perIter(s1-s0, n)
	// The device has no clock of its own: the persist thread charges the
	// machine model's cost of the three device operations.
	m["pmem.sff_sim_ns"] = float64(rt.Clock.Now()-sim0) / float64(n)

	n = cfg.scaled(txRungIters, 200)
	fencesPer := func(rt *persist.Runtime, f0 uint64, n int) float64 {
		return float64(rt.Dev.Stats().Fences-f0) / float64(n)
	}

	rt, th = ladderRuntime("nvml")
	pool := nvml.Open(rt, rungPoolSize, nvml.Options{})
	var obj mem.Addr
	// The bodies below return nil, and Run only passes a body's error on.
	_ = pool.Run(th, func(tx *nvml.Tx) error { obj = tx.Alloc(rungPayload); return nil })
	f0 := rt.Dev.Stats().Fences
	s := tr.do("rung2.nvml", func() {
		for i := 0; i < n; i++ {
			_ = pool.Run(th, func(tx *nvml.Tx) error { tx.Set(obj, buf); return nil })
		}
	})
	m["nvml.tx_wall_ns"] = perIter(s, n)
	m["nvml.tx_fences"] = fencesPer(rt, f0, n)

	rt, th = ladderRuntime("mnemosyne")
	heap := mnemosyne.New(rt, rungPoolSize, mnemosyne.Options{})
	obj = heap.PMalloc(th, rungPayload)
	f0 = rt.Dev.Stats().Fences
	s = tr.do("rung2.mnemosyne", func() {
		for i := 0; i < n; i++ {
			_ = heap.Run(th, func(tx *mnemosyne.Tx) error { tx.Write(obj, buf); return nil })
		}
	})
	m["mnemosyne.tx_wall_ns"] = perIter(s, n)
	m["mnemosyne.tx_fences"] = fencesPer(rt, f0, n)

	n = cfg.scaled(fsRungIters, 50)
	rt, th = ladderRuntime("pmfs")
	fs := pmfs.Format(rt, th, pmfs.Options{})
	block := make([]byte, pmfs.BlockSize)
	err := fs.Create(th, "/ladder")
	f0 = rt.Dev.Stats().Fences
	s = tr.do("rung2.pmfs", func() {
		for i := 0; i < n && err == nil; i++ {
			err = fs.WriteAt(th, "/ladder", int64(i%64)*pmfs.BlockSize, block)
		}
	})
	if err != nil {
		// Leaving the two metrics out makes measure count them as failed.
		return
	}
	m["pmfs.write_wall_ns"] = perIter(s, n)
	m["pmfs.write_fences"] = fencesPer(rt, f0, n)
}

// serviceRungs measures rung 3 into m: Service.Put at the recovery
// workload's batch size and at batch 1, and Service.Get. It returns how
// many operations it attempted and how many failed.
func serviceRungs(cfg runConfig, tr *tracer, m map[string]float64) (attempted, failed int) {
	n := cfg.scaled(svcRungIters, 200)
	buf := make([]byte, rungPayload)
	keys := make([]string, rungSlots)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%08d", i)
	}
	var svc *kvservice.Service
	put := func(batch int) float64 {
		svc = kvservice.New(kvservice.Config{Shards: 1, Batch: batch, Metrics: obs.NewRegistry()})
		s := tr.do(fmt.Sprintf("rung3.put_b%d", batch), func() {
			for i := 0; i < n; i++ {
				if err := svc.Put(keys[i%rungSlots], buf); err != nil {
					failed++
				}
			}
			svc.Flush()
		})
		attempted += n
		return s / float64(n) * 1e9
	}
	m["kv.put_b1_wall_ns"] = put(1)
	m["kv.put_wall_ns"] = put(recoverBatch)
	s := tr.do("rung3.get", func() {
		for i := 0; i < n; i++ {
			if _, ok := svc.Get(keys[i%rungSlots]); !ok {
				failed++
			}
		}
	})
	attempted += n
	m["kv.get_wall_ns"] = s / float64(n) * 1e9
	return attempted, failed
}
