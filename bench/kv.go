package main

import (
	"fmt"
	"runtime"

	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/pmem"
)

// desWorkload drives kvservice.Run up a ladder of client counts. The
// load is open loop: clients × 1 000 ops/s arrive as one Poisson stream
// whatever the service does, and a request's latency runs from its
// simulated arrival to its batch being durable, so a stall is charged to
// everything queued behind it.
//
// kv_churn (1 shard, 80 % writes over 65 536 zipf-1.1 keys, 1 MiB
// segments) seals a segment every few thousand requests, so each rate
// sees some twenty compaction passes and the copy-forward pause under the
// shard lock owns p99. kv_read (4 shards, 5 % writes, 16 MiB segments)
// never seals one: compaction does nothing and the read path, routing and
// group-commit wait carry the latency. A compaction change should move
// the first and leave the second alone.
type desWorkload struct {
	cfg   runConfig
	name  string
	base  kvservice.SimConfig
	rates []int
}

const (
	kvKeyLen       = len("key00000000") // kvservice.Run's key format
	clientOpsPerS  = 1000
	churnRequests  = 150_000 // per rate: 150 samples beyond p999
	readRequests   = 1_500_000
	minDESRequests = 2000
)

func newDES(cfg runConfig, name string) instance {
	w := &desWorkload{cfg: cfg, name: name}
	w.base = kvservice.SimConfig{
		Batch: 8, Keys: 1 << 16, ZipfS: 1.1, ValueLen: 128,
		ClientOpsPerSec: clientOpsPerS, Seed: cfg.seed,
	}
	switch name {
	case wChurn:
		w.base.Shards, w.base.WritePct = 1, 80
		w.base.Ops = cfg.scaled(churnRequests, minDESRequests)
		w.rates = churnRates
	case wRead:
		w.base.Shards, w.base.WritePct, w.base.SegBytes = 4, 5, 16<<20
		w.base.Ops = cfg.scaled(readRequests, minDESRequests)
		w.rates = readRates
	}
	return w
}

// setup warms the process with a tenth-size run at the reference rate.
// Every kvservice.Run builds its own service, so no state carries over.
func (w *desWorkload) setup(tr *tracer) {
	c := w.base
	c.Clients = w.rates[refRate]
	c.Ops = max(c.Ops/10, 1)
	tr.do("warm", func() { kvservice.Simulate(c) })
}

// deviceTotals sums the device counters of a service's shards.
func deviceTotals(svc *kvservice.Service) pmem.Stats {
	var t pmem.Stats
	for i := 0; i < svc.Shards(); i++ {
		s := svc.Runtime(i).Dev.Stats()
		t.Stores += s.Stores
		t.NTStores += s.NTStores
		t.Loads += s.Loads
		t.Flushes += s.Flushes
		t.Fences += s.Fences
		t.LinesPersist += s.LinesPersist
		t.BytesStored += s.BytesStored
	}
	return t
}

// serviceMetrics records a service's device, batching and space counters.
func serviceMetrics(m map[string]float64, svc *kvservice.Service, requests int) {
	dev := deviceTotals(svc)
	m["pmem.stores"] = float64(dev.Stores)
	m["pmem.nt_stores"] = float64(dev.NTStores)
	m["pmem.loads"] = float64(dev.Loads)
	m["pmem.flushes"] = float64(dev.Flushes)
	m["pmem.fences"] = float64(dev.Fences)
	m["pmem.lines_persisted"] = float64(dev.LinesPersist)
	m["pmem.bytes_stored"] = float64(dev.BytesStored)
	stats, space := svc.Stats(), svc.Space()
	m["kv.batches"] = float64(stats.Batches)
	m["kv.mean_batch"] = float64(requests) / float64(max(stats.Batches, 1))
	m["kv.fences"] = float64(stats.Fences)
	m["kv.rejects"] = float64(stats.Rejects)
	m["kv.compactions"] = float64(space.Compactions)
	m["kv.copied_bytes"] = float64(space.CopiedBytes)
	m["kv.segments"] = float64(space.Segments)
	m["kv.live_bytes"] = float64(space.LiveBytes)
	m["kv.log_bytes"] = float64(space.LogBytes)
	m["kv.space_amp"] = space.Amplification()
}

func (w *desWorkload) pass(tr *tracer) pass {
	p := newPass()
	d := newDigester()
	var points []ratePoint
	requests := 0
	for i, clients := range w.rates {
		c := w.base
		c.Clients = clients
		var res kvservice.SimResult
		var svc *kvservice.Service
		runtime.GC()
		wallS := p.timed(tr, fmt.Sprintf("des.c%d", clients), func() { res, svc = kvservice.Run(c) })
		w.cfg.live.sample() // the service and its shard traces are still held
		requests += c.Ops

		stats := svc.Stats()
		p.attempted += c.Ops
		p.failed += int(stats.Rejects)
		lat := svc.Latency()
		pt := ratePoint{
			Clients: clients,
			P99Us:   lat.Quantile(0.99) / 1e3,
			Rejects: stats.Rejects,
			// Arrivals are Poisson at clients × clientOpsPerS, so c.Ops of
			// them span c.Ops / rate seconds (to within 1/sqrt(c.Ops)).
			Backlog: float64(res.SimNS) / (float64(c.Ops) / float64(clients*clientOpsPerS) * 1e9),
		}
		points = append(points, pt)
		d.add("%+v\n", res)

		if i == refRate {
			p.m["fences_per_op"] = float64(stats.Fences) / float64(c.Ops)
			userBytes := stats.Puts*uint64(kvKeyLen+c.ValueLen) + stats.Deletes*uint64(kvKeyLen)
			p.m["write_amp"] = float64(deviceTotals(svc).BytesStored) / float64(max(userBytes, 1))
			p.m["sim_latency_us"] = pt.P99Us
			if tr != nil {
				serviceMetrics(p.m, svc, c.Ops)
				p.m["kv.p50_us"] = lat.Quantile(0.50) / 1e3
				p.m["kv.p999_us"] = lat.Quantile(0.999) / 1e3
			}
		}
		if tr != nil {
			p.m[fmt.Sprintf("kv.p99_us.c%d", clients)] = pt.P99Us
			p.m[fmt.Sprintf("kv.wall_s.c%d", clients)] = wallS
			p.m[fmt.Sprintf("kv.backlog_ratio.c%d", clients)] = pt.Backlog
		}

		// Check, untimed: what the run left durable recovers cleanly.
		var err error
		p.attempted++
		tr.do(fmt.Sprintf("check.crash.c%d", clients), func() { err = svc.Crash(pmem.Strict, w.cfg.seed) })
		if err != nil {
			p.failed++
		}
	}
	capacity := pickCapacity(points)
	d.add("capacity %d\n", capacity)
	p.digest = d.sum()
	if tr != nil {
		p.m["kv.capacity_clients"] = float64(capacity)
		p.m["kv.des_kops_per_s"] = perSec(requests, p.wall(), 1e3)
	}
	return p
}
