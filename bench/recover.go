package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
)

// recoverWorkload uses the store layer the other way — scanned, not
// appended. Set-up loads recoverKeys distinct keys through the concurrent
// API (about 57 MB of log over two shards); the timed region is
// recoverCycles rounds of overwrite, Flush, power failure and recovery,
// then sampled reads checked against a map oracle. Recovery rescans every
// mapped segment, so its cost grows with history, not with live data.
type recoverWorkload struct {
	cfg  runConfig
	svc  *kvservice.Service
	keys []string
	// oracle maps a key to the version of its newest acknowledged value;
	// valueFor regenerates the bytes.
	oracle      map[string]uint32
	setupFailed int
}

const (
	recoverShards     = 2
	recoverBatch      = 32
	recoverKeys       = 200_000
	recoverValueLen   = 256
	recoverCycles     = 12
	recoverOverwrites = 2000
	recoverSamples    = 1000
)

func newRecover(cfg runConfig) instance { return &recoverWorkload{cfg: cfg} }

// valueFor fills buf with the value version ver of key holds: a
// splitmix64 stream seeded from the run seed, the key and the version.
func (w *recoverWorkload) valueFor(key string, ver uint32, buf []byte) {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() ^ uint64(w.cfg.seed)<<32 ^ uint64(ver)
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(buf[i:], z^z>>31)
	}
}

func (w *recoverWorkload) setup(tr *tracer) {
	n := w.cfg.scaled(recoverKeys, 1000)
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.svc = kvservice.New(kvservice.Config{Shards: recoverShards, Batch: recoverBatch, Metrics: obs.NewRegistry()})
	w.keys = make([]string, 0, n)
	w.oracle = make(map[string]uint32, n)
	w.setupFailed = 0
	val := make([]byte, recoverValueLen)
	tr.do("setup.load", func() {
		for len(w.keys) < n {
			key := fmt.Sprintf("k%016x", rng.Uint64())
			if _, dup := w.oracle[key]; dup {
				continue
			}
			w.valueFor(key, 0, val)
			if err := w.svc.Put(key, val); err != nil {
				w.setupFailed++
			}
			w.keys = append(w.keys, key)
			w.oracle[key] = 0
		}
		w.svc.Flush()
	})
}

func (w *recoverWorkload) pass(tr *tracer) pass {
	p := newPass()
	p.attempted, p.failed = len(w.keys), w.setupFailed
	d := newDigester()
	svc := w.svc
	rng := rand.New(rand.NewSource(w.cfg.seed + 1))
	overwrites := w.cfg.scaled(recoverOverwrites, 64)
	samples := w.cfg.scaled(recoverSamples, 32)

	puts := make([]string, overwrites)
	vals := make([][]byte, overwrites)
	for i := range vals {
		vals[i] = make([]byte, recoverValueLen)
	}
	reads := make([]string, samples)
	got := make([][]byte, samples)
	want := make([]byte, recoverValueLen)

	dev0 := deviceTotals(svc)
	var crashS, simUs, loads, records []float64
	var userBytes int
	durable := len(w.keys)
	for c := 0; c < recoverCycles; c++ {
		// Inputs for this cycle; harness time, kept out of the spans.
		g := time.Now()
		for i := range puts {
			key := w.keys[rng.Intn(len(w.keys))]
			w.oracle[key]++
			w.valueFor(key, w.oracle[key], vals[i])
			puts[i] = key
			userBytes += len(key) + recoverValueLen
		}
		for i := range reads {
			reads[i] = w.keys[rng.Intn(len(w.keys))]
		}
		p.generator += time.Since(g).Seconds()

		p.attempted += overwrites
		p.timed(tr, fmt.Sprintf("put.%02d", c), func() {
			for i, key := range puts {
				if err := svc.Put(key, vals[i]); err != nil {
					p.failed++
				}
			}
			svc.Flush()
		})
		durable += overwrites

		runtime.GC()
		var sim0 [recoverShards]uint64
		for i := range sim0 {
			sim0[i] = uint64(svc.Runtime(i).Clock.Now())
		}
		loads0 := deviceTotals(svc).Loads
		var err error
		p.attempted++
		s := p.timed(tr, fmt.Sprintf("crash.%02d", c), func() { err = svc.Crash(pmem.Strict, w.cfg.seed+int64(c)) })
		if err != nil {
			p.failed++
		}
		crashS = append(crashS, s)
		var slowest uint64
		for i := range sim0 {
			slowest = max(slowest, uint64(svc.Runtime(i).Clock.Now())-sim0[i])
		}
		simUs = append(simUs, float64(slowest)/1e3)
		loads = append(loads, float64(deviceTotals(svc).Loads-loads0))
		records = append(records, float64(durable))
		d.add("cycle %d: %d ns, %v lines\n", c, slowest, loads[c])

		p.timed(tr, fmt.Sprintf("get.%02d", c), func() {
			for i, key := range reads {
				got[i], _ = svc.Get(key)
			}
		})
		p.attempted += samples
		for i, key := range reads {
			w.valueFor(key, w.oracle[key], want)
			if !bytes.Equal(got[i], want) {
				p.failed++
			}
		}
	}

	w.cfg.live.sample() // history only grows, so the last cycle holds the most
	dev := deviceTotals(svc)
	space := svc.Space()
	d.add("%+v\n", space)
	total := recoverCycles * overwrites
	p.m["fences_per_op"] = float64(dev.Fences-dev0.Fences) / float64(total)
	p.m["write_amp"] = float64(dev.BytesStored-dev0.BytesStored) / float64(userBytes)
	p.m["sim_latency_us"] = sum(simUs) / recoverCycles
	p.digest = d.sum()
	if tr == nil {
		return p
	}

	serviceMetrics(p.m, svc, len(w.keys)+total)
	p.m["kv.recover_wall_ms"] = median(crashS) * 1e3
	p.m["kv.recover_wall_ms_max"] = percentile(crashS, 1) * 1e3
	p.m["kv.recover_records"] = sum(records) / recoverCycles
	p.m["kv.recover_lines_loaded"] = sum(loads) / recoverCycles
	a, f := 0, 0
	tr.do("ladder", func() { a, f = serviceRungs(w.cfg, tr, p.m) })
	p.attempted += a
	p.failed += f
	return p
}
