package kvservice

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func smallSweep() SweepConfig {
	return SweepConfig{
		Shards:          []int{1, 2},
		Batches:         []int{1, 8},
		Clients:         []int{500, 2000},
		Ops:             3000,
		ClientOpsPerSec: 1000,
		P99LimitUs:      25,
		Seed:            1,
	}
}

// TestGroupCommitWins is the PR's headline claim: at an offered load
// above the batch=1 capacity of one shard, group commit must deliver
// both higher throughput and a lower p99 — the two per-request fences
// amortize across the batch.
func TestGroupCommitWins(t *testing.T) {
	load := SimConfig{Shards: 1, Clients: 8000, ClientOpsPerSec: 1000, Ops: 20000}
	load.Batch = 1
	solo := Simulate(load)
	load.Batch = 16
	grouped := Simulate(load)

	if grouped.OpsPerSec <= solo.OpsPerSec {
		t.Errorf("group commit did not raise throughput: batch=16 %.0f <= batch=1 %.0f ops/s",
			grouped.OpsPerSec, solo.OpsPerSec)
	}
	if grouped.P99Us >= solo.P99Us {
		t.Errorf("group commit did not cut p99: batch=16 %.3fµs >= batch=1 %.3fµs",
			grouped.P99Us, solo.P99Us)
	}
	if grouped.Fences >= solo.Fences {
		t.Errorf("group commit did not cut fences: %d >= %d", grouped.Fences, solo.Fences)
	}
	if grouped.MeanBatch < 8 {
		t.Errorf("mean batch %.2f under saturation; batching never engaged", grouped.MeanBatch)
	}
}

// TestMoreShardsMoreCapacity: under the same saturating load, spreading
// the fleet over more persistence domains must not lose throughput.
func TestMoreShardsMoreCapacity(t *testing.T) {
	load := SimConfig{Batch: 8, Clients: 16000, ClientOpsPerSec: 1000, Ops: 20000}
	load.Shards = 1
	one := Simulate(load)
	load.Shards = 4
	four := Simulate(load)
	if four.OpsPerSec <= one.OpsPerSec {
		t.Errorf("4 shards %.0f ops/s <= 1 shard %.0f ops/s", four.OpsPerSec, one.OpsPerSec)
	}
}

// TestSweepDeterministic pins the capacity-curve artifact: the same
// config must render to byte-identical JSON across 20 fresh sweeps —
// no map iteration, wall clock, or cross-run registry state may leak in.
func TestSweepDeterministic(t *testing.T) {
	cfg := smallSweep()
	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, Sweep(cfg)); err != nil {
			t.Fatalf("run %d: WriteJSON: %v", i, err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d diverged from run 0", i)
		}
	}
	if len(first) == 0 || first[len(first)-1] != '\n' {
		t.Fatal("artifact must be non-empty and newline-terminated")
	}
}

func TestSweepJSONRoundTrip(t *testing.T) {
	res := Sweep(smallSweep())
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Capacity) != len(res.Capacity) {
		t.Fatalf("round trip lost rows: %d/%d, capacity %d/%d",
			len(back.Rows), len(res.Rows), len(back.Capacity), len(res.Capacity))
	}
	for i := range res.Rows {
		if back.Rows[i] != res.Rows[i] {
			t.Fatalf("row %d changed: %+v vs %+v", i, back.Rows[i], res.Rows[i])
		}
	}
}

func TestCompareEnvelope(t *testing.T) {
	ref := Sweep(smallSweep())

	// Identical sweep passes at any slack.
	if err := Compare(ref, Sweep(smallSweep()), 1.0); err != nil {
		t.Fatalf("identical sweeps flagged: %v", err)
	}

	// A subset sweep still overlaps and passes (the CI smoke shape).
	sub := smallSweep()
	sub.Shards, sub.Batches, sub.Clients = []int{1}, []int{8}, []int{500}
	if err := Compare(ref, Sweep(sub), 1.0); err != nil {
		t.Fatalf("subset sweep flagged: %v", err)
	}

	// A regressed row fails and is named.
	bad := Sweep(smallSweep())
	bad.Rows[0].P99Us *= 10
	err := Compare(ref, bad, 1.25)
	if err == nil {
		t.Fatal("10x p99 regression passed the envelope")
	}
	if !strings.Contains(err.Error(), "p99 regression") {
		t.Fatalf("error does not describe the regression: %v", err)
	}

	// Zero overlap must be an error, not a vacuous pass.
	disjoint := smallSweep()
	disjoint.Clients = []int{123}
	if err := Compare(ref, Sweep(disjoint), 1.25); err == nil {
		t.Fatal("disjoint sweep compared clean")
	}
}

// TestSimResultSanity cross-checks a row's internal accounting.
func TestSimResultSanity(t *testing.T) {
	r := Simulate(SimConfig{Shards: 2, Batch: 8, Clients: 1000, Ops: 5000})
	if r.Puts == 0 || r.Puts >= uint64(r.Ops) {
		t.Fatalf("puts = %d of %d ops at 80%% writes", r.Puts, r.Ops)
	}
	if r.Batches == 0 || r.MeanBatch < 1 {
		t.Fatalf("batches = %d, mean %.2f", r.Batches, r.MeanBatch)
	}
	// Two fences per put-carrying batch, one per compaction pass (the slot
	// retire: a pass's copies ride the batches' own commits), plus one per
	// shard format, never more (read-only batches are free).
	if r.Fences > 2*r.Batches+r.Compactions+2 {
		t.Fatalf("fences = %d for %d batches, %d compactions", r.Fences, r.Batches, r.Compactions)
	}
	if r.SimNS == 0 || r.OpsPerSec <= 0 {
		t.Fatalf("degenerate makespan: %d ns, %.1f ops/s", r.SimNS, r.OpsPerSec)
	}
	if r.P50Us <= 0 || r.P99Us < r.P50Us || r.P999Us < r.P99Us {
		t.Fatalf("quantiles out of order: p50=%.3f p99=%.3f p999=%.3f", r.P50Us, r.P99Us, r.P999Us)
	}
	if r.Segments == 0 || r.LogBytes == 0 {
		t.Fatalf("space columns empty: %+v", r)
	}
	if r.LiveBytes > r.LogBytes {
		t.Fatalf("live bytes %d exceed the physical log %d", r.LiveBytes, r.LogBytes)
	}
}

// TestSimDeleteMixAndSpaceColumns runs a delete-heavy row on small
// segments: deletes must show up in the result, compaction must engage,
// and the space columns must report a bounded, consistent picture.
func TestSimDeleteMixAndSpaceColumns(t *testing.T) {
	r := Simulate(SimConfig{
		Shards: 2, Batch: 8, Clients: 1000, Ops: 8000,
		WritePct: 60, DeletePct: 25, Keys: 512, ValueLen: 64,
		SegBytes: 1 << 12,
	})
	if r.Deletes == 0 {
		t.Fatal("delete mix produced no deletes")
	}
	if r.Compactions == 0 {
		t.Fatal("small-segment churn never compacted")
	}
	if r.SpaceAmp <= 0 || r.SpaceAmp > 3.0 {
		t.Fatalf("space amplification %.3f out of range", r.SpaceAmp)
	}
	if r.Segments > 128 {
		t.Fatalf("segments unbounded: %d", r.Segments)
	}
}

// TestSimDeletePctZeroUnchanged pins stream compatibility: DeletePct=0
// must reproduce the exact op stream (and therefore the exact result)
// the pre-delete simulator produced — one rng draw routes each op.
func TestSimDeletePctZeroUnchanged(t *testing.T) {
	a := Simulate(SimConfig{Shards: 2, Batch: 8, Clients: 1000, Ops: 5000, Seed: 9})
	b := Simulate(SimConfig{Shards: 2, Batch: 8, Clients: 1000, Ops: 5000, Seed: 9, DeletePct: 0})
	if a != b {
		t.Fatalf("DeletePct=0 perturbed the run:\n%+v\n%+v", a, b)
	}
	if a.Deletes != 0 {
		t.Fatalf("deletes = %d with no delete mix", a.Deletes)
	}
}

// TestChurnGateVerdict runs the compaction-churn acceptance gate at test
// scale: the workload appends several slot-tables' worth of bytes, which
// the pre-compaction store could not absorb (it panicked at maxSegs).
func TestChurnGateVerdict(t *testing.T) {
	res, svc := Churn(12000, 7)
	if !res.Ok {
		t.Fatalf("churn gate failed: %+v", res)
	}
	if res.Compactions == 0 || res.Rejects != 0 {
		t.Fatalf("verdict inconsistent: %+v", res)
	}
	if uint64(res.Segments)*uint64(1<<13) != res.LogBytes {
		t.Fatalf("log bytes %d disagree with %d segments", res.LogBytes, res.Segments)
	}
	sp := svc.Space()
	if sp.Compactions != res.Compactions {
		t.Fatalf("service reports %d compactions, result %d", sp.Compactions, res.Compactions)
	}
}

// TestStageBudgetSumsToLatency: the five stage counters partition every
// timed request's arrival→durable interval, so their sum is the latency
// histogram's sum to the nanosecond — on a run whose batches carry
// compaction steps and retires, and on a read-mostly one where most
// batches commit nothing.
func TestStageBudgetSumsToLatency(t *testing.T) {
	for name, cfg := range map[string]SimConfig{
		"compacting":  {Shards: 1, Batch: 8, Clients: 2000, Ops: 40000, Keys: 1024, WritePct: 80, DeletePct: 5, SegBytes: 1 << 16},
		"read-mostly": {Shards: 2, Batch: 8, Clients: 8000, Ops: 20000, Keys: 4096, WritePct: 5},
	} {
		res, svc := Run(cfg)
		lat := svc.Latency().Snapshot()
		var st [numStages]uint64
		var sum uint64
		for i, c := range svc.stageNS {
			st[i] = c.Value()
			sum += st[i]
		}
		if lat.Count != uint64(cfg.Ops) {
			t.Fatalf("%s: %d latencies observed for %d requests", name, lat.Count, cfg.Ops)
		}
		if sum != lat.Sum {
			t.Fatalf("%s: stages %v %v sum to %d ns, latencies to %d ns", name, stageNames, st, sum, lat.Sum)
		}
		if st[stageWait] == 0 || st[stageApply] == 0 || st[stageCommit] == 0 {
			t.Fatalf("%s: a stage every run pays is empty: %v %v", name, stageNames, st)
		}
		if compacted := res.Compactions > 0; compacted != (st[stageCopy] > 0) || compacted != (name == "compacting") {
			t.Fatalf("%s: %d compactions but copy stage %d ns", name, res.Compactions, st[stageCopy])
		}
		// The row's columns are the same budget per request.
		m := sweepRow(res, svc)
		mean := float64(lat.Sum) / float64(lat.Count) / 1000
		if got := m.WaitUs + m.ApplyUs + m.CopyUs + m.CommitUs + m.RetireUs; got < mean-0.003 || got > mean+0.003 {
			t.Fatalf("%s: stage means %+v add up to %.3f µs, mean latency is %.3f µs", name, m, got, mean)
		}
	}
}

// TestLatencyCountsEveryTimedRequest: shards observe latency and stage
// shares into their own tallies and flush them per chunk and in drain, so a
// run must still end with every request in the service histogram and the
// stage counters summing to its sum. The op counts straddle a feed chunk
// (a partial last chunk, an exact one, one request over) and leave a batch
// pending for drain; each runs on one shard and four, on one core and on
// every core.
func TestLatencyCountsEveryTimedRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 4} {
			for _, ops := range []int{1, feedChunk - 1, feedChunk, feedChunk + 1, 1003} {
				_, svc := Run(SimConfig{Shards: shards, Batch: 8, Clients: 4000, Ops: ops, Keys: 1024, WritePct: 50})
				lat := svc.Latency().Snapshot()
				var sum uint64
				for _, c := range svc.stageNS {
					sum += c.Value()
				}
				if lat.Count != uint64(ops) || sum != lat.Sum {
					t.Errorf("GOMAXPROCS=%d shards=%d ops=%d: %d latencies summing to %d ns, stages sum to %d ns",
						procs, shards, ops, lat.Count, lat.Sum, sum)
				}
			}
		}
	}
}

// TestRatedCapacity pins the capacity curve of the committed artifact: a
// sweep at BENCH_kv_service.json's own config must rate every
// shards × batch column where the artifact does, and where the service
// stood before compaction had a pause to take out of p99.
func TestRatedCapacity(t *testing.T) {
	f, err := os.Open("../../BENCH_kv_service.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []CapacityPoint{
		{1, 1, 2000}, {1, 8, 4000}, {1, 32, 4000},
		{2, 1, 4000}, {2, 8, 8000}, {2, 32, 8000},
		{4, 1, 8000}, {4, 8, 8000}, {4, 32, 8000},
	}
	if !slices.Equal(ref.Capacity, want) {
		t.Fatalf("BENCH_kv_service.json rates\n %+v\nthe pinned curve is\n %+v", ref.Capacity, want)
	}
	if got := Sweep(ref.Config).Capacity; !slices.Equal(got, want) {
		t.Fatalf("sweep at the artifact's config rates\n %+v\nwant\n %+v", got, want)
	}
}
