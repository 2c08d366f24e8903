package kvservice

import (
	"runtime"
	"testing"
)

// The two DES shapes the repository's benchmark runs (bench/kv.go), at the
// reference rate of each ladder: read is kv_read (4 shards, 5 % writes, no
// segment ever seals), churn is kv_churn (1 shard, 80 % writes, a compaction
// pass every few thousand requests).
func desConfig(name string, ops int) SimConfig {
	c := SimConfig{Batch: 8, Keys: 1 << 16, ZipfS: 1.1, ValueLen: 128, ClientOpsPerSec: 1000, Ops: ops, Seed: 1}
	switch name {
	case "read":
		c.Shards, c.WritePct, c.SegBytes, c.Clients = 4, 5, 16<<20, 16000
	case "churn":
		c.Shards, c.WritePct, c.Clients = 1, 80, 1000
	}
	return c
}

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkRun records the simulator's own speed: wall ns and heap
// allocations per simulated request, service construction included.
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"read", "churn"} {
		cfg := desConfig(name, 200_000)
		b.Run(name, func(b *testing.B) {
			mallocs := mallocsDuring(func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Run(cfg)
				}
				b.StopTimer()
			})
			requests := float64(b.N) * float64(cfg.Ops)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/requests, "ns/request")
			b.ReportMetric(float64(mallocs)/requests, "allocs/request")
		})
	}
}

// TestRunAllocsPerRequest bounds what one more simulated request costs the
// heap on the read shape: its key string (1), a value and a record buffer
// for the 5 % that write (0.1), the range coalescing of the group commits
// those writes cause (0.24), and the amortized growth of the indexes. Load
// results are not in that list — a batch read fills the shard's scratch
// buffer — and neither is key formatting; with both it was 2.46. Nor is the
// trace: the run does not record (it cost few mallocs when it did, one per
// 32 768-event chunk — 1.375 then as now — what it cost was the bytes, which
// TestUnrecordedRunRetainsNothingPerEvent bounds). The second run is twice
// the first, so everything that does not scale with requests (service
// construction) cancels.
func TestRunAllocsPerRequest(t *testing.T) {
	const ops = 50_000
	once := mallocsDuring(func() { Run(desConfig("read", ops)) })
	twice := mallocsDuring(func() { Run(desConfig("read", 2*ops)) })
	per := (float64(twice) - float64(once)) / ops
	t.Logf("%d and %d mallocs for %d and %d requests: %.3f per extra request", once, twice, ops, 2*ops, per)
	if per > 1.5 {
		t.Errorf("one more request costs %.3f mallocs, want <= 1.5", per)
	}
}
