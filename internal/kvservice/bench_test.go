package kvservice

import (
	"runtime"
	"testing"

	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
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
// heap. The request path allocates nothing of its own: Run formats a key on
// its first draw only and cuts every value from one pattern, the feed's
// chunks circulate, the store builds records in a buffer it keeps, a group
// commit coalesces into buffers the group keeps, a batch read fills the
// shard's scratch buffer, and latency goes to a per-shard tally. What is
// left grows with the run, not with each request: the first draw of each
// newly drawn key, the amortized growth of the key table, and
// compactStep's key string, one per record a churn pass walks. The read
// shape read 0.121 (1.375 when each request formatted its key, built its
// value and record, and coalesced into fresh buffers), the churn shape 1.31
// (6.22). Nor is the trace on the list: the run does not record (it cost
// one malloc per 32 768-event chunk when it did; what it cost was the bytes,
// which TestUnrecordedRunRetainsNothingPerEvent bounds). The second run is
// twice the first, so everything that does not scale with requests (service
// construction) cancels.
func TestRunAllocsPerRequest(t *testing.T) {
	const ops = 50_000
	for _, c := range []struct {
		shape string
		limit float64
	}{{"read", 0.25}, {"churn", 1.5}} {
		once := mallocsDuring(func() { Run(desConfig(c.shape, ops)) })
		twice := mallocsDuring(func() { Run(desConfig(c.shape, 2*ops)) })
		per := (float64(twice) - float64(once)) / ops
		t.Logf("%s: %d and %d mallocs for %d and %d requests: %.3f per extra request", c.shape, once, twice, ops, 2*ops, per)
		if per > c.limit {
			t.Errorf("%s: one more request costs %.3f mallocs, want <= %g", c.shape, per, c.limit)
		}
	}
}

// recoverFixture is a one-shard service whose log holds n records of
// valueLen-byte values under distinct keys, all published, and nothing
// compacted.
func recoverFixture(tb testing.TB, n, valueLen int) *Service {
	svc := New(Config{Shards: 1, Batch: 32, Metrics: obs.NewRegistry()})
	val := make([]byte, valueLen)
	for i := 0; i < n; i++ {
		if err := svc.Put(keyName(uint64(i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	svc.Flush()
	return svc
}

// BenchmarkRecover records what rebuilding a shard's tables costs per
// record: one shard, a log of 100 000 records with 256-byte values, each
// iteration a power failure and the recovery scan.
func BenchmarkRecover(b *testing.B) {
	const records = 100_000
	svc := recoverFixture(b, records, 256)
	mallocs := mallocsDuring(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := svc.Crash(pmem.Strict, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
	n := float64(b.N) * records
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(mallocs)/n, "allocs/record")
}

// TestRecoveryAllocsPerRecord bounds what one more recovered record costs
// the heap. The scan reuses its record list and key buffer from segment to
// segment and converts each segment's keys to one string, and the key
// table is sized before the scan, so what is left grows with segments, not
// records. A string per key, as the single-pass scan made, reads 1.0.
func TestRecoveryAllocsPerRecord(t *testing.T) {
	const n = 20_000
	var per [2]uint64
	for i, records := range []int{n, 2 * n} {
		sh := recoverFixture(t, records, 64).shards[0]
		sh.rt.Crash(pmem.Strict, 1)
		per[i] = mallocsDuring(func() {
			if _, _, err := openStore(sh.th, sh.st.super, sh.st.segBytes, records); err != nil {
				t.Fatal(err)
			}
		})
	}
	extra := (float64(per[1]) - float64(per[0])) / n
	t.Logf("%d and %d mallocs to recover %d and %d records: %.4f per extra record", per[0], per[1], n, 2*n, extra)
	if extra > 0.05 {
		t.Errorf("one more recovered record costs %.4f mallocs, want <= 0.05", extra)
	}
}
