package pmem

// Microbenchmarks for the device hot path: every PM store an application
// performs funnels through Store/Flush/Fence, so allocations here multiply
// across the whole suite. Before/after numbers for the paged-arena image
// (vs the seed's map-per-line device), for the dense pending-line sets (vs
// map-backed buffers) and for the one image with undo blocks (vs a live
// and a durable page map) are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
)

// BenchmarkDeviceStore measures a single-line cacheable store.
func BenchmarkDeviceStore(b *testing.B) {
	d := New()
	a := d.Map(1 << 20)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(0, a+mem.Addr((i%4096)*16), buf)
	}
}

// BenchmarkDeviceStoreSpan measures a store spanning four cache lines, the
// shape of log-entry and block writes.
func BenchmarkDeviceStoreSpan(b *testing.B) {
	d := New()
	a := d.Map(1 << 20)
	buf := make([]byte, 4*mem.LineSize)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store(0, a+mem.Addr((i%1024)*4*mem.LineSize), buf)
	}
}

// BenchmarkDeviceStoreFlushFence measures the complete native-persistence
// sequence (store, CLWB, SFENCE) — the hottest path in the repo: every
// singleton epoch in Figure 4 is exactly this.
func BenchmarkDeviceStoreFlushFence(b *testing.B) {
	d := New()
	storeFlushFenceLoop(b, d, d.Map(1<<20))
}

// BenchmarkDeviceStoreNTFence measures the non-temporal path (PM_MOVNTI +
// SFENCE) used by PMFS block writes and log appends.
func BenchmarkDeviceStoreNTFence(b *testing.B) {
	d := New()
	a := d.Map(1 << 20)
	buf := make([]byte, mem.LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := a + mem.Addr((i%4096)*64)
		d.StoreNT(0, addr, buf)
		d.Fence(0)
	}
}

// BenchmarkDeviceLoad measures a warm single-line load.
func BenchmarkDeviceLoad(b *testing.B) {
	d := New()
	a := d.Map(1 << 20)
	for i := 0; i < 4096; i++ {
		d.Store(0, a+mem.Addr(i*64), []byte{byte(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Load(0, a+mem.Addr((i%4096)*64), 8)
	}
}

// BenchmarkDeviceLoadInto is BenchmarkDeviceLoad into a caller's buffer: the
// same lookup and copy, no allocation.
func BenchmarkDeviceLoadInto(b *testing.B) {
	d := New()
	a := d.Map(1 << 20)
	for i := 0; i < 4096; i++ {
		d.Store(0, a+mem.Addr(i*64), []byte{byte(i)})
	}
	var out [8]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.LoadInto(0, a+mem.Addr((i%4096)*64), out[:])
	}
}

// largeEpochLines is one 512 KB compaction copy: the largest epoch the KV
// service's copy-forward pass issues.
const largeEpochLines = 8192

// largeEpoch runs one store+flush+fence epoch of largeEpochLines lines.
func largeEpoch(d *Device, a mem.Addr) {
	buf := make([]byte, largeEpochLines*mem.LineSize)
	d.Store(0, a, buf)
	d.Flush(0, a, len(buf))
	d.Fence(0)
}

// storeFlushFenceLoop is the body of the store+flush+fence benchmarks,
// shared with the history-independence test.
func storeFlushFenceLoop(b *testing.B, d *Device, a mem.Addr) {
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := a + mem.Addr((i%4096)*64)
		d.Store(0, addr, buf)
		d.Flush(0, addr, len(buf))
		d.Fence(0)
	}
}

// BenchmarkDeviceFenceAfterLargeEpoch is BenchmarkDeviceStoreFlushFence on
// a thread that has had one 8 192-line epoch: a fence must cost the lines
// pending now, not the largest epoch the thread ever had. With map-backed
// buffers cleared at every fence this was 390x the fresh-device cost.
func BenchmarkDeviceFenceAfterLargeEpoch(b *testing.B) {
	d := New()
	a := d.Map(1 << 20)
	largeEpoch(d, a)
	storeFlushFenceLoop(b, d, a)
}

// BenchmarkDeviceCrash measures adversarial crash injection over a device
// with in-flight state on four threads, on top of durable images of 1 k
// and 16 k pages (4 MB and 64 MB): the crash must cost the in-flight
// lines, not the image.
func BenchmarkDeviceCrash(b *testing.B) {
	for _, pages := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			d := New()
			a := d.Map(pages * PageBytes)
			for p := 0; p < pages; p++ {
				d.StoreNT(0, a+mem.Addr(p*PageBytes), []byte{byte(p), 1})
				if p%64 == 63 {
					d.Fence(0)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for tid := ThreadID(0); tid < 4; tid++ {
					for j := 0; j < 64; j++ {
						addr := a + mem.Addr(j*64)
						d.Store(tid, addr, []byte{byte(tid), byte(j), byte(i)})
						if j%2 == 0 {
							d.Flush(tid, addr, 2)
						}
					}
				}
				b.StartTimer()
				d.Crash(Adversarial, int64(i))
			}
		})
	}
}
