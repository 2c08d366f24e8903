package persist

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
)

// benchRunIters is how many iterations one runtime of
// BenchmarkThreadStoreFlushFence records before it is replaced, off the
// clock, so that a retained trace stays a few MB however large b.N grows.
const benchRunIters = 1 << 16

// BenchmarkThreadStoreFlushFence measures one 64 B store, CLWB and SFENCE
// through a persist.Thread: the device's work plus the clock, the recorder
// (or, under NoTrace, none) and the thread's fence instruments. "tx" issues
// the fences inside an open transaction, "bare" with none open, where every
// fence publishes to the registry. The device alone is
// pmem.BenchmarkDeviceStoreFlushFence.
func BenchmarkThreadStoreFlushFence(b *testing.B) {
	for _, rec := range []struct {
		name    string
		noTrace bool
	}{{"recording", false}, {"notrace", true}} {
		for _, tx := range []struct {
			name string
			open bool
		}{{"tx", true}, {"bare", false}} {
			b.Run(rec.name+"/"+tx.name, func(b *testing.B) {
				buf := make([]byte, mem.LineSize)
				var th *Thread
				var base mem.Addr
				fresh := func() {
					rt := NewRuntime("bench", "native", 1, Config{Metrics: obs.NewRegistry(), NoTrace: rec.noTrace})
					th = rt.Thread(0)
					base = rt.Dev.Map(4096 * mem.LineSize)
					if tx.open {
						th.TxBegin()
					}
				}
				fresh()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%benchRunIters == benchRunIters-1 {
						b.StopTimer()
						fresh()
						b.StartTimer()
					}
					a := base + mem.Addr(i%4096)*mem.LineSize
					th.Store(a, buf)
					th.Flush(a, len(buf))
					th.Fence()
				}
			})
		}
	}
}
