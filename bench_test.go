package whisper

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md, "Per-experiment index"). Each benchmark
// prints the rows/series the paper reports via b.ReportMetric and b.Log,
// so `go test -bench=. -benchmem` reproduces the evaluation end to end.
//
// Paper-vs-measured values are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmfs"
)

// benchOps scales runs for benchmarking: big enough to be representative,
// small enough for -bench sweeps.
const benchOps = 100

func runApp(b *testing.B, name string) *Report {
	b.Helper()
	rep, err := Run(name, Config{Ops: benchOps, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable1EpochRates regenerates Table 1: epochs per second for
// every application under its workload.
func BenchmarkTable1EpochRates(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = runApp(b, name).EpochsPerSecond
			}
			b.ReportMetric(rate, "epochs/sec")
		})
	}
}

// BenchmarkFig3TransactionSizes regenerates Figure 3: the median number of
// epochs (ordering points) per durable transaction.
func BenchmarkFig3TransactionSizes(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var med int
			for i := 0; i < b.N; i++ {
				med = runApp(b, name).MedianTxEpochs
			}
			b.ReportMetric(float64(med), "epochs/tx")
		})
	}
}

// BenchmarkFig4EpochSizes regenerates Figure 4: the epoch size
// distribution in 64 B cache lines.
func BenchmarkFig4EpochSizes(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var rep *Report
			for i := 0; i < b.N; i++ {
				rep = runApp(b, name)
			}
			b.ReportMetric(rep.SingletonFraction*100, "%singleton")
			b.ReportMetric(rep.EpochSizes[6]*100, "%64line")
			b.Logf("%s: %v", name, rep.EpochSizes)
		})
	}
}

// BenchmarkFig5Dependencies regenerates Figure 5: self- and cross-thread
// WAW dependencies within the 50 µs window.
func BenchmarkFig5Dependencies(b *testing.B) {
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			var rep *Report
			for i := 0; i < b.N; i++ {
				rep = runApp(b, name)
			}
			b.ReportMetric(rep.SelfDeps*100, "%self-dep")
			b.ReportMetric(rep.CrossDeps*100, "%cross-dep")
		})
	}
}

// simulatable is the Figure 6/10 subset (§5.3, §6.4).
var simulatable = []string{"echo", "ycsb", "redis", "ctree", "hashmap", "vacation"}

// BenchmarkFig6PMProportion regenerates Figure 6: PM accesses as a share
// of all memory accesses on the simulator-suitable subset.
func BenchmarkFig6PMProportion(b *testing.B) {
	for _, name := range simulatable {
		b.Run(name, func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				share = runApp(b, name).PMShare
			}
			b.ReportMetric(share*100, "%PM")
		})
	}
}

// BenchmarkFig10HOPS regenerates Figure 10: runtime of each application
// under the five persistence models, normalized to the x86-64 NVM
// baseline.
func BenchmarkFig10HOPS(b *testing.B) {
	for _, name := range simulatable {
		b.Run(name, func(b *testing.B) {
			var norm map[string]float64
			for i := 0; i < b.N; i++ {
				rep := runApp(b, name)
				norm = SimulateHOPS(rep.Trace, DefaultHOPSConfig())
			}
			b.ReportMetric(norm["x86-64 (PWQ)"], "x86pwq")
			b.ReportMetric(norm["HOPS (NVM)"], "hops")
			b.ReportMetric(norm["HOPS (PWQ)"], "hopspwq")
			b.ReportMetric(norm["IDEAL (NON-CC)"], "ideal")
		})
	}
}

// BenchmarkAmplification regenerates the §5.2 write-amplification study:
// extra PM bytes per byte of user data, per access layer.
func BenchmarkAmplification(b *testing.B) {
	for _, name := range []string{"ycsb", "vacation", "hashmap", "nfs"} {
		b.Run(name, func(b *testing.B) {
			var amp float64
			for i := 0; i < b.N; i++ {
				amp = runApp(b, name).Amplification
			}
			b.ReportMetric(amp*100, "%amplification")
		})
	}
}

// BenchmarkNTIFraction regenerates the §5.2 "How is PM written?" study:
// the byte share of non-temporal stores (paper: ~96% PMFS, ~67%
// Mnemosyne).
func BenchmarkNTIFraction(b *testing.B) {
	for _, name := range []string{"nfs", "exim", "vacation", "memcached", "hashmap"} {
		b.Run(name, func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				f = runApp(b, name).NTIFraction
			}
			b.ReportMetric(f*100, "%NTI")
		})
	}
}

// --- Ablations (design choices DESIGN.md calls out) ----------------------

// BenchmarkAblationPBSize sweeps the persist-buffer capacity: the paper
// evaluates 32 entries; small PBs force foreground stalls even under HOPS.
func BenchmarkAblationPBSize(b *testing.B) {
	rep, err := Run("hashmap", Config{Ops: benchOps, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, entries := range []int{1, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("pb%d", entries), func(b *testing.B) {
			cfg := DefaultHOPSConfig()
			cfg.PBEntries = entries
			if cfg.DrainAt > entries {
				cfg.DrainAt = entries / 2
			}
			if cfg.DrainAt == 0 {
				cfg.DrainAt = 1
			}
			var hops float64
			for i := 0; i < b.N; i++ {
				hops = SimulateHOPS(rep.Trace, cfg)["HOPS (NVM)"]
			}
			b.ReportMetric(hops, "normalized")
		})
	}
}

// BenchmarkAblationLogClear compares per-entry log clearing (the paper's
// observed behaviour, a singleton-epoch source) with the batched clearing
// §5.1 recommends, for both logging disciplines.
func BenchmarkAblationLogClear(b *testing.B) {
	count := func(batch bool, undo bool) int {
		rt := persist.NewRuntime("ablation", "lib", 1, persist.Config{})
		th := rt.Thread(0)
		if undo {
			pool := nvml.Open(rt, 1024, nvml.Options{BatchClear: batch})
			var a mem.Addr
			pool.Run(th, func(tx *nvml.Tx) error { a = tx.Alloc(128); return nil })
			f0 := rt.Dev.Stats().Fences
			pool.Run(th, func(tx *nvml.Tx) error {
				for i := 0; i < 8; i++ {
					tx.SetU64(a+mem.Addr(i*16), uint64(i))
				}
				return nil
			})
			return int(rt.Dev.Stats().Fences - f0)
		}
		heap := mnemosyne.New(rt, 1024, mnemosyne.Options{BatchClear: batch})
		a := heap.PMalloc(th, 128)
		f0 := rt.Dev.Stats().Fences
		heap.Run(th, func(tx *mnemosyne.Tx) error {
			for i := 0; i < 8; i++ {
				tx.WriteU64(a+mem.Addr(i*16), uint64(i))
			}
			return nil
		})
		return int(rt.Dev.Stats().Fences - f0)
	}
	for _, cfg := range []struct {
		name        string
		batch, undo bool
	}{
		{"redo/per-entry", false, false},
		{"redo/batched", true, false},
		{"undo/per-entry", false, true},
		{"undo/batched", true, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var epochs int
			for i := 0; i < b.N; i++ {
				epochs = count(cfg.batch, cfg.undo)
			}
			b.ReportMetric(float64(epochs), "epochs/8-write-tx")
		})
	}
}

// BenchmarkAblationUndoVsRedo isolates §5.1's observation that undo
// logging fragments transactions into more epochs than redo logging.
func BenchmarkAblationUndoVsRedo(b *testing.B) {
	run := func(undo bool) int {
		rt := persist.NewRuntime("ablation", "lib", 1, persist.Config{})
		th := rt.Thread(0)
		var f0 uint64
		if undo {
			pool := nvml.Open(rt, 1024, nvml.Options{})
			var a mem.Addr
			pool.Run(th, func(tx *nvml.Tx) error { a = tx.Alloc(256); return nil })
			f0 = rt.Dev.Stats().Fences
			pool.Run(th, func(tx *nvml.Tx) error {
				for i := 0; i < 16; i++ {
					tx.SetU64(a+mem.Addr(i*16), uint64(i))
				}
				return nil
			})
		} else {
			heap := mnemosyne.New(rt, 1024, mnemosyne.Options{})
			a := heap.PMalloc(th, 256)
			f0 = rt.Dev.Stats().Fences
			heap.Run(th, func(tx *mnemosyne.Tx) error {
				for i := 0; i < 16; i++ {
					tx.WriteU64(a+mem.Addr(i*16), uint64(i))
				}
				return nil
			})
		}
		return int(rt.Dev.Stats().Fences - f0)
	}
	b.Run("undo", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = run(true)
		}
		b.ReportMetric(float64(n), "epochs")
	})
	b.Run("redo", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			n = run(false)
		}
		b.ReportMetric(float64(n), "epochs")
	})
}

// BenchmarkAblationAllocators compares the per-allocation persistent
// metadata cost of the three allocator designs (§5.2).
func BenchmarkAblationAllocators(b *testing.B) {
	b.Run("multislab", func(b *testing.B) {
		rt := persist.NewRuntime("alloc", "lib", 1, persist.Config{})
		heap := mnemosyne.New(rt, 1<<16, mnemosyne.Options{})
		th := rt.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			heap.PMalloc(th, 48)
		}
		st := rt.Dev.Stats()
		b.ReportMetric(float64(st.Fences)/float64(b.N), "epochs/alloc")
	})
	b.Run("logged", func(b *testing.B) {
		rt := persist.NewRuntime("alloc", "lib", 1, persist.Config{})
		pool := nvml.Open(rt, 1<<16, nvml.Options{})
		th := rt.Thread(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Run(th, func(tx *nvml.Tx) error { tx.Alloc(48); return nil })
		}
		st := rt.Dev.Stats()
		b.ReportMetric(float64(st.Fences)/float64(b.N), "epochs/alloc")
	})
}

// BenchmarkPMFSBlockWrite measures the cost of the 4 KB NTI block write
// path that produces Figure 4's 64-line epochs.
func BenchmarkPMFSBlockWrite(b *testing.B) {
	rt := persist.NewRuntime("pmfs-bench", "pmfs", 1, persist.Config{})
	th := rt.Thread(0)
	fs := pmfs.Format(rt, th, pmfs.Options{Blocks: 1 << 16})
	if err := fs.Create(th, "/bench"); err != nil {
		b.Fatal(err)
	}
	block := make([]byte, pmfs.BlockSize)
	b.SetBytes(pmfs.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteAt(th, "/bench", int64(i%64)*pmfs.BlockSize, block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteRunner measures whole-suite wall clock: all eleven
// applications at benchOps through RunAllFused, serial versus two workers.
// The rows must produce identical reports (asserted by
// TestParallelSuiteMatchesSerial); only the wall clock may differ.
func BenchmarkSuiteRunner(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunAllFused(Names(), Config{Ops: benchOps, Seed: 1}, FusedConfig{}, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
