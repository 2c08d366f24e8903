package whisper

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// genPipelineTrace synthesizes an n-event trace with the suite's traffic
// shape — per-thread bursts of small stores closed by fences, transaction
// markers, occasional flushes and loads — across the given thread count.
// Deterministic per (n, threads).
func genPipelineTrace(n, threads int) *trace.Trace {
	rng := rand.New(rand.NewSource(int64(n)*31 + int64(threads)))
	tr := &trace.Trace{App: "pipeline", Layer: "native", Threads: threads}
	clock := mem.Time(1)
	for tr.Len() < n {
		tid := uint16(rng.Intn(threads))
		clock += mem.Time(rng.Intn(300))
		base := mem.PMBase + mem.Addr(rng.Intn(1<<14))*mem.LineSize
		tr.Append(trace.Event{Kind: trace.KTxBegin, TID: tid, Time: clock})
		epochs := 1 + rng.Intn(3)
		for e := 0; e < epochs; e++ {
			stores := 1 + rng.Intn(4)
			for s := 0; s < stores; s++ {
				clock += mem.Time(10 + rng.Intn(50))
				tr.Append(trace.Event{
					Kind: trace.KStore, TID: tid, Time: clock,
					Addr: base + mem.Addr(rng.Intn(512)), Size: uint32(8 + rng.Intn(56)),
				})
			}
			clock += mem.Time(5)
			tr.Append(trace.Event{Kind: trace.KFlush, TID: tid, Time: clock, Addr: base, Size: 64})
			clock += mem.Time(5)
			tr.Append(trace.Event{Kind: trace.KFence, TID: tid, Time: clock})
		}
		clock += mem.Time(5)
		tr.Append(trace.Event{Kind: trace.KTxEnd, TID: tid, Time: clock})
	}
	cut := &trace.Trace{App: tr.App, Layer: tr.Layer, Threads: threads}
	for _, e := range tr.Events()[:n] {
		cut.Append(e)
	}
	return cut
}

// BenchmarkPipelineAnalyze is the epoch analysis on a synthetic trace of
// 1, 4 and 8 threads, fed from memory. The stream/ prefix keeps the names
// comparable with BENCH_trace_pipeline.json, whose materialized/ rows are
// the last measurement of the map-per-epoch walk this analysis replaced
// (now the test oracle in internal/epoch/reference_test.go).
func BenchmarkPipelineAnalyze(b *testing.B) {
	for _, threads := range []int{1, 4, 8} {
		tr := genPipelineTrace(1_000_000, threads)
		b.Run(fmt.Sprintf("stream/threads%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := epoch.AnalyzeStream(trace.NewSliceSource(tr)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// BenchmarkHOPSReplay is the Figure 10 replay — SimulateHOPS, all five
// models in one pass — over a recorded ycsb run: Mevents/s is trace events
// per second (each event is replayed five times), allocs/op the whole
// pass's allocations, which do not grow with the trace.
func BenchmarkHOPSReplay(b *testing.B) {
	rep, err := Run("ycsb", Config{Ops: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultHOPSConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if norm := SimulateHOPS(rep.Trace, cfg); len(norm) != len(HOPSModels()) {
			b.Fatalf("%d models replayed", len(norm))
		}
	}
	b.ReportMetric(float64(rep.Trace.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkDecodeThenReplay is bench's analyze workload's HOPS leg in
// process: DecodeTrace of a saved ycsb run at that workload's size (2 000
// ops, about 1.1 M events), then SimulateHOPS of the decoded trace.
// Mevents/s is trace events per second through both, allocs/op the leg's
// allocations.
func BenchmarkDecodeThenReplay(b *testing.B) {
	rep, err := Run("ycsb", Config{Ops: 2000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := rep.Trace.EncodeV2(&file); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultHOPSConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, err := DecodeTrace(bytes.NewReader(file.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if norm := SimulateHOPS(decoded, cfg); len(norm) != len(HOPSModels()) {
			b.Fatalf("%d models replayed", len(norm))
		}
	}
	b.ReportMetric(float64(rep.Trace.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkCacheReplay is the Table 3 hierarchy — cachesim.ReplaySource
// on a fresh DefaultConfig hierarchy, the fused pass's cache tap — over a
// recorded ycsb run: Mevents/s is trace events per second, allocs/op the
// whole pass's allocations (the caches' sets and the line directory's
// growth, nothing per fill or per event).
func BenchmarkCacheReplay(b *testing.B) {
	rep, err := Run("ycsb", Config{Ops: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), trace.NewSliceSource(rep.Trace.tr))
		if err != nil {
			b.Fatal(err)
		}
		if memAccesses(CacheStats(st)) == 0 {
			b.Fatal("no access reached memory")
		}
	}
	b.ReportMetric(float64(rep.Trace.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkSanitizeReplay is the durability-ordering sanitizer —
// pmsan.Run, the fused pass's sanitizer tap — over a recorded ycsb run
// and a recorded nfs run, whose 4 KiB writes touch many more lines per
// event: Mevents/s is trace events per second, allocs/op the whole pass's
// allocations (line-state pages and slices, nothing per line).
func BenchmarkSanitizeReplay(b *testing.B) {
	for _, app := range []struct {
		name string
		ops  int
	}{{"ycsb", 1000}, {"nfs", 400}} {
		rep, err := Run(app.name, Config{Ops: app.ops, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(app.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := pmsan.Run(trace.NewSliceSource(rep.Trace.tr))
				if err != nil {
					b.Fatal(err)
				}
				if r.Errors() != 0 {
					b.Fatalf("%d sanitizer errors", r.Errors())
				}
			}
			b.ReportMetric(float64(rep.Trace.Events())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}

// BenchmarkTraceCodecV2 measures the chunked codec on a synthetic trace:
// encoding, materializing decode, and chunked reading.
func BenchmarkTraceCodecV2(b *testing.B) {
	tr := genPipelineTrace(1_000_000, 8)
	var v2 bytes.Buffer
	if err := trace.EncodeV2(&v2, trace.NewSliceSource(tr)); err != nil {
		b.Fatal(err)
	}
	b.Run("encode/v2", func(b *testing.B) {
		b.SetBytes(int64(v2.Len()))
		for i := 0; i < b.N; i++ {
			if err := trace.EncodeV2(io.Discard, trace.NewSliceSource(tr)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/v2", func(b *testing.B) {
		b.SetBytes(int64(v2.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := trace.Decode(bytes.NewReader(v2.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Streaming read: Reader iteration without materializing the slice.
	b.Run("read/v2", func(b *testing.B) {
		b.SetBytes(int64(v2.Len()))
		for i := 0; i < b.N; i++ {
			rd, err := trace.NewReader(bytes.NewReader(v2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := rd.NextChunk(); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// genSource emits a deterministic synthetic event stream without ever
// materializing it — the "10× trace" for the bounded-memory check.
type genSource struct {
	n       int
	i       int
	threads int
	clock   mem.Time
	rng     *rand.Rand
}

func (g *genSource) Meta() trace.Meta {
	return trace.Meta{App: "gen", Layer: "native", Threads: g.threads}
}

// NextChunk generates the next block-sized batch into a fresh slice, as
// the contract requires of a source.
func (g *genSource) NextChunk() ([]trace.Event, error) {
	if g.i >= g.n {
		return nil, io.EOF
	}
	chunk := make([]trace.Event, 0, min(g.n-g.i, trace.DefaultBlockEvents))
	for len(chunk) < cap(chunk) {
		g.i++
		g.clock += mem.Time(10 + g.rng.Intn(100))
		e := trace.Event{Kind: trace.KFence, TID: uint16(g.i % g.threads), Time: g.clock}
		if g.i%5 != 0 {
			e.Kind, e.Size = trace.KStore, 8
			e.Addr = mem.PMBase + mem.Addr(g.rng.Intn(1<<16))*mem.LineSize
		}
		chunk = append(chunk, e)
	}
	return chunk, nil
}

func (g *genSource) Volatile() (uint64, uint64) { return 0, 0 }

// TestStreamBoundedMemory drives a trace ~10× the size of the largest
// suite trace through the fused pass — the epoch analysis with the
// sanitizer and the cache simulation as taps — and asserts the live heap
// stays far below what materializing the events would need. 4M events
// would occupy ≥96 MB as a []trace.Event, live for the whole analysis;
// the pipeline holds only chunks in flight plus each consumer's line
// tables, which grow with the 64 Ki-line footprint and not with the
// trace. GC is tightened and the heap sampled while the run is in
// progress, so a materializing implementation cannot hide the slice as
// collectable garbage.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory ceiling test is slow")
	}
	const events = 4_000_000
	old := debug.SetGCPercent(10)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()

	rep, err := fused(&genSource{n: events, threads: 8, rng: rand.New(rand.NewSource(7))}, FusedConfig{Sanitize: true, Cache: true}, nil)
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Report
	if a.TotalEpochs == 0 || rep.San == nil || memAccesses(*rep.Cache) == 0 {
		t.Fatal("generated stream produced no epochs, no sanitizer report or no memory traffic")
	}

	// Two cycles so sync.Pool victim caches fully clear before the
	// retained-heap reading.
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	peakGrow := int64(peak.Load()) - int64(before.HeapAlloc)
	t.Logf("analyzed %d events, %d epochs; peak live heap +%d KB, retained +%d KB (materialized slice alone would be %d KB)",
		events, a.TotalEpochs, peakGrow/1024, retained/1024, events*24/1024)
	// The in-flight window is channel depths plus one watermark interval
	// of closed epochs — allow a generous fraction of the materialized
	// cost, but well under the full event slice.
	const limit = int64(events * 24 / 2)
	if peakGrow > limit {
		t.Errorf("peak live heap grew %d bytes, want < %d (streaming path is materializing?)", peakGrow, limit)
	}
	if retained > limit/4 {
		t.Errorf("retained heap grew %d bytes after GC, want < %d (pipeline is leaking?)", retained, limit/4)
	}
}
