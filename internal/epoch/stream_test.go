package epoch

import (
	"math/rand"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func TestStreamEmptyTrace(t *testing.T) {
	a := requireMatchesOracle(t, &trace.Trace{App: "x", Layer: "native", Threads: 3})
	if a.TxEpochCounts != nil {
		t.Fatal("TxEpochCounts not nil on empty trace")
	}
}

func TestStreamStructured(t *testing.T) {
	// A hand-built multi-thread trace exercising every concern at once:
	// cross-thread WAW inside and outside the window, overlapping epochs,
	// transactions, epochs of more than mem.SmallSet lines, zero-size stores,
	// volatile events, user data.
	tr := &trace.Trace{App: "structured", Layer: "nvml", Threads: 4, VolatileLoads: 100, VolatileStores: 50}
	add := func(e trace.Event) { tr.Append(e) }
	base := mem.PMBase
	// Thread 0: transaction with two epochs, singleton lines.
	add(txb(0, 10))
	add(st(0, 11, base, 8))
	add(fence(0, 12))
	add(st(0, 13, base+64, 4))
	add(fence(0, 14))
	add(txe(0, 15))
	// Thread 1: same line as thread 0, inside the window → cross WAW.
	add(st(1, 20, base, 8))
	add(fence(1, 21))
	// Thread 2: giant epoch, past the line set's scanned size.
	for i := 0; i < 2*mem.SmallSet; i++ {
		add(st(2, mem.Time(30+i), base+mem.Addr(4096+64*i), 8))
	}
	add(fence(2, mem.Time(30+2*mem.SmallSet)))
	// Thread 1 again: same giant range, far in the future → no WAW.
	add(st(1, 30+mem.Time(2*mem.SmallSet)+2*DependencyWindow, base+4096, 8))
	add(fence(1, 31+mem.Time(2*mem.SmallSet)+2*DependencyWindow))
	// Thread 3: zero-size store then fence (closes nothing), then a
	// flush-only fence, then user data and volatile traffic.
	add(st(3, 40, base+1<<20, 0))
	add(fence(3, 41))
	add(trace.Event{Kind: trace.KFlush, TID: 3, Time: 42, Addr: base, Size: 64})
	add(fence(3, 43))
	add(trace.Event{Kind: trace.KUserData, TID: 3, Time: 44, Size: 123})
	add(trace.Event{Kind: trace.KVLoad, TID: 3, Time: 45, Addr: 64})
	add(trace.Event{Kind: trace.KVStore, TID: 3, Time: 46, Addr: 64})
	add(trace.Event{Kind: trace.KLoad, TID: 3, Time: 47, Addr: base})
	// Thread 0: cross WAW against thread 1's earlier write of base, then a
	// self WAW on a line nobody else touches.
	add(st(0, 50, base, 8))
	add(fence(0, 51))
	add(st(0, 52, base+192, 8))
	add(fence(0, 53))
	add(st(0, 54, base+192, 8))
	add(fence(0, 55))

	a := requireMatchesOracle(t, tr)
	if a.CrossDepEpochs == 0 || a.SelfDepEpochs == 0 {
		t.Fatal("structured trace failed to produce both dependency kinds")
	}
	if a.SizeHist[NumSizeBuckets-1] == 0 {
		t.Fatal("structured trace failed to produce an epoch of >= 64 lines")
	}
}

// genRandomTrace builds a seeded random trace with contended lines,
// interleaved transactions, and bursty fences — the shared workload of
// the oracle equality tests.
func genRandomTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	threads := 1 + rng.Intn(8)
	tr := &trace.Trace{
		App:            "rand",
		Layer:          "native",
		Threads:        threads,
		VolatileLoads:  uint64(rng.Intn(1000)),
		VolatileStores: uint64(rng.Intn(1000)),
	}
	n := 200 + rng.Intn(5000)
	clock := mem.Time(1)
	// Small line pool forces heavy WAW contention across threads.
	pool := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		tid := uint16(rng.Intn(threads))
		clock += mem.Time(rng.Intn(int(DependencyWindow) / 10))
		e := trace.Event{TID: tid, Time: clock}
		switch r := rng.Intn(100); {
		case r < 55:
			e.Kind = trace.KStore
			if rng.Intn(4) == 0 {
				e.Kind = trace.KStoreNT
			}
			e.Addr = mem.PMBase + mem.Addr(rng.Intn(pool))*mem.LineSize + mem.Addr(rng.Intn(8))
			e.Size = uint32(rng.Intn(200)) // can cross lines; sometimes 0
		case r < 75:
			e.Kind = trace.KFence
		case r < 80:
			e.Kind = trace.KTxBegin
		case r < 85:
			e.Kind = trace.KTxEnd
		case r < 90:
			e.Kind = trace.KUserData
			e.Size = uint32(rng.Intn(64))
		case r < 94:
			e.Kind = trace.KLoad
			e.Addr = mem.PMBase
		case r < 97:
			e.Kind = trace.KVLoad
			e.Addr = 64
		default:
			e.Kind = trace.KFlush
			e.Addr = mem.PMBase
			e.Size = 64
		}
		tr.Append(e)
	}
	return tr
}

// TestStreamMatchesSerialRandom is the equivalence property test: on
// randomized traces, the analysis must equal the reference walk exactly,
// whichever kind of source feeds it.
func TestStreamMatchesSerialRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		requireMatchesOracle(t, genRandomTrace(seed))
	}
}

// TestStreamDegenerateThreads is the regression test for Meta.Threads <= 0
// (hand-built or corrupt traces): the analysis sizes nothing from the
// header count and must still match the reference walk.
func TestStreamDegenerateThreads(t *testing.T) {
	for _, threads := range []int{0, -5} {
		tr := mk(
			st(0, 1, mem.PMBase, 8),
			fence(0, 2),
			st(1, 3, mem.PMBase, 8),
			fence(1, 4),
		)
		tr.Threads = threads
		requireMatchesOracle(t, tr)
	}
}

func TestStreamManyThreadsBeyondShardCap(t *testing.T) {
	// Many interleaved TIDs: the cached thread-state pointer must switch
	// correctly on every event.
	tr := &trace.Trace{App: "wide", Layer: "native", Threads: 48}
	for i := 0; i < 48; i++ {
		tid := uint16(i)
		tr.Append(st(tid, mem.Time(10*i+1), mem.PMBase+mem.Addr(i)*mem.LineSize, 8))
		tr.Append(st(tid, mem.Time(10*i+2), mem.PMBase, 8)) // shared line
		tr.Append(fence(tid, mem.Time(10*i+3)))
	}
	requireMatchesOracle(t, tr)
}

func TestStreamTopTIDs(t *testing.T) {
	tr := mk(
		st(0xFFFF, 1, mem.PMBase, 8),
		fence(0xFFFF, 2),
		st(0xFFFE, 3, mem.PMBase, 8),
		fence(0xFFFE, 4),
	)
	tr.Threads = 2
	requireMatchesOracle(t, tr)
}

// largeEpochs builds a one-thread trace of n epochs shaped like a PMFS
// block write: a store to a descriptor line, a 4 KiB non-temporal store,
// a fence — 65 lines, one past mem.SmallSet. Each epoch writes a different
// block, so a line left behind in the thread's line set would show as a
// larger epoch and a false dependency.
func largeEpochs(n int) *trace.Trace {
	tr := &trace.Trace{App: "blocks", Layer: "pmfs", Threads: 1}
	clock := mem.Time(1)
	for i := 0; i < n; i++ {
		tr.Append(st(0, clock, mem.PMBase, 24))
		tr.Append(nt(0, clock+1, mem.PMBase+mem.Addr(4096*(1+i%8)), 4096))
		tr.Append(fence(0, clock+2))
		clock += 3
	}
	return tr
}

// TestLineSetIsEmptiedNotInherited holds runs of large epochs on one
// thread to the map-per-epoch oracle: the thread's one line set must be
// empty after every fence — after an epoch far past mem.SmallSet, after one
// whose descending second store makes the set build its index, and when
// the next epoch is a singleton again. (The analysis used to keep a spill
// map of its own and drop it after an epoch of more than 1 024 lines; that
// behaviour went with the map — LineSet.Reset drops its index at every
// fence — so nothing here tests for it.)
func TestLineSetIsEmptiedNotInherited(t *testing.T) {
	tr := largeEpochs(20)
	clock := mem.Time(1000)
	tr.Append(st(0, clock, mem.PMBase+1<<20, 32*mem.SmallSet*mem.LineSize))
	tr.Append(fence(0, clock+1))
	tr.Append(nt(0, clock+2, mem.PMBase+8192, 4096+64))
	tr.Append(st(0, clock+3, mem.PMBase+4096, 64)) // below every member: an indexed lookup
	tr.Append(fence(0, clock+4))
	tr.Append(st(0, clock+5, mem.PMBase+64, 8))
	tr.Append(fence(0, clock+6))
	a := requireMatchesOracle(t, tr)
	if a.SizeHist[NumSizeBuckets-1] != 22 || a.Singletons != 1 {
		t.Fatalf("size histogram %v, singletons %d: want 22 epochs of >= 64 lines and one singleton", a.SizeHist, a.Singletons)
	}
}

// TestLargeEpochsDoNotAllocate: the analysis of a thousand 65-line epochs
// allocates exactly what the analysis of 250 does (its tables and the
// thread's line set, grown once), nothing per epoch or per event.
func TestLargeEpochsDoNotAllocate(t *testing.T) {
	allocs := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := AnalyzeStream(trace.NewSliceSource(tr)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, four := allocs(largeEpochs(250)), allocs(largeEpochs(1000)); one != four {
		t.Fatalf("250 large epochs allocate %v times, 1000 allocate %v: the analysis allocates per epoch", one, four)
	}
}
