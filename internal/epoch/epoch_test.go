package epoch

import (
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

const pm = mem.PMBase

// Analyze runs AnalyzeStream over a retained trace, which cannot fail.
func Analyze(tr *trace.Trace) *Analysis {
	a, err := AnalyzeStream(trace.NewSliceSource(tr))
	if err != nil {
		panic(err)
	}
	return a
}

// mk builds a trace from a compact event list.
func mk(events ...trace.Event) *trace.Trace {
	tr := &trace.Trace{App: "synthetic", Layer: "native", Threads: 2}
	for _, e := range events {
		tr.Append(e)
	}
	return tr
}

func st(tid uint16, at mem.Time, addr mem.Addr, size uint32) trace.Event {
	return trace.Event{Kind: trace.KStore, TID: tid, Time: at, Addr: addr, Size: size}
}

func nt(tid uint16, at mem.Time, addr mem.Addr, size uint32) trace.Event {
	return trace.Event{Kind: trace.KStoreNT, TID: tid, Time: at, Addr: addr, Size: size}
}

func fence(tid uint16, at mem.Time) trace.Event {
	return trace.Event{Kind: trace.KFence, TID: tid, Time: at}
}

func txb(tid uint16, at mem.Time) trace.Event {
	return trace.Event{Kind: trace.KTxBegin, TID: tid, Time: at}
}

func txe(tid uint16, at mem.Time) trace.Event {
	return trace.Event{Kind: trace.KTxEnd, TID: tid, Time: at}
}

func TestEpochSegmentation(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 8),
		st(0, 2, pm+64, 8), // two lines
		fence(0, 3),
		st(0, 4, pm+128, 8), // one line
		fence(0, 5),
		fence(0, 6), // empty: no epoch
	))
	if a.TotalEpochs != 2 {
		t.Fatalf("TotalEpochs = %d, want 2", a.TotalEpochs)
	}
	if a.SizeHist[0] != 1 || a.SizeHist[1] != 1 {
		t.Fatalf("SizeHist = %v", a.SizeHist)
	}
}

func TestSizeBuckets(t *testing.T) {
	cases := []struct {
		lines  int
		bucket int
	}{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {63, 5}, {64, 6}, {100, 6}}
	for _, c := range cases {
		if got := sizeBucket(c.lines); got != c.bucket {
			t.Errorf("sizeBucket(%d) = %d, want %d", c.lines, got, c.bucket)
		}
	}
}

func TestMultiLineStoreCountsLines(t *testing.T) {
	// A 4096-byte NT store spans 64 lines -> bucket ">=64" (PMFS block).
	a := Analyze(mk(nt(0, 1, pm, 4096), fence(0, 2)))
	if a.SizeHist[6] != 1 {
		t.Fatalf("SizeHist = %v, want one >=64 epoch", a.SizeHist)
	}
}

func TestSingletonTracking(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 8), fence(0, 2), // singleton, 8 bytes (<10)
		st(0, 3, pm, 32), fence(0, 4), // singleton, 32 bytes
		st(0, 5, pm, 8), st(0, 6, pm+64, 8), fence(0, 7), // two lines
	))
	if a.Singletons != 2 {
		t.Fatalf("Singletons = %d", a.Singletons)
	}
	if a.SmallSingletons != 1 {
		t.Fatalf("SmallSingletons = %d", a.SmallSingletons)
	}
	if got := a.SmallSingletonFraction(); got != 0.5 {
		t.Fatalf("SmallSingletonFraction = %v", got)
	}
}

func TestTxEpochCounts(t *testing.T) {
	a := Analyze(mk(
		txb(0, 1),
		st(0, 2, pm, 8), fence(0, 3),
		st(0, 4, pm, 8), fence(0, 5),
		st(0, 6, pm, 8), fence(0, 7),
		txe(0, 8),
		txb(0, 9),
		st(0, 10, pm, 8), fence(0, 11),
		txe(0, 12),
	))
	if len(a.TxEpochCounts) != 2 {
		t.Fatalf("TxEpochCounts = %v", a.TxEpochCounts)
	}
	if a.TxEpochCounts[0] != 3 || a.TxEpochCounts[1] != 1 {
		t.Fatalf("TxEpochCounts = %v", a.TxEpochCounts)
	}
	if a.MedianTxEpochs() != 3 {
		t.Fatalf("median = %d", a.MedianTxEpochs())
	}
}

func TestSelfDependencyWithinWindow(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 8), fence(0, 2),
		st(0, 3, pm, 8), fence(0, 4), // same thread, same line, 1 ns apart
	))
	if a.SelfDepEpochs != 1 || a.CrossDepEpochs != 0 {
		t.Fatalf("deps = self %d cross %d", a.SelfDepEpochs, a.CrossDepEpochs)
	}
}

func TestCrossDependencyWithinWindow(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 8), fence(0, 2),
		st(1, 3, pm, 8), fence(1, 4), // other thread, same line
	))
	if a.CrossDepEpochs != 1 || a.SelfDepEpochs != 0 {
		t.Fatalf("deps = self %d cross %d", a.SelfDepEpochs, a.CrossDepEpochs)
	}
}

func TestDependencyOutsideWindowIgnored(t *testing.T) {
	far := mem.Time(DependencyWindow) + 1000
	a := Analyze(mk(
		st(0, 1, pm, 8), fence(0, 2),
		st(0, 2+far, pm, 8), fence(0, 3+far),
	))
	if a.SelfDepEpochs != 0 {
		t.Fatalf("dependency counted outside 50 µs window")
	}
}

func TestDifferentLinesNoDependency(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 8), fence(0, 2),
		st(0, 3, pm+64, 8), fence(0, 4),
	))
	if a.SelfDepEpochs != 0 || a.CrossDepEpochs != 0 {
		t.Fatal("dependency invented across distinct lines")
	}
}

func TestStoreMixAndNTI(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 10),
		nt(0, 2, pm+64, 30),
		fence(0, 3),
	))
	if a.CacheableStores != 1 || a.NTStores != 1 {
		t.Fatalf("store counts wrong: %+v", a)
	}
	if got := a.NTIFraction(); got != 0.75 {
		t.Fatalf("NTIFraction = %v, want 0.75", got)
	}
}

func TestAmplification(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 100),
		trace.Event{Kind: trace.KUserData, TID: 0, Time: 2, Size: 25},
		fence(0, 3),
	))
	// 100 total PM bytes, 25 user bytes -> 75 extra -> 3.0 (i.e. 300%).
	if got := a.Amplification(); got != 3.0 {
		t.Fatalf("Amplification = %v, want 3.0", got)
	}
}

func TestEpochsPerSecond(t *testing.T) {
	// 2 epochs over 1 ms of simulated time -> 2000/s.
	a := Analyze(mk(
		st(0, 0, pm, 8), fence(0, 1),
		st(0, 2, pm, 8), fence(0, mem.Millisecond),
	))
	got := a.EpochsPerSecond()
	if got < 1999 || got > 2001 {
		t.Fatalf("EpochsPerSecond = %v, want ~2000", got)
	}
}

func TestPMFraction(t *testing.T) {
	tr := mk(st(0, 1, pm, 8), fence(0, 2))
	tr.VolatileLoads = 70
	tr.VolatileStores = 29
	a := Analyze(tr)
	// 1 PM access / 100 total.
	if got := a.PMFraction(); got != 0.01 {
		t.Fatalf("PMFraction = %v, want 0.01", got)
	}
}

func TestSizeDistributionSumsToOne(t *testing.T) {
	f := func(sizes []uint16) bool {
		var evs []trace.Event
		at := mem.Time(0)
		for _, s := range sizes {
			n := int(s%200) + 1
			evs = append(evs, st(0, at, pm, uint32(n)))
			at++
			evs = append(evs, fence(0, at))
			at++
		}
		a := Analyze(mk(evs...))
		if len(sizes) == 0 {
			return a.TotalEpochs == 0
		}
		sum := 0.0
		for _, v := range a.SizeDistribution() {
			sum += v
		}
		return sum > 0.999 && sum < 1.001 && a.TotalEpochs == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushesIgnored(t *testing.T) {
	// §5.1: "For this analysis, we ignore cache flush operations."
	a := Analyze(mk(
		st(0, 1, pm, 8),
		trace.Event{Kind: trace.KFlush, TID: 0, Time: 2, Addr: pm + 640, Size: 64},
		fence(0, 3),
	))
	if a.SizeHist[0] != 1 {
		t.Fatalf("flush polluted the epoch: %v", a.SizeHist)
	}
}

func TestInterleavedThreadsIndependentEpochs(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 8),
		st(1, 2, pm+128, 8),
		fence(1, 3), // thread 1's epoch closes first
		st(0, 4, pm+64, 8),
		fence(0, 5), // thread 0's epoch has 2 lines
	))
	if a.TotalEpochs != 2 {
		t.Fatalf("TotalEpochs = %d", a.TotalEpochs)
	}
	if a.SizeHist[0] != 1 || a.SizeHist[1] != 1 {
		t.Fatalf("SizeHist = %v", a.SizeHist)
	}
}

// TestFlushOnlyEpochDoesNotPanic drives the dfence idiom — a fence whose
// only preceding PM activity is cache flushes — through the analysis. The
// fence orders earlier epochs but writes no lines, so it must close no
// epoch (and in particular must not reach sizeBucket with zero lines,
// which would index bucket -1).
func TestFlushOnlyEpochDoesNotPanic(t *testing.T) {
	a := Analyze(mk(
		trace.Event{Kind: trace.KFlush, TID: 0, Time: 1, Addr: pm, Size: 64},
		trace.Event{Kind: trace.KFlush, TID: 0, Time: 2, Addr: pm + 64, Size: 64},
		fence(0, 3),
	))
	if a.TotalEpochs != 0 {
		t.Fatalf("flush-then-fence counted as an epoch: %d", a.TotalEpochs)
	}
}

// TestZeroByteStoreEpochSkipped covers the other zero-line path: a store
// of size zero touches no lines but used to mark the open epoch dirty.
func TestZeroByteStoreEpochSkipped(t *testing.T) {
	a := Analyze(mk(
		st(0, 1, pm, 0),
		fence(0, 2),
		st(0, 10, pm, 8), // a real epoch afterwards still counts
		fence(0, 11),
	))
	if a.TotalEpochs != 1 {
		t.Fatalf("TotalEpochs = %d, want 1", a.TotalEpochs)
	}
	if a.SizeHist[0] != 1 {
		t.Fatalf("SizeHist = %v", a.SizeHist)
	}
}

func TestSizeBucketDefensive(t *testing.T) {
	for _, lines := range []int{-5, 0} {
		if got := sizeBucket(lines); got != 0 {
			t.Errorf("sizeBucket(%d) = %d, want clamp to 0", lines, got)
		}
	}
}

func TestMedianEmptyIsZero(t *testing.T) {
	a := Analyze(mk())
	if a.MedianTxEpochs() != 0 || a.EpochsPerSecond() != 0 || a.PMFraction() != 0 {
		t.Fatal("empty-trace accessors should be zero")
	}
}
