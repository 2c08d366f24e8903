package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Error("nil counter value not zero")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge value not zero")
	}
	var h *Histogram
	h.Observe(5)
	if h.Count() != 0 || h.Snapshot().Sum != 0 {
		t.Error("nil histogram recorded observations")
	}
	if !h.Snapshot().equalCounts(nil) {
		t.Error("nil histogram snapshot not empty")
	}
	var r *Registry
	if r.Counter("x", nil) != nil || r.Gauge("x", nil) != nil || r.Histogram("x", nil, 1) != nil {
		t.Error("nil registry returned non-nil instruments")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func (s HistogramSnapshot) equalCounts(want []uint64) bool {
	if len(want) == 0 {
		return len(s.Counts) == 0
	}
	if len(s.Counts) != len(want) {
		return false
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			return false
		}
	}
	return true
}

// TestHistogramBucketBoundaries pins the bucket edge contract: bucket i
// holds v <= bounds[i], the overflow bucket holds v > bounds[last], and a
// value exactly on a bound lands in that bound's bucket, not the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []uint64{0, 1} { // <= 1
		h.Observe(v)
	}
	for _, v := range []uint64{2, 10} { // (1, 10]
		h.Observe(v)
	}
	for _, v := range []uint64{11, 99, 100} { // (10, 100]
		h.Observe(v)
	}
	for _, v := range []uint64{101, 1 << 40} { // overflow
		h.Observe(v)
	}
	s := h.Snapshot()
	if !s.equalCounts([]uint64{2, 2, 3, 2}) {
		t.Fatalf("bucket counts = %v, want [2 2 3 2]", s.Counts)
	}
	if s.Count != 9 {
		t.Fatalf("Count = %d, want 9", s.Count)
	}
	wantSum := uint64(0 + 1 + 2 + 10 + 11 + 99 + 100 + 101 + (1 << 40))
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
}

// TestBucketMatchesSearch holds bucket, the bit-length path over
// power-of-two bounds and the binary search over any others, to a plain
// search of the bounds, on every bucket layout the tree uses: v in
// 0..2^17, every 2^k and 2^k±1, and the largest value.
func TestBucketMatchesSearch(t *testing.T) {
	// kvservice_latency_ns: 72 bounds, four a doubling from 16, each at
	// least one past the last (kvservice.latencyBuckets).
	var latency []uint64
	for i := 0; i < 72; i++ {
		b := uint64(math.Round(16 * math.Pow(2, float64(i)/4)))
		if len(latency) > 0 && b <= latency[len(latency)-1] {
			b = latency[len(latency)-1] + 1
		}
		latency = append(latency, b)
	}
	for _, tc := range []struct {
		name   string
		bounds []uint64
		pow2   bool
	}{
		{"hops_pb_occupancy", ExpBuckets(1, 2, 8), true},
		{"hops_drain_stall_cycles, scenario_cycle_ops", ExpBuckets(1, 2, 14), true},
		{"crashcheck_oracle_us", ExpBuckets(1, 2, 16), true},
		{"persist_epoch_lines", []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}, true},
		{"every power of two", ExpBuckets(1, 2, 64), true},
		{"kvservice_latency_ns", latency, false},
		{"TestHistogramBucketBoundaries", []uint64{1, 10, 100}, false},
		{"powers of two from 2", ExpBuckets(2, 2, 10), false},
	} {
		h := NewHistogram(tc.bounds...)
		if h.pow2 != tc.pow2 {
			t.Fatalf("%s: pow2 = %v, want %v", tc.name, h.pow2, tc.pow2)
		}
		values := []uint64{math.MaxUint64}
		for v := uint64(0); v <= 1<<17; v++ {
			values = append(values, v)
		}
		for k := 0; k < 64; k++ {
			values = append(values, 1<<k-1, 1<<k, 1<<k+1)
		}
		for _, v := range values {
			want := sort.Search(len(tc.bounds), func(i int) bool { return v <= tc.bounds[i] })
			if got := h.bucket(v); got != want {
				t.Fatalf("%s: bucket(%d) = %d, want %d", tc.name, v, got, want)
			}
		}
	}
}

// TestTallyMatchesObserve feeds the same values through a Tally plus Flush
// and through Observe on twin histograms — zero, every bound, every
// bound+1 and the largest value — and requires equal snapshots; nothing
// reaches the histogram before Flush, and a second Flush adds nothing.
func TestTallyMatchesObserve(t *testing.T) {
	bounds := ExpBuckets(1, 2, 14)
	values := []uint64{0, math.MaxUint64, math.MaxUint64 - 1}
	for _, b := range bounds {
		values = append(values, b, b+1, b-1)
	}
	direct, tallied := NewHistogram(bounds...), NewHistogram(bounds...)
	tally := NewTally(tallied)
	for round := 0; round < 3; round++ { // repeats make every count > 1
		for _, v := range values {
			direct.Observe(v)
			tally.Observe(v)
		}
	}
	if tallied.Count() != 0 {
		t.Fatalf("histogram holds %d observations before Flush", tallied.Count())
	}
	tally.Flush()
	want := direct.Snapshot()
	if got := tallied.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tally+Flush = %+v, Observe = %+v", got, want)
	}
	tally.Flush()
	if got := tallied.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("second Flush changed the histogram: %+v, want %+v", got, want)
	}
	// The tally keeps working after a Flush.
	direct.Observe(7)
	tally.Observe(7)
	tally.Flush()
	if got, want := tallied.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a second round: Tally+Flush = %+v, Observe = %+v", got, want)
	}

	// A tally over no histogram is a no-op.
	none := NewTally(nil)
	none.Observe(3)
	none.Flush()
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]uint64{{}, {5, 5}, {10, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 5)
	want := []uint64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentIncrements hammers one counter, one gauge and one histogram
// from many goroutines; under -race this doubles as the no-data-race proof
// the parallel suite runner relies on.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines = 8
	const perG = 10000
	reg := NewRegistry()
	c := reg.Counter("hits", Labels{"app": "test"})
	g := reg.Gauge("depth", nil)
	h := reg.Histogram("lat", nil, 1, 8, 64)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(j % 100))
				// Lookups race against updates too.
				if j%1000 == 0 {
					reg.Counter("hits", Labels{"app": "test"}).Add(0)
					reg.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Key("m", Labels{"b": "2", "a": "1"})
	b := Key("m", Labels{"a": "1", "b": "2"})
	if a != b || a != "m{a=1,b=2}" {
		t.Fatalf("keys not canonical: %q vs %q", a, b)
	}
	if Key("m", nil) != "m" {
		t.Fatalf("unlabelled key mangled: %q", Key("m", nil))
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x", Labels{"a": "1"})
	c2 := reg.Counter("x", Labels{"a": "1"})
	if c1 != c2 {
		t.Error("same (name, labels) returned distinct counters")
	}
	h1 := reg.Histogram("h", nil, 1, 2)
	h2 := reg.Histogram("h", nil, 5, 50) // bounds ignored on reuse
	if h1 != h2 {
		t.Error("same histogram key returned distinct histograms")
	}
}

// TestSnapshotGolden pins the exact JSON serialization of a registry
// snapshot against a golden file; run with -update to regenerate.
func TestSnapshotGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pmem_flushes_total", Labels{"app": "echo"}).Add(128)
	reg.Counter("pmem_fences_total", Labels{"app": "echo"}).Add(64)
	reg.Gauge("suite_wall_us", Labels{"app": "echo"}).Set(1500)
	h := reg.Histogram("persist_epoch_lines", Labels{"app": "echo"}, 1, 2, 4)
	h.Observe(1)
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)

	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("snapshot JSON drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() []byte {
		reg := NewRegistry()
		for _, app := range []string{"zebra", "alpha", "mid"} {
			reg.Counter("c", Labels{"app": app}).Add(7)
			reg.Histogram("h", Labels{"app": app}, 1, 2).Observe(1)
		}
		var buf bytes.Buffer
		if err := reg.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := build()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(build(), first) {
			t.Fatalf("snapshot JSON differed on rebuild %d", i)
		}
	}
}

// BenchmarkDisabledCounterInc proves the disabled path (nil instrument)
// stays within the <=2 ns/op budget the always-on layer is sized for.
func BenchmarkDisabledCounterInc(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterInc is the enabled-path cost: one uncontended atomic add.
func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkHistogramObserve is the enabled-path histogram cost.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(ExpBuckets(1, 2, 16)...)
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i & 1023))
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 100 observations, one per value 1..100, over decade buckets: the
	// cumulative counts are exact, so interpolated quantiles are too.
	uniform := func() *Histogram {
		h := NewHistogram(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
		for v := uint64(1); v <= 100; v++ {
			h.Observe(v)
		}
		return h
	}
	skewed := func() *Histogram {
		h := NewHistogram(10, 100, 1000)
		for i := 0; i < 99; i++ {
			h.Observe(5) // first bucket
		}
		h.Observe(500) // third bucket
		return h
	}
	overflow := func() *Histogram {
		h := NewHistogram(10, 100)
		for i := 0; i < 10; i++ {
			h.Observe(1 << 20) // everything in the overflow bucket
		}
		return h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64
	}{
		{"nil", nil, 0.5, 0},
		{"empty", NewHistogram(1, 2), 0.5, 0},
		{"uniform-p50", uniform(), 0.50, 50},
		{"uniform-p99", uniform(), 0.99, 99},
		{"uniform-p999", uniform(), 0.999, 99.9},
		{"uniform-p0", uniform(), 0, 0},
		{"uniform-p1", uniform(), 1, 100},
		{"clamp-low", uniform(), -3, 0},
		{"clamp-high", uniform(), 7, 100},
		{"skewed-p50", skewed(), 0.50, 10.0 * 50 / 99},
		// Rank 100 of 100 lands in the 100..1000 bucket holding the one
		// outlier; interpolation reports the bucket's upper bound.
		{"skewed-p1", skewed(), 1, 1000},
		// Overflow-bucket ranks clamp to the last finite bound — the
		// documented underestimate.
		{"overflow", overflow(), 0.5, 100},
	}
	for _, c := range cases {
		got := c.h.Quantile(c.q)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}
