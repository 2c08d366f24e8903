// Package obs is the observability layer of the simulated PM stack: atomic
// counters, gauges and fixed-bucket histograms, collected in a labelled
// registry that snapshots to JSON.
//
// The design goals, in order:
//
//  1. Zero dependencies — standard library only, like the rest of the repo.
//  2. Race-free by construction — every instrument is a set of atomics, so
//     the parallel suite runner and a concurrent scraper (expvar/pprof)
//     never need a lock on the hot path. A Tally is one goroutine's private
//     accumulator, not an instrument: it reaches its Histogram only through
//     Flush's atomic adds.
//  3. Free when absent — all instrument methods are nil-receiver-safe, so
//     components hold plain pointers and a disabled metric costs one
//     predictable branch (see BenchmarkDisabledCounterInc: well under the
//     2 ns/op budget).
//  4. Deterministic output — snapshot keys are canonical ("name{k=v,...}"
//     with sorted label keys) and encoding/json sorts map keys, so two
//     snapshots of equal state are byte-identical.
//
// Instruments never touch the simulated clock, the trace, or the device,
// so enabling metrics cannot perturb a run: suite output is byte-identical
// with and without them.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op on every method.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (zero for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge is a no-op on every method.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the value by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (zero for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of uint64 observations. Bucket i
// counts observations v with v <= Bounds[i] (and v > Bounds[i-1]); one
// implicit overflow bucket counts everything above the last bound. All
// updates are atomic; a nil *Histogram is a no-op.
type Histogram struct {
	bounds []uint64
	pow2   bool            // bounds are 1, 2, 4, …: a bucket is a bit length
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	count  atomic.Uint64
	sum    atomic.Uint64
}

// NewHistogram creates a histogram over the given strictly ascending upper
// bounds. It panics on unsorted or empty bounds — bucket layouts are
// compile-time decisions, not data.
func NewHistogram(bounds ...uint64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	pow2 := true
	for i, v := range b {
		pow2 = pow2 && v == 1<<i
	}
	return &Histogram{bounds: b, pow2: pow2, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// bucket returns the index of the bucket v falls in: the first bound at or
// above v, or len(bounds) for the overflow bucket. Over power-of-two bounds
// that is the bit length of v-1, found without a search.
func (h *Histogram) bucket(v uint64) int {
	if h.pow2 {
		if v == 0 {
			return 0
		}
		return min(bits.Len64(v-1), len(h.bounds))
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Tally accumulates observations for one Histogram with plain arithmetic,
// for a single goroutine's hot loop: Observe costs a bucket lookup and
// three adds, no atomics, and Flush adds the accumulated counts to the
// histogram in one go. A Tally over a nil histogram is a no-op. The zero
// Tally is one over nil.
type Tally struct {
	h      *Histogram
	counts []uint64
	count  uint64
	sum    uint64
}

// NewTally returns a tally that flushes into h.
func NewTally(h *Histogram) Tally {
	if h == nil {
		return Tally{}
	}
	return Tally{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one observation in the tally, bucketed exactly as
// Histogram.Observe would.
func (t *Tally) Observe(v uint64) {
	if t.h == nil {
		return
	}
	t.counts[t.h.bucket(v)]++
	t.count++
	t.sum += v
}

// Flush adds what the tally holds to its histogram and empties the tally,
// so a second Flush adds nothing.
func (t *Tally) Flush() {
	if t.h == nil || t.count == 0 {
		return
	}
	for i, c := range t.counts {
		if c != 0 {
			t.h.counts[i].Add(c)
			t.counts[i] = 0
		}
	}
	t.h.count.Add(t.count)
	t.h.sum.Add(t.sum)
	t.count, t.sum = 0, 0
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns an estimate of the q-quantile of the observed values
// (q is clamped to [0, 1]; a nil or empty histogram returns 0).
//
// The estimate interpolates linearly inside the bucket holding the
// target rank, between the bucket's lower and upper bounds (the first
// bucket interpolates up from 0). Two biases follow from the fixed
// buckets and are deliberate, matching Prometheus histogram_quantile:
// the true quantile is only known to bucket resolution, and ranks that
// land in the implicit overflow bucket report the last finite bound —
// an underestimate. Callers that need tail quantiles must size their
// top bound above the largest latency they care to distinguish.
//
// Concurrent observations may land between bucket reads; like Snapshot,
// the result is a near-point-in-time view.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The explicit conversion rounds the product, so no architecture
	// fuses it into rank-cum below (arm64 would, with FNMSUBD): the
	// quantile is the same float on every machine.
	rank := float64(q * float64(total))
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		last := h.bounds[len(h.bounds)-1]
		if i == len(h.bounds) { // overflow bucket: clamp to the last bound
			return float64(last)
		}
		lo := 0.0
		if i > 0 {
			lo = float64(h.bounds[i-1])
		}
		hi := float64(h.bounds[i])
		return lo + (hi-lo)*(rank-cum)/c
	}
	// Racing resets aside, the loop always terminates above; fall back to
	// the largest representable value.
	return float64(h.bounds[len(h.bounds)-1])
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Concurrent observations
// may land between bucket reads; each bucket value is itself consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBuckets returns n strictly ascending bounds starting at start and
// multiplying by factor: convenient for latency/stall-cycle histograms.
func ExpBuckets(start, factor uint64, n int) []uint64 {
	if start == 0 || factor < 2 || n <= 0 {
		panic("obs: ExpBuckets needs start>0, factor>=2, n>0")
	}
	out := make([]uint64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}
