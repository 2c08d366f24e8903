package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of v by linear interpolation
// between closest ranks; 0 for an empty slice. v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

// geomean returns the geometric mean of v (all positive); 0 when empty.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var l float64
	for _, x := range v {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(v)))
}

// ratePoint is what one rung of a client-count ladder measured.
type ratePoint struct {
	Clients int
	P99Us   float64
	Rejects uint64
	// Backlog is simulated makespan over the arrival span: above
	// backlogLimit the queue was still growing when arrivals stopped.
	Backlog float64
}

const (
	p99LimitUs   = 25.0
	backlogLimit = 1.05
)

// pickCapacity returns the highest client count whose rung met the p99
// limit with no rejected request and no growing backlog; 0 if none did.
func pickCapacity(points []ratePoint) int {
	best := 0
	for _, p := range points {
		if p.P99Us <= p99LimitUs && p.Rejects == 0 && p.Backlog <= backlogLimit && p.Clients > best {
			best = p.Clients
		}
	}
	return best
}
