package main

import "time"

// span is one timed call into a layer. IDs start at 1; Parent 0 marks a
// root. Times are nanoseconds since the tracer was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: do still times the call, so traced and untraced passes
// share one code path and differ only in the bookkeeping being measured.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span IDs
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs f and returns how long it took in seconds, recording a span
// under the innermost open one when tracing.
func (t *tracer) do(name string, f func()) float64 {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start).Seconds()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name})
	t.open = append(t.open, id)
	start := time.Now()
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id-1]
	s.StartNS = start.Sub(t.t0).Nanoseconds()
	s.EndNS = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start).Seconds()
}

// selfTimes returns each span name's self time in nanoseconds: its
// duration minus its direct children's, summed over spans sharing the name.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.EndNS - s.StartNS - child[s.ID]
	}
	return self
}
