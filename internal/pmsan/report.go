package pmsan

import (
	"fmt"
	"sort"
	"strings"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Violation is one aggregated finding: all hits of one class on one
// (thread, line) site.
type Violation struct {
	Class Class
	TID   uint16
	Line  mem.Line
	// Count is the number of events that hit this site.
	Count uint64
	// First is the simulated time of the first hit.
	First mem.Time
}

// Report is the deterministic result of sanitizing one trace. The
// violation slice is sorted by (class, thread, line), so two reports
// over the same event sequence are deeply equal and String renders
// byte-identically.
type Report struct {
	App    string
	Layer  string
	Events uint64
	// Fences and Flushes count the events of those kinds observed, across
	// crashes: what the trace holds, for a caller to hold against the
	// devices' own counts.
	Fences     uint64
	Flushes    uint64
	Violations []Violation
}

func newReport(meta trace.Meta, events uint64, viol map[vkey]*Violation) *Report {
	r := &Report{App: meta.App, Layer: meta.Layer, Events: events}
	r.Violations = make([]Violation, 0, len(viol))
	for _, v := range viol {
		r.Violations = append(r.Violations, *v)
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		a, b := r.Violations[i], r.Violations[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Line < b.Line
	})
	return r
}

// classTotal summarizes one class: distinct sites and total hits.
type classTotal struct {
	class Class
	sites int
	hits  uint64
}

func (r *Report) classTotals() [numClasses]classTotal {
	var out [numClasses]classTotal
	for i := range out {
		out[i].class = Class(i)
	}
	for _, v := range r.Violations {
		out[v.Class].sites++
		out[v.Class].hits += v.Count
	}
	return out
}

// Sites returns the number of distinct (thread, line) sites for class c.
func (r *Report) Sites(c Class) int { return r.classTotals()[c].sites }

// Errors returns the number of error-class sites. A suite run is clean
// when every report's Errors is zero.
func (r *Report) Errors() int {
	n := 0
	for _, v := range r.Violations {
		if v.Class.IsError() {
			n++
		}
	}
	return n
}

// maxDiagSites caps the per-class detail lines rendered for diagnostic
// classes; the cap is deterministic (violations are sorted) and the
// remainder is summarized, so reports on noisy apps stay readable.
const maxDiagSites = 8

// String renders the report. The output is byte-stable: it depends only
// on the ordered violation set, never on map order or timing.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pmsan: app=%s layer=%s events=%d errors=%d\n",
		r.App, r.Layer, r.Events, r.Errors())
	for _, c := range r.classTotals() {
		kind := "error"
		if !c.class.IsError() {
			kind = "diagnostic"
		}
		fmt.Fprintf(&b, "  %-18s %s  sites=%d hits=%d\n", c.class, kind, c.sites, c.hits)
	}
	// Detail lines: every error site, and up to maxDiagSites per
	// diagnostic class.
	diagShown := [numClasses]int{}
	diagTruncated := [numClasses]int{}
	for _, v := range r.Violations {
		if v.Class.IsError() {
			fmt.Fprintf(&b, "  E %s t%d line=0x%x count=%d first=%d\n",
				v.Class, v.TID, uint64(mem.LineAddr(v.Line)), v.Count, v.First)
			continue
		}
		if diagShown[v.Class] >= maxDiagSites {
			diagTruncated[v.Class]++
			continue
		}
		diagShown[v.Class]++
		if v.Class == FenceNoWork {
			// A no-op fence has no line; the site is just the thread.
			fmt.Fprintf(&b, "  D %s t%d count=%d first=%d\n",
				v.Class, v.TID, v.Count, v.First)
			continue
		}
		fmt.Fprintf(&b, "  D %s t%d line=0x%x count=%d first=%d\n",
			v.Class, v.TID, uint64(mem.LineAddr(v.Line)), v.Count, v.First)
	}
	for i, n := range diagTruncated {
		if n > 0 {
			fmt.Fprintf(&b, "  D %s: +%d more sites\n", Class(i), n)
		}
	}
	return b.String()
}
