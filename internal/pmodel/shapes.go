package pmodel

import (
	"fmt"
	"strings"
)

// Shape is one builtin litmus test with its expected verdict. The suite
// pins the classic persistency-ordering shapes from the paper's workloads
// plus the two ordering bugs PR 2's crash sampler first caught — here
// rediscovered exhaustively rather than by sampling.
type Shape struct {
	Name string
	// ExpectViolated is the pinned verdict: true means the shape has at
	// least one reachable durable state failing its invariant.
	ExpectViolated bool
	// Origin names where the shape comes from (a paper idiom, a past
	// regression) for reports and docs.
	Origin string
	DSL    string
}

// Suite returns the builtin shapes in fixed order. Every DSL source here
// must parse — the suite test walks them all — so MustParse in RunSuite
// is safe by construction.
func Suite() []Shape {
	return []Shape{
		{
			Name:   "store-flush-fence-store",
			Origin: "the canonical publish idiom: flush+fence before the dependent store",
			DSL: `litmus store-flush-fence-store
model px86
thread:
  st x 1
  flush x
  fence
  st y 1
invariant y==1 -> x==1
`,
		},
		{
			Name:           "store-store",
			ExpectViolated: true,
			Origin:         "the same publish with no ordering point: eviction reorders freely",
			DSL: `litmus store-store
model px86
thread:
  st x 1
  st y 1
invariant y==1 -> x==1
`,
		},
		{
			Name:           "dirty-at-commit",
			ExpectViolated: true,
			Origin:         "pmsan's dirty-at-commit class: tx data unflushed when the commit flag publishes",
			DSL: `litmus dirty-at-commit
model px86
thread:
  tx.begin
  st x 1
  tx.end
  st c 1
  flush c
  fence
invariant c==1 -> x==1
`,
		},
		{
			Name:   "dirty-at-commit-fixed",
			Origin: "the same transaction with data flushed and fenced before commit",
			DSL: `litmus dirty-at-commit-fixed
model px86
thread:
  tx.begin
  st x 1
  flush x
  fence
  tx.end
  st c 1
  flush c
  fence
invariant c==1 -> x==1
`,
		},
		{
			Name:           "unfenced-nt-store",
			ExpectViolated: true,
			Origin:         "pmsan's unfenced-NT-store class: WC-buffered data racing the commit flag",
			DSL: `litmus unfenced-nt-store
model px86
thread:
  tx.begin
  st.nt x 1
  tx.end
  st c 1
  flush c
  fence
invariant c==1 -> x==1
`,
		},
		{
			Name:   "unfenced-nt-store-fixed",
			Origin: "the same NT store drained by a fence before commit",
			DSL: `litmus unfenced-nt-store-fixed
model px86
thread:
  tx.begin
  st.nt x 1
  fence
  tx.end
  st c 1
  flush c
  fence
invariant c==1 -> x==1
`,
		},
		{
			Name:   "cross-waw",
			Origin: "cross-thread WAW on one line, both sides fenced (paper Fig. 5 dependency)",
			DSL: `litmus cross-waw
model px86
thread:
  st x 1
  flush x
  fence
thread:
  st x 2
  flush x
  fence
invariant x <= 2
`,
		},
		{
			Name:           "mnemosyne-log-term",
			ExpectViolated: true,
			Origin:         "PR 2 bug: mnemosyne published its log terminator without flushing it",
			DSL: `litmus mnemosyne-log-term
model px86
thread:
  tx.begin
  st r 1
  flush r
  fence
  st t 1
  tx.end
  st d 2
  flush d
  fence
invariant d==2 -> t==1
`,
		},
		{
			Name:   "mnemosyne-log-term-fixed",
			Origin: "PR 2 fix: terminator flushed and fenced before the data overwrite",
			DSL: `litmus mnemosyne-log-term-fixed
model px86
thread:
  tx.begin
  st r 1
  flush r
  fence
  st t 1
  flush t
  fence
  tx.end
  st d 2
  flush d
  fence
invariant d==2 -> t==1
`,
		},
		{
			Name:           "nstore-torn-wal",
			ExpectViolated: true,
			Origin:         "PR 2 bug: nstore's WAL header and payload flushed under one fence — torn record",
			DSL: `litmus nstore-torn-wal
model px86
thread:
  st h 1
  st p 1
  flush h
  flush p
  fence
invariant h==1 -> p==1
`,
		},
		{
			Name:   "nstore-torn-wal-fixed",
			Origin: "PR 2 fix: payload persisted before the header that makes it reachable",
			DSL: `litmus nstore-torn-wal-fixed
model px86
thread:
  st p 1
  flush p
  fence
  st h 1
  flush h
  fence
invariant h==1 -> p==1
`,
		},
		{
			Name:           "epoch-waw-same",
			ExpectViolated: true,
			Origin:         "BPFS/epoch: two writes in one epoch reorder freely",
			DSL: `litmus epoch-waw-same
model epoch
thread:
  st x 1
  st x 2
  tx.end
  st c 1
invariant c==1 -> x==2
`,
		},
		{
			Name:   "epoch-waw-split",
			Origin: "the same WAW split across epochs by an ofence",
			DSL: `litmus epoch-waw-split
model epoch
thread:
  st x 1
  fence
  st x 2
  tx.end
  st c 1
invariant c==1 -> x==2
`,
		},
		{
			Name:   "hops-ofence-flag",
			Origin: "HOPS: an ofence orders the flag after the data without draining",
			DSL: `litmus hops-ofence-flag
model epoch
thread:
  st x 1
  fence
  st f 1
invariant f==1 -> x==1
`,
		},
		{
			Name:           "hops-same-epoch-flag",
			ExpectViolated: true,
			Origin:         "the same flag published in the data's own epoch",
			DSL: `litmus hops-same-epoch-flag
model epoch
thread:
  st x 1
  st f 1
invariant f==1 -> x==1
`,
		},
	}
}

// ShapeByName returns the builtin shape with the given name.
func ShapeByName(name string) (Shape, bool) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, true
		}
	}
	return Shape{}, false
}

// ShapeResult pairs a shape with its enumeration result.
type ShapeResult struct {
	Shape  Shape
	Result *Result
	// Unexpected is set when the verdict contradicts the pinned
	// expectation — a regression in either the model or the shape.
	Unexpected bool
}

// SuiteResult is one run of the builtin suite, in suite order.
type SuiteResult struct {
	Shapes []ShapeResult
}

// RunSuite checks every builtin shape.
func RunSuite() (*SuiteResult, error) {
	out := &SuiteResult{}
	for _, s := range Suite() {
		r, err := Check(MustParse(s.DSL))
		if err != nil {
			return nil, fmt.Errorf("pmodel: shape %s: %w", s.Name, err)
		}
		out.Shapes = append(out.Shapes, ShapeResult{
			Shape:      s,
			Result:     r,
			Unexpected: r.Clean() == s.ExpectViolated,
		})
	}
	return out, nil
}

// Unexpected returns the number of shapes whose verdict contradicts the
// pinned expectation.
func (s *SuiteResult) Unexpected() int {
	n := 0
	for _, sr := range s.Shapes {
		if sr.Unexpected {
			n++
		}
	}
	return n
}

// Report renders every shape report followed by a one-line summary. Like
// the individual reports, the output is byte-stable across runs.
func (s *SuiteResult) Report() string {
	var b strings.Builder
	clean, violated := 0, 0
	for _, sr := range s.Shapes {
		b.WriteString(sr.Result.Report())
		if sr.Result.Clean() {
			clean++
		} else {
			violated++
		}
		if sr.Unexpected {
			want := "CLEAN"
			if sr.Shape.ExpectViolated {
				want = "VIOLATED"
			}
			fmt.Fprintf(&b, "  UNEXPECTED verdict (suite pins %s)\n", want)
		}
	}
	fmt.Fprintf(&b, "wlitmus: shapes=%d clean=%d violated=%d unexpected=%d\n",
		len(s.Shapes), clean, violated, s.Unexpected())
	return b.String()
}
