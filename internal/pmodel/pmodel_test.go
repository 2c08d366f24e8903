package pmodel

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/whisper-pm/whisper/internal/trace"
)

// vals builds a durable value vector literal.
func vals(vs ...uint64) []uint64 { return vs }

func checkDSL(t *testing.T, src string) *Result {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r, err := Check(p)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return r
}

func TestPublishIdiomDurableSet(t *testing.T) {
	// The canonical publish: with flush+fence between the stores the
	// durable set is exactly the three monotone states — y can never be
	// durable ahead of x.
	r := checkDSL(t, `
thread:
  st x 1
  flush x
  fence
  st y 1
invariant y==1 -> x==1
`)
	want := [][]uint64{vals(0, 0), vals(1, 0), vals(1, 1)}
	if !reflect.DeepEqual(r.Durable, want) {
		t.Fatalf("durable set = %v, want %v", r.Durable, want)
	}
	if !r.Clean() {
		t.Fatalf("violations = %v, want clean", r.Violations)
	}
}

func TestUnorderedPublishViolates(t *testing.T) {
	r := checkDSL(t, `
thread:
  st x 1
  st y 1
invariant y==1 -> x==1
`)
	if r.Clean() {
		t.Fatal("unordered publish enumerated clean; want a violation")
	}
	if !r.Contains(vals(0, 1)) {
		t.Fatalf("durable set %v misses the eviction-reordered state x=0 y=1", r.Durable)
	}
}

func TestEpochSplitWAWDurableSet(t *testing.T) {
	// An ofence between the two x stores forces x=1 to drain before x=2;
	// the dfence at tx.end drains both before c exists.
	r := checkDSL(t, `
model epoch
thread:
  st x 1
  fence
  st x 2
  tx.end
  st c 1
invariant c==1 -> x==2
`)
	want := [][]uint64{vals(0, 0), vals(1, 0), vals(2, 0), vals(2, 1)}
	if !reflect.DeepEqual(r.Durable, want) {
		t.Fatalf("durable set = %v, want %v", r.Durable, want)
	}
}

func TestEpochSameEpochWAWReorders(t *testing.T) {
	// Within one epoch persists reorder freely: the older value can
	// land last.
	r := checkDSL(t, `
model epoch
thread:
  st x 1
  st x 2
  tx.end
  st c 1
invariant c==1 -> x==2
`)
	if !r.Contains(vals(1, 1)) {
		t.Fatalf("durable set %v misses the in-epoch reorder x=1 c=1", r.Durable)
	}
	if r.Clean() {
		t.Fatal("same-epoch WAW enumerated clean; want a violation")
	}
}

func TestFenceBlocksUntilObligationsDrain(t *testing.T) {
	// A flush obliges the line to persist before the fence: every state
	// where the post-fence store is durable has the flushed line durable
	// too, even though the model may persist y eagerly.
	r := checkDSL(t, `
thread:
  st x 1
  st y 1
  flush x
  fence
  st z 1
invariant z==1 -> x==1
`)
	if !r.Clean() {
		t.Fatalf("violations = %v; fence must order flushed x before z", r.Violations)
	}
	// y has no ordering: z=1 with y=0 must be reachable.
	if !r.Contains(vals(1, 0, 1)) {
		t.Fatalf("durable set %v misses x=1 y=0 z=1", r.Durable)
	}
}

func TestMemoAndPORPreserveDurableSets(t *testing.T) {
	// The oracle configuration (no memo, no reduction) and the default
	// must agree on the reachable durable sets for every builtin shape.
	for _, s := range Suite() {
		p := MustParse(s.DSL)
		fast, err := Check(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		slow, err := check(p, DefaultMaxStates, true)
		if err != nil {
			t.Fatalf("%s (oracle): %v", s.Name, err)
		}
		if !reflect.DeepEqual(fast.Durable, slow.Durable) {
			t.Errorf("%s: durable sets diverge\nfast: %v\nslow: %v", s.Name, fast.Durable, slow.Durable)
		}
		if !reflect.DeepEqual(fast.Violations, slow.Violations) {
			t.Errorf("%s: violation sets diverge\nfast: %v\nslow: %v", s.Name, fast.Violations, slow.Violations)
		}
		if slow.States < fast.States {
			t.Errorf("%s: oracle visited fewer states (%d) than the reduced run (%d)", s.Name, slow.States, fast.States)
		}
	}
}

func TestPORPrunes(t *testing.T) {
	// Two independent dirty lines: the reduction must cut at least one
	// descending persist run.
	r := checkDSL(t, `
thread:
  st x 1
  st y 1
`)
	if r.Prunes == 0 {
		t.Fatal("no prunes recorded on two independent dirty lines")
	}
	for _, want := range [][]uint64{vals(0, 0), vals(1, 0), vals(0, 1), vals(1, 1)} {
		if !r.Contains(want) {
			t.Errorf("durable set %v misses %v", r.Durable, want)
		}
	}
}

func TestSuiteVerdictsMatchPins(t *testing.T) {
	sr, err := RunSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sr.Shapes {
		if s.Unexpected {
			t.Errorf("%s: verdict clean=%v contradicts pinned expectation (violated=%v)",
				s.Shape.Name, s.Result.Clean(), s.Shape.ExpectViolated)
		}
	}
	if got := sr.Unexpected(); got != 0 {
		t.Fatalf("Unexpected() = %d", got)
	}
}

func TestStateBound(t *testing.T) {
	p := MustParse(`
thread:
  st x 1
  st y 1
  st z 1
`)
	if _, err := check(p, 3, false); err == nil {
		t.Fatal("a bound of 3 states did not abort the search")
	}
}

func TestExprEval(t *testing.T) {
	names := map[string]uint8{"x": 0, "y": 1}
	resolve := func(n string) (uint8, error) {
		i, ok := names[n]
		if !ok {
			return 0, fmt.Errorf("unknown var %q", n)
		}
		return i, nil
	}
	cases := []struct {
		src  string
		vals []uint64
		want bool
	}{
		{"x == 1", vals(1, 0), true},
		{"x == 1", vals(2, 0), false},
		{"x != y", vals(1, 1), false},
		{"x <= 2 && y >= 1", vals(2, 1), true},
		{"x < 1 || y > 0", vals(5, 1), true},
		{"y==1 -> x==1", vals(0, 0), true},
		{"y==1 -> x==1", vals(0, 1), false},
		{"y==1 -> x==1", vals(1, 1), true},
		{"!(x == 0)", vals(0, 0), false},
		{"true", vals(0, 0), true},
		{"false -> x == 99", vals(0, 0), true},
		{"x == 0x10", vals(16, 0), true},
		// Implication is right-associative: a -> (b -> c).
		{"x==1 -> y==1 -> x==y", vals(1, 1), true},
		{"(x==1 -> y==1) -> x==2", vals(0, 0), false},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.src, resolve)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got := e.Eval(c.vals); got != c.want {
			t.Errorf("%q on %v = %v, want %v", c.src, c.vals, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	resolve := func(string) (uint8, error) { return 0, nil }
	for _, src := range []string{"", "x ==", "x = 1", "(x == 1", "x == 1 &&", "x 1", "x == 1 y == 2", "@"} {
		if _, err := ParseExpr(src, resolve); err == nil {
			t.Errorf("%q parsed without error", src)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	// Direct construction exercises the checks the DSL cannot reach.
	for name, bad := range map[string]*Program{
		"duplicate variable": {Vars: []string{"x", "x"}},
		"empty name":         {Vars: []string{""}},
		"unknown kind":       {Vars: []string{"x"}, Threads: [][]Op{{{Kind: 99}}}},
		"var out of range":   {Vars: []string{"x"}, Threads: [][]Op{{{Kind: trace.KStore, Var: 3}}}},
		"nested tx":          {Threads: [][]Op{{{Kind: trace.KTxBegin}, {Kind: trace.KTxBegin}}}},
		"end without begin":  {Threads: [][]Op{{{Kind: trace.KTxEnd}}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// An open transaction at thread end is legal: crash-before-commit is
	// exactly what the checker explores.
	open := &Program{Vars: []string{"x"}, Threads: [][]Op{{{Kind: trace.KTxBegin}, {Kind: trace.KStore, Var: 0, Val: 1, Size: 8}}}}
	if err := open.Validate(); err != nil {
		t.Errorf("open transaction rejected: %v", err)
	}
}

// BenchmarkCheckShapes measures one full enumeration per builtin shape —
// the wall-clock column of the EXPERIMENTS litmus table.
func BenchmarkCheckShapes(b *testing.B) {
	for _, s := range Suite() {
		p := MustParse(s.DSL)
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Check(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
