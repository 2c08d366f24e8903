package pmodel

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/pmsan"
)

// TestSanitizerFindingsHaveWitnessStates is the differential contract
// between the two bug-finding tools: when pmsan flags an executed litmus
// trace with a dirty-at-commit or unfenced-NT-store error, the
// enumeration must exhibit at least one concrete violating durable state
// — the sanitizer's static claim always has a semantic witness. And on
// the fixed variants both tools agree the shape is clean.
func TestSanitizerFindingsHaveWitnessStates(t *testing.T) {
	for _, s := range Suite() {
		p := MustParse(s.DSL)
		if p.Model != ModelPx86 {
			continue
		}
		ex, err := execute(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		rep := sanitize(ex.Trace)
		flagged := rep.Sites(pmsan.DirtyAtCommit) > 0 || rep.Sites(pmsan.UnfencedNTStore) > 0
		r, err := Check(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if flagged && r.Clean() {
			t.Errorf("%s: pmsan flags the trace (dirty-at-commit=%d unfenced-nt=%d) but every enumerated durable state satisfies the invariant",
				s.Name, rep.Sites(pmsan.DirtyAtCommit), rep.Sites(pmsan.UnfencedNTStore))
		}
		if s.Name == "dirty-at-commit" && rep.Sites(pmsan.DirtyAtCommit) == 0 {
			t.Error("dirty-at-commit shape not flagged by pmsan")
		}
		if s.Name == "unfenced-nt-store" && rep.Sites(pmsan.UnfencedNTStore) == 0 {
			t.Error("unfenced-nt-store shape not flagged by pmsan")
		}
		if s.Name == "dirty-at-commit-fixed" || s.Name == "unfenced-nt-store-fixed" {
			if rep.Errors() != 0 {
				t.Errorf("%s: pmsan still reports %d errors:\n%s", s.Name, rep.Errors(), rep)
			}
			if !r.Clean() {
				t.Errorf("%s: enumeration still violates: %v", s.Name, r.Violations)
			}
		}
	}
}

// TestSanitizerSitesAlignWithWitness digs one level deeper on the
// mnemosyne shape: the line pmsan blames (the unflushed terminator) is
// exactly the variable that is stale in the enumerated witness state.
func TestSanitizerSitesAlignWithWitness(t *testing.T) {
	s, _ := ShapeByName("mnemosyne-log-term")
	p := MustParse(s.DSL)
	ex, err := execute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := sanitize(ex.Trace)
	dirty := byClass(rep, pmsan.DirtyAtCommit)
	if len(dirty) != 1 {
		t.Fatalf("dirty-at-commit sites = %d, want 1:\n%s", len(dirty), rep)
	}
	// Variable index of the flagged line: addresses are line-aligned in
	// Map order, so match against the executed run's address table.
	blamed := -1
	for i, a := range ex.Addrs {
		if dirty[0].Line == mem.LineOf(a) {
			blamed = i
		}
	}
	if blamed < 0 || p.Vars[blamed] != "t" {
		t.Fatalf("pmsan blames line %#x (var %d), want the terminator t", dirty[0].Line, blamed)
	}
	r, err := Check(p)
	if err != nil {
		t.Fatal(err)
	}
	// In the witness state the committed data is durable while the
	// blamed variable kept its initial value.
	found := false
	for _, v := range r.Violations {
		if v[blamed] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no violation leaves %s stale: %v", p.Vars[blamed], r.Violations)
	}
}

// TestSuiteReportDeterministic pins the byte-stability contract the
// golden files rely on: twenty full suite runs render identically.
func TestSuiteReportDeterministic(t *testing.T) {
	first := ""
	for i := 0; i < 20; i++ {
		sr, err := RunSuite()
		if err != nil {
			t.Fatal(err)
		}
		rep := sr.Report()
		if i == 0 {
			first = rep
			continue
		}
		if rep != first {
			t.Fatalf("run %d diverges from run 0:\n%s\n--- vs ---\n%s", i, rep, first)
		}
	}
}

// byClass returns the violations rep recorded for class c, in report order
// (sorted by thread then line), to line sanitizer findings up with
// enumerated durable states.
func byClass(rep *pmsan.Report, c pmsan.Class) []pmsan.Violation {
	var out []pmsan.Violation
	for _, v := range rep.Violations {
		if v.Class == c {
			out = append(out, v)
		}
	}
	return out
}
