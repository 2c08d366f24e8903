package pmodel

import (
	"testing"
)

// TestCrashcheckSubset is the cross-validation contract: for every Px86
// builtin shape, every durable image crashcheck's sampler can produce —
// all modes, several adversarial seeds, every crash point along the
// executed interleaving — is a state the exhaustive enumeration already
// holds. Sampling ⊆ enumeration, by construction of the shared device
// semantics.
func TestCrashcheckSubset(t *testing.T) {
	for _, s := range Suite() {
		p := MustParse(s.DSL)
		if p.Model != ModelPx86 {
			continue
		}
		r, err := Check(p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		x, err := CrossValidate(p, r, XValConfig{Seeds: 4})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !x.Ok() {
			t.Errorf("%s: %d sampled durable states not enumerated: %v", s.Name, len(x.Missing), x.Missing)
		}
		if x.Points != p.TotalOps()+1 {
			t.Errorf("%s: sampled %d crash points, want %d", s.Name, x.Points, p.TotalOps()+1)
		}
		if x.Distinct < 1 {
			t.Errorf("%s: no distinct samples", s.Name)
		}
	}
}

func TestCrossValidateRejectsEpoch(t *testing.T) {
	p := MustParse("model epoch\nthread:\n  st x 1\n")
	r, err := Check(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CrossValidate(p, r, XValConfig{}); err == nil {
		t.Fatal("epoch-model cross-validation accepted")
	}
	if _, err := CrossValidate(MustParse("thread:\n  st x 1\n"), r, XValConfig{}); err == nil {
		t.Fatal("foreign Check result accepted")
	}
}

// TestPR2BugShapesRediscovered pins the regression the tentpole promises:
// the two ordering bugs PR 2's sampler caught are found exhaustively,
// with the exact violating durable states, and their fixes enumerate
// clean.
func TestPR2BugShapesRediscovered(t *testing.T) {
	cases := []struct {
		shape   string
		witness []uint64 // in the shape's variable order
	}{
		// mnemosyne-log-term: vars (r, t, d) — data overwritten while the
		// log terminator never persisted.
		{"mnemosyne-log-term", vals(1, 0, 2)},
		// nstore-torn-wal: vars (h, p) — header durable, payload torn.
		{"nstore-torn-wal", vals(1, 0)},
	}
	for _, c := range cases {
		s, ok := ShapeByName(c.shape)
		if !ok {
			t.Fatalf("shape %s missing from suite", c.shape)
		}
		r, err := Check(MustParse(s.DSL))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range r.Violations {
			if len(v) == len(c.witness) {
				eq := true
				for i := range v {
					eq = eq && v[i] == c.witness[i]
				}
				found = found || eq
			}
		}
		if !found {
			t.Errorf("%s: violating witness %v not among %v", c.shape, c.witness, r.Violations)
		}

		fixed, ok := ShapeByName(c.shape + "-fixed")
		if !ok {
			t.Fatalf("shape %s-fixed missing from suite", c.shape)
		}
		fr, err := Check(MustParse(fixed.DSL))
		if err != nil {
			t.Fatal(err)
		}
		if !fr.Clean() {
			t.Errorf("%s: fixed variant still violates: %v", fixed.Name, fr.Violations)
		}
	}
}
