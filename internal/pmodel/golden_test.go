package pmodel

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden litmus reports")

// TestGoldenShapeReports pins every builtin shape's full report — the
// durable-state listing, the counters, the verdict — against a committed
// golden file. Any change to the models, the reduction, or the report
// format shows up as a byte diff.
// Regenerate with: go test ./internal/pmodel/ -run TestGoldenShapeReports -update
func TestGoldenShapeReports(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r, err := Check(MustParse(s.DSL))
			if err != nil {
				t.Fatal(err)
			}
			got := r.Report()
			path := filepath.Join("testdata", "golden", s.Name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("report diverges from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestGoldenSuiteSummary pins the whole-suite report, summary line
// included — the artifact the CI litmus-smoke job diffs across two runs.
func TestGoldenSuiteSummary(t *testing.T) {
	sr, err := RunSuite()
	if err != nil {
		t.Fatal(err)
	}
	got := sr.Report()
	path := filepath.Join("testdata", "golden", "suite.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("suite report diverges from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
