package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"smoke", "storm-mixed", "hotspot-rotate", "spike",
		"compact-churn", "inplace-flush", "cow-publish", "log-append", "pmwcas"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeRunToStdout(t *testing.T) {
	code, out, errb := runCLI(t, "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	var rep struct {
		Scenario    string `json:"scenario"`
		Seed        int64  `json:"seed"`
		Ops         int    `json:"ops"`
		CrashCycles int    `json:"crash_cycles"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if rep.Scenario != "smoke" || rep.Seed != 3 || rep.Ops == 0 || rep.CrashCycles == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(errb, "wstorm: smoke seed=3") {
		t.Fatalf("summary line missing from stderr: %s", errb)
	}
}

// TestSameSeedSameBytes pins the CLI contract CI relies on: two runs at
// one seed write byte-identical reports.
func TestSameSeedSameBytes(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if code, _, errb := runCLI(t, "-scenario", "smoke", "-seed", "5", "-san", "-o", p1); code != 0 {
		t.Fatalf("run 1 exit %d: %s", code, errb)
	}
	if code, _, errb := runCLI(t, "-scenario", "smoke", "-seed", "5", "-san", "-o", p2); code != 0 {
		t.Fatalf("run 2 exit %d: %s", code, errb)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("same-seed reports differ")
	}
}

func TestSpecFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.txt")
	src := "scenario filetest\ntenant hashmap keys=32\n  phase ops=25 writes=70\n"
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-f", spec, "-seed", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, `"scenario": "filetest"`) {
		t.Fatalf("report not from the spec file:\n%s", out)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "metrics.json")
	if code, _, errb := runCLI(t, "-seed", "4", "-metrics", m); code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	snap, err := os.ReadFile(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scenario_ops_total", "scenario_crashes_total"} {
		if !strings.Contains(string(snap), want) {
			t.Errorf("metrics snapshot missing %s", want)
		}
	}
}

// TestPrimsArtifactReproduces regenerates the committed decomposition
// table and byte-compares it: BENCH_pm_primitives.json is a build
// product of `wstorm -prims -seed 1` and must never drift silently.
func TestPrimsArtifactReproduces(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_pm_primitives.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p := filepath.Join(dir, "prims.json")
	if code, _, errb := runCLI(t, "-prims", "-seed", "1", "-o", p); code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, committed) {
		t.Fatal("regenerated primitives table differs from committed BENCH_pm_primitives.json;\n" +
			"regenerate it with: go run ./cmd/wstorm -prims -seed 1 -o BENCH_pm_primitives.json")
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-scenario", "no-such-scenario"},
		{"-f", filepath.Join(t.TempDir(), "missing.txt")},
		{"-not-a-flag"},
		{"smoke", "-list"},  // positional: would drop -list and run smoke
		{"-f", "/dev/null"}, // empty spec: no tenants
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
