package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSuiteRunExitsClean(t *testing.T) {
	code, out, _ := runCLI(t)
	if code != 0 {
		t.Fatalf("exit=%d\n%s", code, out)
	}
	if !strings.Contains(out, "wlitmus: shapes=15") || !strings.Contains(out, "unexpected=0") {
		t.Fatalf("summary line missing:\n%s", out)
	}
}

func TestSuiteRunDeterministic(t *testing.T) {
	_, first, _ := runCLI(t)
	for i := 0; i < 3; i++ {
		if _, out, _ := runCLI(t); out != first {
			t.Fatal("suite output varies across runs")
		}
	}
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit=%d", code)
	}
	if !strings.Contains(out, "mnemosyne-log-term\n") || !strings.Contains(out, "hops-ofence-flag\n") {
		t.Fatalf("shape list incomplete:\n%s", out)
	}
}

func TestViolatedShapeExitsOne(t *testing.T) {
	code, out, _ := runCLI(t, "-shape", "nstore-torn-wal")
	if code != 1 {
		t.Fatalf("exit=%d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "verdict=VIOLATED") {
		t.Fatalf("verdict missing:\n%s", out)
	}
}

func TestCleanShapeWithCrossval(t *testing.T) {
	code, out, _ := runCLI(t, "-shape", "store-flush-fence-store", "-crossval", "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit=%d\n%s", code, out)
	}
	if !strings.Contains(out, "missing=0 subset-ok") {
		t.Fatalf("crossval line missing:\n%s", out)
	}
}

func TestLitmusFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.litmus")
	src := "litmus file-test\nthread:\n  st x 1\n  st y 1\ninvariant y==1 -> x==1\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCLI(t, "-f", path)
	if code != 1 {
		t.Fatalf("exit=%d, want 1 for a violated program\n%s", code, out)
	}
	if !strings.Contains(out, "shape=file-test") {
		t.Fatalf("program name missing:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-nonsense"},
		{"store-store"}, // positional: a shape is named with -shape
		{"-shape", "no-such-shape"},
		{"-f", "/does/not/exist.litmus"},
		{"-shape", "store-store", "-f", "x.litmus"},
		{"-shape", "epoch-waw-same", "-crossval"}, // epoch has no device twin
		{"-crossval", "-seeds", "-3"},             // would sample the default 3
		{"-crossval", "-seeds", "0"},
	}
	for _, args := range cases {
		if code, out, _ := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit=%d, want 2\n%s", args, code, out)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	code, _, _ := runCLI(t, "-shape", "cross-waw", "-metrics", path)
	if code != 0 {
		t.Fatalf("exit=%d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "pmodel_states_total") {
		t.Fatalf("metrics snapshot lacks pmodel counters:\n%s", data)
	}
}
