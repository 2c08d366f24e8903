package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func TestRunErrorPaths(t *testing.T) {
	tmp := t.TempDir()
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"unknown benchmark", []string{"-bench", "nope"}, 1, `unknown benchmark "nope"`},
		{"unwritable trace dir", []string{"-bench", "echo", "-ops", "2", "-trace", filepath.Join(os.DevNull, "traces")}, 1, os.DevNull},
		// flag parsing stops at "echo": without the check -san is dropped
		// and the run succeeds unsanitized.
		{"stray positional argument", []string{"-table1", "echo", "-san"}, 2, "unexpected arguments: [echo -san]"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		// Every run streams in one fused pass; the flags that used to ask
		// for it are gone.
		{"removed -stream flag", []string{"-stream"}, 2, "flag provided but not defined: -stream"},
		{"unwritable metrics path", []string{"-bench", "echo", "-ops", "2", "-metrics", filepath.Join(tmp, "no-dir", "m.json")}, 1, "write metrics"},
		// Out of range: the suite would run its defaults, or serially.
		{"negative clients", []string{"-clients", "-3", "-ops", "-2"}, 2, "whisper: bad -clients -3 (want "},
		{"negative ops", []string{"-bench", "echo", "-ops", "-2"}, 2, "whisper: bad -ops -2 (want "},
		{"zero parallel", []string{"-bench", "echo", "-ops", "2", "-parallel", "0"}, 2, "whisper: bad -parallel 0 (want "},
		{"negative parallel", []string{"-bench", "echo", "-ops", "2", "-parallel", "-1"}, 2, "whisper: bad -parallel -1 (want "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestDirErrorPaths pins the command line that reads saved traces: the
// flags are checked under -dir as they are for a run, and the directory is
// read as a path.
func TestDirErrorPaths(t *testing.T) {
	tmp := t.TempDir()

	// A saved hashmap trace in directories whose names are glob patterns.
	// The bracket directory also holds a subdirectory named like a trace,
	// which is not one.
	traceDir := saveHashmap(t, filepath.Join(tmp, "traces"))
	bracketDir := saveHashmap(t, filepath.Join(tmp, "t["))
	saveHashmap(t, filepath.Join(tmp, "a1"))
	saveHashmap(t, filepath.Join(tmp, "a2"))
	if err := os.Mkdir(filepath.Join(bracketDir, "sub.wspr"), 0o755); err != nil {
		t.Fatal(err)
	}
	corruptDir := filepath.Join(tmp, "corrupt")
	if err := os.MkdirAll(corruptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corruptDir, "bad.wspr"), []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		args     []string
		wantCode int
		want     string // in stderr, or in stdout when the run succeeds
	}{
		{"unknown flag", []string{"-dir", traceDir, "-nope"}, 2, "flag provided but not defined"},
		{"stray positional argument", []string{"-dir", traceDir, "-fig4", "echo", "-san"}, 2, "unexpected arguments: [echo -san]"},
		// -dir ignores the run flags, but a bad value is still an error.
		{"negative ops", []string{"-dir", traceDir, "-ops", "-1"}, 2, "whisper: bad -ops -1 (want "},
		{"zero parallel", []string{"-dir", traceDir, "-parallel", "0"}, 2, "whisper: bad -parallel 0 (want "},
		{"removed -stream flag", []string{"-dir", traceDir, "-stream"}, 2, "flag provided but not defined: -stream"},
		{"removed -fused flag", []string{"-dir", traceDir, "-fused"}, 2, "flag provided but not defined: -fused"},
		// A run is the default input; the flag that chose it over -dir is
		// gone.
		{"removed -run flag", []string{"-run", "-dir", traceDir}, 2, "flag provided but not defined: -run"},
		// -dir reads traces and -trace writes them: one run, one input.
		{"dir with trace", []string{"-dir", traceDir, "-trace", filepath.Join(tmp, "out")}, 2, "-dir reads saved traces and -trace saves a run's"},
		{"empty trace dir", []string{"-dir", tmp}, 1, "nothing to analyze"},
		// The directory name is a path, not a pattern: a "[" in it is an
		// ordinary character ...
		{"trace dir named like a bad pattern", []string{"-dir", bracketDir, "-fig4"}, 0, "Figure 4"},
		// ... and "a*" names one directory, not a1 and a2 together.
		{"trace dir named like a pattern", []string{"-dir", filepath.Join(tmp, "a*")}, 1, filepath.Join(tmp, "a*")},
		{"missing trace dir", []string{"-dir", filepath.Join(tmp, "nonexistent")}, 1, filepath.Join(tmp, "nonexistent") + ": no such file or directory"},
		{"corrupt trace file", []string{"-dir", corruptDir}, 1, "bad.wspr"},
		{"unwritable metrics path", []string{"-dir", traceDir, "-metrics", filepath.Join(tmp, "no-dir", "m.json")}, 1, "write metrics"},
		{"saved trace success", []string{"-dir", traceDir, "-fig4", "-metrics", filepath.Join(tmp, "m.json")}, 0, "Figure 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			got := stderr.String()
			if tc.wantCode == 0 {
				got = stdout.String()
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("output %q does not contain %q", got, tc.want)
			}
		})
	}
}

// TestHelpListsTheFlags pins the command line: one tool runs the suite
// and reads saved traces, with these flags and no others.
func TestHelpListsTheFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	var got []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(f)[0])
		}
	}
	want := []string{"amp", "bench", "cache", "clients", "debug-addr", "dir", "fig3", "fig4", "fig5",
		"metrics", "nti", "ops", "parallel", "san", "seed", "table1", "trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-h lists %v, want %v", got, want)
	}
}

// TestUnknownBenchmarkWritesNoTrace: a run that fails on its benchmark
// name leaves nothing in the -trace directory, where an empty .wspr file
// would later fail `whisper -dir` on a truncated header.
func TestUnknownBenchmarkWritesNoTrace(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "nope", "-trace", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("-trace directory holds %s after a failed run", e.Name())
	}
}

// TestParallelFlagChangesNothing is the one-collector contract: -parallel
// only schedules the runs, so stdout and the trace files -trace writes are
// byte-identical with one worker and with two.
func TestParallelFlagChangesNothing(t *testing.T) {
	dirs := map[string]string{"1": t.TempDir(), "2": t.TempDir()}
	outputs := map[string]string{}
	for workers, dir := range dirs {
		outputs[workers] = runOK(t, "-ops", "5", "-seed", "3", "-trace", dir, "-cache", "-san", "-parallel", workers)
	}
	if outputs["1"] != outputs["2"] {
		t.Errorf("-parallel changed the output:\n1:\n%s\n2:\n%s", outputs["1"], outputs["2"])
	}
	for _, want := range []string{"Cache hierarchy", "pmsan: app=vacation"} {
		if !strings.Contains(outputs["1"], want) {
			t.Errorf("output lacks %q:\n%s", want, outputs["1"])
		}
	}
	for _, name := range whisper.Names() {
		a, err := os.ReadFile(filepath.Join(dirs["1"], name+".wspr"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs["2"], name+".wspr"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s.wspr differs between -parallel 1 and -parallel 2", name)
		}
	}
}

// TestDirMatchesRun: reading a run's saved traces back with -dir prints
// the lines the run printed, with every analysis selected. -dir lists
// files by name, a run in suite order, so the two compare as sets of
// lines.
func TestDirMatchesRun(t *testing.T) {
	traceDir := t.TempDir()
	ran := runOK(t, "-ops", "5", "-seed", "3", "-trace", traceDir, "-cache", "-san")
	read := runOK(t, "-dir", traceDir, "-cache", "-san")
	sortedLines := func(s string) string {
		lines := strings.Split(s, "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if sortedLines(read) != sortedLines(ran) {
		t.Errorf("the run and -dir disagree:\nrun:\n%s\n-dir:\n%s", ran, read)
	}
	for _, want := range []string{"Cache hierarchy", "pmsan: app=vacation"} {
		if !strings.Contains(read, want) {
			t.Errorf("-dir output lacks %q:\n%s", want, read)
		}
	}
}

// TestFiguresGolden pins Figures 3, 4 and 5 and the §5.2 statistics for the
// whole suite, byte for byte, to what the analysis printed before it moved
// into this command. Regenerate only for a change that means to move them:
//
//	go run ./cmd/whisper -fig3 -fig4 -fig5 -amp -nti -ops 20 -seed 1 > cmd/whisper/testdata/figures-ops20-seed1.golden
func TestFiguresGolden(t *testing.T) {
	requireGolden(t, "figures-ops20-seed1.golden", "-fig3", "-fig4", "-fig5", "-amp", "-nti", "-ops", "20", "-seed", "1")
}

// TestCacheGolden pins the cache simulator's counts as -cache prints them
// for the whole suite — L1, L2 and remote hits, DRAM and PM traffic, NT
// writes — against the output of the commit before the holder directory.
// Regenerate only for a change that means to move the hierarchy's counts:
//
//	go run ./cmd/whisper -cache -ops 20 -seed 1 > cmd/whisper/testdata/cache-ops20-seed1.golden
func TestCacheGolden(t *testing.T) {
	requireGolden(t, "cache-ops20-seed1.golden", "-cache", "-ops", "20", "-seed", "1")
}

// TestSectionsPrintInOrder pins the output rule: selected sections print
// in one fixed order whatever order the flags come in, and in place of the
// per-app reports.
func TestSectionsPrintInOrder(t *testing.T) {
	out := runOK(t, "-dir", saveHashmap(t, t.TempDir()), "-cache", "-nti", "-fig3", "-table1")
	last := -1
	for _, header := range []string{"Paper (Table 1)", "Figure 3", "non-temporal", "Cache hierarchy"} {
		i := strings.Index(out, header)
		if i <= last {
			t.Fatalf("%q is missing or out of order:\n%s", header, out)
		}
		last = i
	}
	if strings.Contains(out, "Figure 4") || strings.Contains(out, "epoch sizes:") {
		t.Errorf("unselected output printed:\n%s", out)
	}
}

// TestSanFlag pins the sanitizer section: -san appends each app's report
// to the rest, and a clean trace exits 0.
func TestSanFlag(t *testing.T) {
	out := runOK(t, "-dir", saveHashmap(t, t.TempDir()), "-san")
	report := strings.Index(out, "hashmap (nvml): ")
	san := strings.Index(out, "pmsan: app=hashmap")
	if report < 0 || san < 0 || report >= san {
		t.Errorf("want the app's report, then its sanitizer report:\n%s", out)
	}
}

// TestSanFailsOnErrorSite is the gate itself: a saved trace whose one
// transaction commits an unflushed PM store prints that dirty-at-commit
// site and exits 1. No report can waive a site, so every error-class site
// fails the run.
func TestSanFailsOnErrorSite(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "dirty.wspr"))
	if err != nil {
		t.Fatal(err)
	}
	tw, err := trace.NewWriter(f, trace.Meta{App: "dirty", Layer: "native", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []trace.Event{
		{Time: 1, Kind: trace.KTxBegin},
		{Time: 2, Kind: trace.KStore, Addr: mem.PMBase, Size: 8},
		{Time: 3, Kind: trace.KTxEnd},
	} {
		if err := tw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "-san"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	for _, want := range []string{
		"pmsan: app=dirty layer=native events=3 errors=1\n",
		fmt.Sprintf("  E dirty-at-commit t0 line=%#x count=1 first=3\n", uint64(mem.PMBase)),
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	if want := "whisper: sanitizer found 1 ordering error sites"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want)
	}
}

// TestCacheFlag pins that -cache adds the hierarchy table as a section of
// its own.
func TestCacheFlag(t *testing.T) {
	out := runOK(t, "-dir", saveHashmap(t, t.TempDir()), "-cache")
	if !strings.Contains(out, "Cache hierarchy") {
		t.Errorf("-cache printed no hierarchy table:\n%s", out)
	}
	if strings.Contains(out, "Figure") {
		t.Errorf("-cache alone printed figures:\n%s", out)
	}
}

// runOK returns what `whisper args...` prints, failing the test unless it
// exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func requireGolden(t *testing.T, file string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if got := runOK(t, args...); got != string(want) {
		t.Errorf("%v moved from %s:\ngot:\n%s\nwant:\n%s", args, file, got, want)
	}
}

// saveHashmap saves a small hashmap trace as dir/hashmap.wspr and returns
// dir.
func saveHashmap(t *testing.T, dir string) string {
	t.Helper()
	rep, err := whisper.Run("hashmap", whisper.Config{Clients: 2, Ops: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := rep.Trace.Encode(&saved); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "hashmap.wspr"), saved.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}
