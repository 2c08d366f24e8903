package main

import (
	"bytes"
	"fmt"
	"io"
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

	// A valid saved trace for the success and corrupt-file cases, and
	// copies of it in directories whose names are glob patterns. The
	// bracket directory also holds a subdirectory named like a trace,
	// which is not one.
	var saved bytes.Buffer
	rep, err := whisper.Run("hashmap", whisper.Config{Clients: 2, Ops: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Trace.Encode(&saved); err != nil {
		t.Fatal(err)
	}
	traceDir := filepath.Join(tmp, "traces")
	bracketDir := filepath.Join(tmp, "t[")
	for _, dir := range []string{traceDir, bracketDir, filepath.Join(tmp, "a1"), filepath.Join(tmp, "a2")} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "hashmap.wspr"), saved.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
		wantErr  string
	}{
		{
			name:     "no input selected",
			args:     nil,
			wantCode: 1,
			wantErr:  "nothing to analyze",
		},
		{
			name:     "unknown flag",
			args:     []string{"-nope"},
			wantCode: 2,
			wantErr:  "flag provided but not defined",
		},
		{
			name:     "stray positional argument",
			args:     []string{"-run", "echo", "-san"},
			wantCode: 2,
			wantErr:  "unexpected arguments: [echo -san]",
		},
		{
			name:     "negative ops",
			args:     []string{"-run", "-ops", "-1"},
			wantCode: 2,
			wantErr:  "wanalyze: bad -ops -1 (want ",
		},
		{
			name:     "zero parallel",
			args:     []string{"-run", "-ops", "2", "-parallel", "0"},
			wantCode: 2,
			wantErr:  "wanalyze: bad -parallel 0 (want ",
		},
		{
			name:     "both inputs",
			args:     []string{"-run", "-dir", traceDir},
			wantCode: 2,
			wantErr:  "-run and -dir",
		},
		{
			// Every run streams in one fused pass; the flags that used to
			// ask for it are gone.
			name:     "removed -stream flag",
			args:     []string{"-run", "-stream"},
			wantCode: 2,
			wantErr:  "flag provided but not defined: -stream",
		},
		{
			name:     "removed -fused flag",
			args:     []string{"-dir", traceDir, "-fused"},
			wantCode: 2,
			wantErr:  "flag provided but not defined: -fused",
		},
		{
			name:     "empty trace dir",
			args:     []string{"-dir", tmp},
			wantCode: 1,
			wantErr:  "nothing to analyze",
		},
		{
			// The directory name is a path, not a pattern: a "[" in it is
			// an ordinary character.
			name:     "trace dir named like a bad pattern",
			args:     []string{"-dir", bracketDir, "-fig4"},
			wantCode: 0,
		},
		{
			// ... and "a*" names one directory, not a1 and a2 together.
			name:     "trace dir named like a pattern",
			args:     []string{"-dir", filepath.Join(tmp, "a*")},
			wantCode: 1,
			wantErr:  filepath.Join(tmp, "a*"),
		},
		{
			name:     "missing trace dir",
			args:     []string{"-dir", filepath.Join(tmp, "nonexistent")},
			wantCode: 1,
			wantErr:  filepath.Join(tmp, "nonexistent") + ": no such file or directory",
		},
		{
			name:     "corrupt trace file",
			args:     []string{"-dir", corruptDir},
			wantCode: 1,
			wantErr:  "bad.wspr",
		},
		{
			name:     "unwritable metrics path",
			args:     []string{"-dir", traceDir, "-metrics", filepath.Join(tmp, "no-dir", "m.json")},
			wantCode: 1,
			wantErr:  "write metrics",
		},
		{
			name:     "saved trace success",
			args:     []string{"-dir", traceDir, "-fig4", "-metrics", filepath.Join(tmp, "m.json")},
			wantCode: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.wantCode, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
			}
			if tc.wantCode == 0 && !strings.Contains(stdout.String(), "Figure 4") {
				t.Fatalf("success run printed no figure:\n%s", stdout.String())
			}
		})
	}
}

// TestSanFlag pins the sanitizer section: -san alone prints only the
// sanitizer reports, and a clean trace exits 0.
func TestSanFlag(t *testing.T) {
	out := runOnSavedHashmap(t, "-san")
	if !strings.Contains(out, "pmsan: app=hashmap") {
		t.Errorf("no sanitizer report in output:\n%s", out)
	}
	if strings.Contains(out, "Figure") {
		t.Errorf("-san alone printed figures:\n%s", out)
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
	if want := "sanitizer found 1 ordering error sites"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want)
	}
}

// TestCacheFlag pins that -cache adds the hierarchy table as a section of
// its own.
func TestCacheFlag(t *testing.T) {
	out := runOnSavedHashmap(t, "-cache")
	if !strings.Contains(out, "Cache hierarchy") {
		t.Errorf("-cache printed no hierarchy table:\n%s", out)
	}
	if strings.Contains(out, "Figure") {
		t.Errorf("-cache alone printed figures:\n%s", out)
	}
}

// TestCacheGolden pins the cache simulator's counts as -cache prints them
// for the whole suite — L1, L2 and remote hits, DRAM and PM traffic, NT
// writes — against the output of the commit before the holder directory.
// Regenerate only for a change that means to move the hierarchy's counts:
//
//	go run ./cmd/wanalyze -run -ops 20 -seed 1 -cache > cmd/wanalyze/testdata/cache-ops20-seed1.golden
func TestCacheGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "cache-ops20-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "-ops", "20", "-seed", "1", "-cache"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("cache counts moved:\ngot:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// runOnSavedHashmap saves a small hashmap trace and returns what
// `wanalyze -dir <it> flags...` prints.
func runOnSavedHashmap(t *testing.T, flags ...string) string {
	t.Helper()
	traceDir := t.TempDir()
	rep, err := whisper.Run("hashmap", whisper.Config{Clients: 2, Ops: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(traceDir, "hashmap.wspr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Trace.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if code := run(append([]string{"-dir", traceDir}, flags...), &out, &out); code != 0 {
		t.Fatalf("%v failed: %s", flags, out.String())
	}
	return out.String()
}

// TestModesOutputIdentical is the one-collector contract: with every
// analysis selected, stdout is byte-identical whether the suite is
// regenerated on one worker or on two, and the same set of lines when it is
// read back from saved traces.
func TestModesOutputIdentical(t *testing.T) {
	traceDir := t.TempDir()
	_, err := whisper.RunAllFused(whisper.Names(), whisper.Config{Ops: 5, Seed: 3}, whisper.FusedConfig{}, 1, func(name string) (io.WriteCloser, error) {
		return os.Create(filepath.Join(traceDir, name+".wspr"))
	})
	if err != nil {
		t.Fatal(err)
	}

	outputs := map[string]string{}
	for mode, input := range map[string][]string{
		"-run":             {"-run", "-ops", "5", "-seed", "3", "-parallel", "1"},
		"-run -parallel 2": {"-run", "-ops", "5", "-seed", "3", "-parallel", "2"},
		"-dir":             {"-dir", traceDir},
	} {
		args := append(input, "-san", "-cache")
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		outputs[mode] = stdout.String()
	}
	if outputs["-run -parallel 2"] != outputs["-run"] {
		t.Errorf("-parallel changed the output:\n1:\n%s\n2:\n%s", outputs["-run"], outputs["-run -parallel 2"])
	}
	// -dir lists files in name order, -run in suite order: compare the two
	// inputs as sets of lines.
	sortedLines := func(s string) string {
		lines := strings.Split(s, "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if sortedLines(outputs["-run"]) != sortedLines(outputs["-dir"]) {
		t.Errorf("-run and -dir disagree:\n-run:\n%s\n-dir:\n%s", outputs["-run"], outputs["-dir"])
	}
	for _, want := range []string{"Cache hierarchy", "pmsan: app=vacation"} {
		if !strings.Contains(outputs["-run"], want) {
			t.Errorf("output lacks %q:\n%s", want, outputs["-run"])
		}
	}
}
