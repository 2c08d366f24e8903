package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper"
)

func TestRunErrorPaths(t *testing.T) {
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
		// Every run streams; the flag that used to ask for it is gone.
		{"removed -stream flag", []string{"-stream"}, 2, "flag provided but not defined: -stream"},
		{"unwritable metrics path", []string{"-bench", "echo", "-ops", "2", "-metrics", filepath.Join(t.TempDir(), "no-dir", "m.json")}, 1, "write metrics"},
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

// TestUnknownBenchmarkWritesNoTrace: a run that fails on its benchmark
// name leaves nothing in the -trace directory, where an empty .wspr file
// would later fail `wanalyze -dir` on a truncated header.
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

// TestParallelFlagChangesNothing pins that -parallel only schedules the
// runs: the report, the sanitizer section and the trace files -trace writes
// are byte-identical with one worker and with two.
func TestParallelFlagChangesNothing(t *testing.T) {
	dirs := map[string]string{"1": t.TempDir(), "2": t.TempDir()}
	outputs := map[string]string{}
	for workers, dir := range dirs {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-ops", "5", "-san", "-trace", dir, "-parallel", workers}, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", workers, code, stderr.String())
		}
		outputs[workers] = stdout.String()
	}
	if outputs["1"] != outputs["2"] {
		t.Errorf("-parallel changed the output:\n1:\n%s\n2:\n%s", outputs["1"], outputs["2"])
	}
	if !strings.Contains(outputs["1"], "pmsan: app=echo") {
		t.Errorf("no sanitizer section in output:\n%s", outputs["1"])
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
		// The file is the run: analysing it gives the report printed.
		rep, err := whisper.AnalyzeReader(bytes.NewReader(a))
		if err != nil {
			t.Fatalf("%s.wspr: %v", name, err)
		}
		if !strings.Contains(outputs["1"], rep.String()) {
			t.Errorf("%s.wspr analyses to a report the run did not print:\n%s", name, rep.String())
		}
	}
}
