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
		{"unknown benchmark streaming", []string{"-bench", "nope", "-stream"}, 1, `unknown benchmark "nope"`},
		{"unreadable allowlist", []string{"-san-allow", filepath.Join(t.TempDir(), "missing.allow")}, 1, "allowlist"},
		// flag parsing stops at "echo": without the check -san is dropped
		// and the run succeeds unsanitized.
		{"stray positional argument", []string{"-table1", "echo", "-san"}, 2, "unexpected arguments: [echo -san]"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"unwritable metrics path", []string{"-bench", "echo", "-ops", "2", "-metrics", filepath.Join(t.TempDir(), "no-dir", "m.json")}, 1, "write metrics"},
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

// TestStreamFlagChangesNothing pins that -stream is only a memory mode:
// the report, the sanitizer section and the trace files -trace writes are
// byte-identical to the default path's.
func TestStreamFlagChangesNothing(t *testing.T) {
	dirs := map[string]string{"default": t.TempDir(), "stream": t.TempDir()}
	outputs := map[string]string{}
	for mode, dir := range dirs {
		args := []string{"-ops", "5", "-san", "-trace", dir}
		if mode == "stream" {
			args = append(args, "-stream")
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", mode, code, stderr.String())
		}
		outputs[mode] = stdout.String()
	}
	if outputs["default"] != outputs["stream"] {
		t.Errorf("-stream changed the output:\ndefault:\n%s\nstream:\n%s", outputs["default"], outputs["stream"])
	}
	if !strings.Contains(outputs["default"], "pmsan: app=echo") {
		t.Errorf("no sanitizer section in output:\n%s", outputs["default"])
	}
	for _, name := range whisper.Names() {
		a, err := os.ReadFile(filepath.Join(dirs["default"], name+".wspr"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs["stream"], name+".wspr"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s.wspr differs between the default and -stream paths", name)
		}
	}
}
