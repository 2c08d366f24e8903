package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigure10Golden pins Figure 10 end to end — six apps recorded, each
// replayed under the five models, every normalized runtime as printed —
// against the output of the commit before the replay's front / back-end
// split. Regenerate only for a change that means to move the figure:
//
//	go run ./cmd/hopssim -fig10 -ops 20 -seed 1 > cmd/hopssim/testdata/fig10-ops20-seed1.golden
func TestFigure10Golden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig10-ops20-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig10", "-ops", "20", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("Figure 10 moved:\ngot:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// TestFigure10HeaderNamesTheSimulatedMachine: a -drain beyond the buffer is
// clamped to it by the replay, so the header must print the clamped value —
// the whole output is that of asking for the buffer size outright.
func TestFigure10HeaderNamesTheSimulatedMachine(t *testing.T) {
	outputs := map[string]string{}
	for _, drain := range []string{"100", "8"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig10", "-ops", "5", "-pb", "8", "-drain", drain}, &stdout, &stderr); code != 0 {
			t.Fatalf("-drain %s: exit %d: %s", drain, code, stderr.String())
		}
		outputs[drain] = stdout.String()
	}
	if !strings.Contains(outputs["100"], "(PB=8 entries, drain at 8, ") {
		t.Errorf("header does not name the clamped threshold:\n%s", outputs["100"])
	}
	if outputs["100"] != outputs["8"] {
		t.Errorf("-drain 100 and -drain 8 differ on an 8-entry buffer:\n%s\n%s", outputs["100"], outputs["8"])
	}
}

func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string
	}{
		{"stray positional argument", []string{"-fig6", "echo"}, 2, "unexpected arguments: [echo]"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
		{"unwritable metrics path", []string{"-fig6", "-ops", "2", "-metrics", filepath.Join(t.TempDir(), "no-dir", "m.json")}, 1, "write metrics"},
		// Out of range: the replay would simulate the default machine
		// and the header would name it.
		{"negative pb", []string{"-fig10", "-pb", "-4", "-drain", "-1"}, 2, "hopssim: bad -pb -4 (want "},
		{"negative drain", []string{"-fig10", "-drain", "-1"}, 2, "hopssim: bad -drain -1 (want "},
		{"negative ops", []string{"-fig10", "-ops", "-2"}, 2, "hopssim: bad -ops -2 (want "},
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
