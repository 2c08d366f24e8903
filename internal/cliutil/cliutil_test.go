package cliutil

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		ok      bool
		verbose bool
		stderr  string // substring expected on stderr
	}{
		{"no arguments", nil, true, false, ""},
		{"a defined flag", []string{"-v"}, true, true, ""},
		{"unknown flag", []string{"-frobnicate"}, false, false, "flag provided but not defined: -frobnicate"},
		{"bad value", []string{"-v=maybe"}, false, false, "invalid boolean value"},
		{"help", []string{"-h"}, false, false, "Usage of wtool:"},
		{"positional argument", []string{"smoke", "-v"}, false, false, "wtool: unexpected arguments: [smoke -v]"},
		{"positional after flags", []string{"-v", "smoke"}, false, true, "wtool: unexpected arguments: [smoke]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			fs := Flags("wtool", &stderr)
			verbose := fs.Bool("v", false, "verbose")
			if ok := Parse(fs, tc.args); ok != tc.ok || *verbose != tc.verbose {
				t.Fatalf("Parse(%v) = %v with -v=%v, want %v with -v=%v", tc.args, ok, *verbose, tc.ok, tc.verbose)
			}
			if !strings.Contains(stderr.String(), tc.stderr) || (tc.ok && stderr.Len() != 0) {
				t.Fatalf("stderr %q, want it to contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

func TestInRange(t *testing.T) {
	var stderr bytes.Buffer
	fs := Flags("wtool", &stderr)
	n := fs.Int("n", 0, "count")
	fs.Int("m", 0, "other count")
	if !Parse(fs, []string{"-n", "-4", "-m", "2"}) {
		t.Fatal(stderr.String())
	}
	if !InRange(fs, Check{true, "m", "anything"}) || stderr.Len() != 0 {
		t.Fatalf("a holding check refused: %q", stderr.String())
	}
	if InRange(fs, Check{true, "m", "anything"}, Check{*n >= 0, "n", "0 or more"}, Check{false, "m", "never"}) {
		t.Fatal("a failing check passed")
	}
	if got, want := stderr.String(), "wtool: bad -n -4 (want 0 or more)\n"; got != want {
		t.Fatalf("stderr %q, want %q: the first failing check, once", got, want)
	}
}

func TestWriteMetrics(t *testing.T) {
	if err := WriteMetrics(""); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing-dir", "m.json")
	if err := WriteMetrics(missing); err == nil || !strings.Contains(err.Error(), "write metrics") || !strings.Contains(err.Error(), missing) {
		t.Fatalf("unwritable path: err = %v, want one naming the operation and the path", err)
	}
	path := filepath.Join(dir, "m.json")
	if err := WriteMetrics(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil || !json.Valid(buf) {
		t.Fatalf("snapshot is not JSON (read error %v): %s", err, buf)
	}
}
