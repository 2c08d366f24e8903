package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper"
)

func TestRunErrorPaths(t *testing.T) {
	tmp := t.TempDir()

	// A valid saved trace for the success and corrupt-file cases.
	traceDir := filepath.Join(tmp, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		t.Fatal(err)
	}
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
			args:     []string{"-run", "echo", "-fused"},
			wantCode: 2,
			wantErr:  "unexpected arguments: [echo -fused]",
		},
		{
			name:     "empty trace dir",
			args:     []string{"-dir", tmp},
			wantCode: 1,
			wantErr:  "nothing to analyze",
		},
		{
			name:     "corrupt trace file",
			args:     []string{"-dir", corruptDir},
			wantCode: 1,
			wantErr:  "bad.wspr",
		},
		{
			name:     "corrupt trace file streaming",
			args:     []string{"-dir", corruptDir, "-stream"},
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

// TestStreamFlagOutputIdentical asserts that -stream changes nothing about
// the rendered figures, whether analyzing saved traces or live runs.
func TestStreamFlagOutputIdentical(t *testing.T) {
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

	var plain, streamed bytes.Buffer
	if code := run([]string{"-dir", traceDir}, &plain, &plain); code != 0 {
		t.Fatalf("plain run failed: %s", plain.String())
	}
	if code := run([]string{"-dir", traceDir, "-stream"}, &streamed, &streamed); code != 0 {
		t.Fatalf("streamed run failed: %s", streamed.String())
	}
	if plain.String() != streamed.String() {
		t.Errorf("-stream changed -dir output:\nplain:\n%s\nstreamed:\n%s", plain.String(), streamed.String())
	}
}

// TestSanFlag pins the sanitizer section: -san alone prints only the
// sanitizer reports, the output is byte-identical between the saved-trace
// and streaming paths, and a clean suite exits 0.
func TestSanFlag(t *testing.T) {
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

	var plain, streamed bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-san"}, &plain, &plain); code != 0 {
		t.Fatalf("-san run failed: %s", plain.String())
	}
	if code := run([]string{"-dir", traceDir, "-san", "-stream"}, &streamed, &streamed); code != 0 {
		t.Fatalf("-san -stream run failed: %s", streamed.String())
	}
	if plain.String() != streamed.String() {
		t.Errorf("-stream changed -san output:\nplain:\n%s\nstreamed:\n%s", plain.String(), streamed.String())
	}
	if !strings.Contains(plain.String(), "pmsan: app=hashmap") {
		t.Errorf("no sanitizer report in output:\n%s", plain.String())
	}
	if strings.Contains(plain.String(), "Figure") {
		t.Errorf("-san alone printed figures:\n%s", plain.String())
	}
}

// TestFusedFlag pins that -fused changes no output, and that -cache adds
// the hierarchy table as a section of its own, with or without -fused.
func TestFusedFlag(t *testing.T) {
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

	var plain, fused bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-san"}, &plain, &plain); code != 0 {
		t.Fatalf("-san run failed: %s", plain.String())
	}
	if code := run([]string{"-dir", traceDir, "-san", "-fused"}, &fused, &fused); code != 0 {
		t.Fatalf("-san -fused run failed: %s", fused.String())
	}
	if plain.String() != fused.String() {
		t.Errorf("-fused changed -san output:\nplain:\n%s\nfused:\n%s", plain.String(), fused.String())
	}

	var cached bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-fused", "-cache"}, &cached, &cached); code != 0 {
		t.Fatalf("-fused -cache run failed: %s", cached.String())
	}
	if !strings.Contains(cached.String(), "Cache hierarchy") {
		t.Errorf("-cache printed no hierarchy table:\n%s", cached.String())
	}
	if strings.Contains(cached.String(), "Figure") {
		t.Errorf("-cache alone printed figures:\n%s", cached.String())
	}

	var alone bytes.Buffer
	if code := run([]string{"-dir", traceDir, "-cache"}, &alone, &alone); code != 0 {
		t.Fatalf("-cache without -fused failed: %s", alone.String())
	}
	if alone.String() != cached.String() {
		t.Errorf("-fused changed -cache output:\nplain:\n%s\nfused:\n%s", alone.String(), cached.String())
	}
}

// TestModesOutputIdentical is the one-collector contract: with every
// analysis selected, stdout is byte-identical whether the suite is
// regenerated or read back from saved traces, and
// whether or not -stream / -fused ask for traces not to be retained.
func TestModesOutputIdentical(t *testing.T) {
	traceDir := t.TempDir()
	reports, err := whisper.RunAll(whisper.Config{Ops: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		f, err := os.Create(filepath.Join(traceDir, rep.App+".wspr"))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Trace.Encode(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// -dir lists files in name order, -run in suite order; compare each
	// input's three modes exactly, and the two inputs as sets of lines.
	outputs := map[string]string{}
	for _, input := range [][]string{{"-run", "-ops", "5", "-seed", "3"}, {"-dir", traceDir}} {
		for _, mode := range []string{"", "-stream", "-fused"} {
			args := append(append([]string{}, input...), "-san", "-cache")
			if mode != "" {
				args = append(args, mode)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
			}
			outputs[input[0]+mode] = stdout.String()
		}
		for _, mode := range []string{"-stream", "-fused"} {
			if outputs[input[0]+mode] != outputs[input[0]] {
				t.Errorf("%s %s changed the output:\ndefault:\n%s\n%s:\n%s",
					input[0], mode, outputs[input[0]], mode, outputs[input[0]+mode])
			}
		}
	}
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
