package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: github.com/whisper-pm/whisper
cpu: AMD EPYC 7B13
BenchmarkPipelineAnalyze/stream/threads8-8   5   66643816 ns/op   15.01 Mevents/s   35956225 B/op   2135 allocs/op
BenchmarkPipelineAnalyze/stream/threads8-8   5   59214758 ns/op   16.89 Mevents/s   31671721 B/op   2134 allocs/op
BenchmarkPipelineAnalyze/stream/threads8-8   5   61187217 ns/op   16.34 Mevents/s   33264956 B/op   2131 allocs/op
BenchmarkTraceCodecV2/encode/v2-8   10   20459627 ns/op   337.05 MB/s
PASS
ok   github.com/whisper-pm/whisper   12.3s
`

func TestParseFoldsRepetitionsAndMedians(t *testing.T) {
	doc, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GoOS != "linux" || doc.GoArch != "amd64" || doc.CPU != "AMD EPYC 7B13" {
		t.Errorf("header stanza mis-parsed: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(doc.Benchmarks))
	}
	pa := doc.Benchmarks[0]
	if pa.Name != "BenchmarkPipelineAnalyze/stream/threads8" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be split off)", pa.Name)
	}
	if pa.Procs != 8 {
		t.Errorf("procs = %d, want 8 (the -8 suffix)", pa.Procs)
	}
	if len(pa.Samples) != 3 {
		t.Fatalf("got %d samples, want 3 (repetitions must fold)", len(pa.Samples))
	}
	if got := pa.Median["Mevents/s"]; got != 16.34 {
		t.Errorf("median Mevents/s = %v, want 16.34", got)
	}
	if got := pa.Median["ns/op"]; got != 61187217 {
		t.Errorf("median ns/op = %v, want 61187217", got)
	}
	enc := doc.Benchmarks[1]
	if len(enc.Samples) != 1 || enc.Median["MB/s"] != 337.05 {
		t.Errorf("codec entry mis-parsed: %+v", enc)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	doc, err := parse(strings.NewReader("BenchmarkBroken notanumber ns/op\n--- BENCH: x\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("got %d benchmarks from junk input, want 0", len(doc.Benchmarks))
	}
}

func TestRunEndToEnd(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-note", "test box"}, strings.NewReader(benchOutput), &out, &errBuf)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errBuf.String())
	}
	var doc document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Note != "test box" || len(doc.Benchmarks) != 2 {
		t.Errorf("round-trip mismatch: %+v", doc)
	}
}

func TestRunErrorPaths(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(nil, strings.NewReader("no results here\n"), &out, &errBuf); code != 1 {
		t.Errorf("empty input: exit %d, want 1", code)
	}
	if code := run([]string{"stray"}, strings.NewReader(""), &out, &errBuf); code != 2 {
		t.Errorf("stray args: exit %d, want 2", code)
	}
}

// TestParseKeepsProcsLevelsDistinct pins the scaling-matrix fix: the
// same benchmark at different GOMAXPROCS levels (go test -cpu 1,2)
// must stay separate entries — folding them silently corrupts the
// medians — and a suffix-less line (GOMAXPROCS=1) records procs 1.
func TestParseKeepsProcsLevelsDistinct(t *testing.T) {
	in := `BenchmarkStreamScaling/threads4   5   100 ns/op   10.0 Mevents/s
BenchmarkStreamScaling/threads4-2   5   60 ns/op   17.0 Mevents/s
BenchmarkStreamScaling/threads4-2   5   50 ns/op   20.0 Mevents/s
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d entries, want 2 (one per GOMAXPROCS level)", len(doc.Benchmarks))
	}
	p1, p2 := doc.Benchmarks[0], doc.Benchmarks[1]
	if p1.Procs != 1 || len(p1.Samples) != 1 || p1.Median["Mevents/s"] != 10.0 {
		t.Errorf("suffix-less entry mis-parsed: %+v", p1)
	}
	if p2.Procs != 2 || len(p2.Samples) != 2 || p2.Median["Mevents/s"] != 18.5 {
		t.Errorf("procs=2 entry mis-parsed: %+v", p2)
	}
	if p1.Name != p2.Name || p1.Name != "BenchmarkStreamScaling/threads4" {
		t.Errorf("names diverged: %q vs %q", p1.Name, p2.Name)
	}
}

// TestParseKeepsPackagesDistinct covers input that concatenates two
// packages' runs (go test -bench ... . ./internal/trace): the document
// keeps the first package, later packages' entries name their own.
func TestParseKeepsPackagesDistinct(t *testing.T) {
	in := benchOutput + `pkg: github.com/whisper-pm/whisper/internal/trace
BenchmarkTraceAppend-2   80   15385053 ns/op   15.39 ns/event   32.51 B/event
`
	doc, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Pkg != "github.com/whisper-pm/whisper" || len(doc.Benchmarks) != 3 {
		t.Fatalf("pkg = %q with %d entries, want the first package and 3", doc.Pkg, len(doc.Benchmarks))
	}
	if doc.Benchmarks[0].Pkg != "" {
		t.Errorf("entry of the document's package carries pkg %q", doc.Benchmarks[0].Pkg)
	}
	if ap := doc.Benchmarks[2]; ap.Pkg != "github.com/whisper-pm/whisper/internal/trace" || ap.Median["ns/event"] != 15.39 {
		t.Errorf("second package's entry mis-parsed: %+v", ap)
	}
}
