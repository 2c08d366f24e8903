// Command wbench converts `go test -bench` output into a stable JSON
// document, so benchmark results can be committed (BENCH_*.json) and
// uploaded as CI artifacts without hand-editing test output.
//
// Usage:
//
//	go test -bench BenchmarkPipelineAnalyze -count 3 . | wbench -o BENCH.json
//	wbench -note "nproc=1 container" < bench.txt
//
// Repeated runs of the same benchmark (from -count N) are folded into one
// entry carrying every sample plus the median, which is the number to
// quote on noisy machines. Unknown lines pass through untouched to stderr
// filters upstream; wbench only consumes lines that look like benchmark
// results (Benchmark<Name>-P <iters> <value> <unit> ...).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/whisper-pm/whisper/internal/cliutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// sample is one parsed benchmark result line: ns/op plus any extra
// metrics the benchmark reported (Mevents/s, MB/s, B/op, allocs/op).
type sample struct {
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// entry folds all -count repetitions of one benchmark at one GOMAXPROCS
// level together. Distinct parallelism levels (the -P name suffix `go
// test -cpu` appends) stay distinct entries — folding them would corrupt
// any scaling matrix.
type entry struct {
	Name string `json:"name"`
	// Pkg is set only for results from a package other than the
	// document's (input that concatenates several packages' runs).
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS the samples ran at (the -P suffix; 1 when
	// the runner printed no suffix).
	Procs   int                `json:"procs,omitempty"`
	Samples []sample           `json:"samples"`
	Median  map[string]float64 `json:"median"`
}

type document struct {
	Note       string   `json:"note,omitempty"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []*entry `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("wbench", stderr)
	out := fs.String("o", "", "output file (default stdout)")
	note := fs.String("note", "", "free-form note recorded in the document")
	if !cliutil.Parse(fs, args) {
		return 2
	}

	doc, err := parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "wbench: %v\n", err)
		return 1
	}
	doc.Note = *note
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "wbench: no benchmark result lines found in input")
		return 1
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "wbench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(stderr, "wbench: %v\n", err)
		return 1
	}
	return 0
}

// parse reads go test -bench output, collecting result lines and the
// goos/goarch/pkg/cpu header stanza.
func parse(r io.Reader) (*document, error) {
	doc := &document{}
	byName := make(map[string]*entry)
	pkg := "" // the package whose results are being read
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if doc.Pkg == "" {
				doc.Pkg = pkg
			}
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		s, name, procs, ok := parseResult(line)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s %s-%d", pkg, name, procs)
		e := byName[key]
		if e == nil {
			e = &entry{Name: name, Procs: procs}
			if pkg != doc.Pkg {
				e.Pkg = pkg
			}
			byName[key] = e
			doc.Benchmarks = append(doc.Benchmarks, e)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range doc.Benchmarks {
		e.Median = medians(e.Samples)
	}
	return doc, nil
}

// parseResult parses one benchmark result line:
//
//	BenchmarkName-8   5   152104271 ns/op   6.574 Mevents/s   52149830 B/op
//
// The -P GOMAXPROCS suffix is split off the name and returned as procs
// (1 when absent: `go test` prints no suffix at GOMAXPROCS=1), so a
// scaling matrix run with -cpu 1,2,4,8 keeps each parallelism level as
// its own entry instead of folding them into one meaningless median.
func parseResult(line string) (sample, string, int, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return sample{}, "", 0, false
	}
	fields := strings.Fields(line)
	// Name, iteration count, then at least one "value unit" pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return sample{}, "", 0, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return sample{}, "", 0, false
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name = name[:i]
			procs = p
		}
	}
	s := sample{Metrics: map[string]float64{}}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, "", 0, false
		}
		if fields[i+1] == "ns/op" {
			s.NsPerOp = v
			seen = true
		} else {
			s.Metrics[fields[i+1]] = v
		}
	}
	if !seen {
		return sample{}, "", 0, false
	}
	if len(s.Metrics) == 0 {
		s.Metrics = nil
	}
	return s, name, procs, true
}

// medians computes the per-metric median across samples, keyed by unit
// ("ns/op" plus each extra metric).
func medians(samples []sample) map[string]float64 {
	cols := map[string][]float64{}
	for _, s := range samples {
		cols["ns/op"] = append(cols["ns/op"], s.NsPerOp)
		for k, v := range s.Metrics {
			cols[k] = append(cols[k], v)
		}
	}
	m := make(map[string]float64, len(cols))
	for k, vs := range cols {
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			m[k] = vs[n/2]
		} else {
			m[k] = (vs[n/2-1] + vs[n/2]) / 2
		}
	}
	return m
}
