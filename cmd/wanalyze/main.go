// Command wanalyze reproduces the paper's trace analyses: Figure 3
// (transaction sizes), Figure 4 (epoch size distribution), Figure 5
// (self/cross dependencies), and the §5.2 cross-cutting statistics (write
// amplification, NTI fractions, small singletons).
//
// It analyzes saved traces (-dir, files written by `whisper -trace`) or,
// with -run, regenerates the suite in-process first.
//
// Usage:
//
//	wanalyze -run [-fig3] [-fig4] [-fig5] [-amp] [-nti] [-san]
//	wanalyze -dir traces/ -fig3
//	wanalyze -dir traces/ -san -cache
//	wanalyze -run -metrics out.json
//
// -san additionally runs each trace through the durability-ordering
// sanitizer (internal/pmsan) and prints one report per app; exit status
// is 1 if any ordering error is found. -cache adds the Table 3
// cache-hierarchy simulation and prints where accesses were serviced.
// Every selected analysis rides one pass over each trace: a file is
// decoded once however many of them consume it.
//
// With -run the suite is regenerated -parallel apps at a time, every
// selected analysis consuming each app's events as they are recorded, so
// no trace is ever retained.
//
// With no figure flags, everything prints. Exit status is 1 when there is
// nothing to analyze or a trace fails to load, 2 on usage errors (giving
// both -run and -dir is one).
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cliutil"
)

var paper = map[string]struct {
	median   int
	selfDeps float64
}{
	"echo": {307, 54.5}, "ycsb": {42, 40.2}, "tpcc": {197, 27.18},
	"redis": {6, 82.5}, "ctree": {11, 79}, "hashmap": {11, 81},
	"vacation": {4, 40}, "memcached": {4, 63.5}, "nfs": {2, 55},
	"exim": {5, 45.27}, "mysql": {7, 17.89},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so error-path tests can
// call it directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("wanalyze", stderr)
	runSuite := fs.Bool("run", false, "regenerate the suite in-process")
	dir := fs.String("dir", "", "directory of saved .wspr traces")
	ops := fs.Int("ops", 0, "operations per client when regenerating")
	seed := fs.Int64("seed", 1, "workload seed when regenerating")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max concurrent benchmark runs with -run (1 = serial)")
	fig3 := fs.Bool("fig3", false, "print Figure 3 (epochs per transaction)")
	fig4 := fs.Bool("fig4", false, "print Figure 4 (epoch size distribution)")
	fig5 := fs.Bool("fig5", false, "print Figure 5 (dependencies)")
	amp := fs.Bool("amp", false, "print write amplification (§5.2)")
	nti := fs.Bool("nti", false, "print NTI fractions (§5.2)")
	san := fs.Bool("san", false, "run the durability-ordering sanitizer over each trace; exit 1 on ordering errors")
	cache := fs.Bool("cache", false, "simulate the Table 3 cache hierarchy over each trace")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	if !cliutil.Parse(fs, args) || !cliutil.InRange(fs,
		cliutil.Check{OK: *ops >= 0, Flag: "ops", Want: "0 for the suite default, or more"},
		cliutil.Check{OK: *parallel >= 1, Flag: "parallel", Want: "1 or more"},
	) {
		return 2
	}
	if *runSuite && *dir != "" {
		fmt.Fprintln(stderr, "wanalyze: -run and -dir are two inputs; give one")
		return 2
	}

	// -san and -cache act as section selectors like the figure flags:
	// alone they print only their own reports.
	all := !*fig3 && !*fig4 && !*fig5 && !*amp && !*nti && !*san && !*cache

	var passes []*whisper.FusedReport
	var err error
	fcfg := whisper.FusedConfig{Sanitize: *san, Cache: *cache}
	switch {
	case *runSuite:
		passes, err = whisper.RunAllFused(whisper.Names(), whisper.Config{Ops: *ops, Seed: *seed}, fcfg, *parallel, nil)
	case *dir != "":
		passes, err = readDir(*dir, fcfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "wanalyze:", err)
		return 1
	}
	if len(passes) == 0 {
		fmt.Fprintln(stderr, "wanalyze: nothing to analyze (use -run or -dir)")
		return 1
	}
	reports := make([]*whisper.Report, len(passes))
	for i, p := range passes {
		reports[i] = p.Report
	}

	if all || *fig3 {
		fmt.Fprintln(stdout, "== Figure 3: median epochs per transaction ==")
		fmt.Fprintf(stdout, "%-10s %-10s %s\n", "Benchmark", "Measured", "Paper")
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s %-10d %d\n", r.App, r.MedianTxEpochs, paper[r.App].median)
		}
		fmt.Fprintln(stdout)
	}
	if all || *fig4 {
		fmt.Fprintln(stdout, "== Figure 4: epoch size distribution (64B lines) ==")
		fmt.Fprintf(stdout, "%-10s", "Benchmark")
		for _, l := range whisper.SizeBucketLabels {
			fmt.Fprintf(stdout, " %6s", l)
		}
		fmt.Fprintln(stdout)
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s", r.App)
			for _, f := range r.EpochSizes {
				fmt.Fprintf(stdout, " %5.1f%%", f*100)
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintln(stdout)
	}
	if all || *fig5 {
		fmt.Fprintln(stdout, "== Figure 5: epoch dependencies within 50 µs ==")
		fmt.Fprintf(stdout, "%-10s %-12s %-12s %s\n", "Benchmark", "self-dep", "cross-dep", "paper self-dep")
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s %-12.2f %-12.3f %.2f\n",
				r.App, r.SelfDeps*100, r.CrossDeps*100, paper[r.App].selfDeps)
		}
		fmt.Fprintln(stdout)
	}
	if all || *amp {
		fmt.Fprintln(stdout, "== §5.2: write amplification (extra bytes per user byte) ==")
		paperAmp := map[string]string{
			"nfs": "~10%", "exim": "~10%", "mysql": "~10%",
			"vacation": "300-600%", "memcached": "300-600%",
			"redis": "~1000%", "ctree": "~1000%", "hashmap": "~1000%",
			"ycsb": "200-1400%", "tpcc": "200-1400%", "echo": "n/a",
		}
		fmt.Fprintf(stdout, "%-10s %-12s %s\n", "Benchmark", "Measured", "Paper")
		for _, r := range reports {
			fmt.Fprintf(stdout, "%-10s %-12.0f %s\n", r.App, r.Amplification*100, paperAmp[r.App])
		}
		fmt.Fprintln(stdout)
	}
	if all || *nti {
		fmt.Fprintln(stdout, "== §5.2: non-temporal store fraction (bytes) ==")
		fmt.Fprintf(stdout, "%-10s %-12s %s\n", "Benchmark", "Measured", "Paper")
		for _, r := range reports {
			ref := "-"
			switch r.Layer {
			case "pmfs":
				ref = "~96%"
			case "mnemosyne":
				ref = "~67%"
			}
			fmt.Fprintf(stdout, "%-10s %-12.1f %s\n", r.App, r.NTIFraction*100, ref)
		}
	}
	if *cache {
		fmt.Fprintln(stdout, "== Cache hierarchy (Table 3): access servicing ==")
		fmt.Fprintf(stdout, "%-10s %10s %10s %10s %10s %10s %10s %10s %10s\n",
			"Benchmark", "L1", "L2", "remote", "DRAM-rd", "DRAM-wr", "PM-rd", "PM-wr", "NT-wr")
		for _, p := range passes {
			cs := p.Cache
			fmt.Fprintf(stdout, "%-10s %10d %10d %10d %10d %10d %10d %10d %10d\n",
				p.Report.App, cs.L1Hits, cs.L2Hits, cs.RemoteHits,
				cs.DRAMReads, cs.DRAMWrites, cs.PMReads, cs.PMWrites, cs.NTWrites)
		}
		fmt.Fprintln(stdout)
	}
	sanErrors := 0
	if *san {
		fmt.Fprintln(stdout, "== Sanitizer: durability-ordering violations ==")
		for _, p := range passes {
			fmt.Fprint(stdout, p.San.String())
			sanErrors += p.San.Errors()
		}
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		fmt.Fprintln(stderr, "wanalyze:", err)
		return 1
	}
	if sanErrors > 0 {
		fmt.Fprintf(stderr, "wanalyze: sanitizer found %d ordering error sites\n", sanErrors)
		return 1
	}
	return 0
}

// readDir makes one pass over each saved trace in dir, the regular files
// named *.wspr in name order: the file is opened and decoded once, whatever
// fcfg adds to the epoch analysis.
func readDir(dir string, fcfg whisper.FusedConfig) ([]*whisper.FusedReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*whisper.FusedReport
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ".wspr") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		fr, err := whisper.AnalyzeReaderFused(f, fcfg)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		out = append(out, fr)
	}
	return out, nil
}
