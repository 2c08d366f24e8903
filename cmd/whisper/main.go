// Command whisper runs the WHISPER suite on the simulated PM substrate, or
// reads the traces it saved, and reports the paper's epoch analyses: Table
// 1 (epochs per second), Figure 3 (transaction sizes), Figure 4 (epoch
// size distribution), Figure 5 (self/cross dependencies), the §5.2
// statistics (write amplification, NTI fractions) and the Table 3 cache
// hierarchy.
//
// Usage:
//
//	whisper [-bench name] [-clients n] [-ops n] [-seed n] [-parallel n] [-trace dir]
//	        [-table1] [-fig3] [-fig4] [-fig5] [-amp] [-nti] [-cache]
//	        [-san] [-metrics out.json] [-debug-addr :6060]
//	whisper -dir traces/ [-table1] [-fig3] … [-cache] [-san] [-metrics out.json]
//
// With no section flag, each app's report prints. With -table1 or any of
// -fig3, -fig4, -fig5, -amp, -nti and -cache, only the selected sections
// print, in that order; -cache also adds the Table 3 cache-hierarchy
// simulation to the pass.
//
// -san puts the durability-ordering sanitizer (internal/pmsan) on every
// run and prints one report per app after the rest; the process exits 1
// if any report holds an error-class site.
//
// With no -bench, the whole suite runs, up to -parallel benchmarks at a
// time (default: one worker per CPU). Each run owns its own simulated
// device and scheduler and is seeded independently, so the output is
// byte-identical to -parallel=1 for a fixed seed — with or without
// -metrics, which only snapshots counters after the runs finish.
//
// Every run is one pass: the app's events reach the analysis, the
// sanitizer, the cache simulation and the -trace file writer as they are
// recorded, and no trace is retained. -dir reads the saved .wspr files in
// a directory, in name order, instead of running: each file is decoded
// once, whatever the flags add to the pass. Under -dir the run flags are
// ignored, except -trace, which is a usage error. Exit status is 1 when a
// run, a trace file or the sanitizer fails, 2 on usage errors.
//
// -debug-addr serves net/http/pprof and expvar (the live metrics snapshot
// is published as the "whisper" expvar) for profiling long sweeps. A live
// scrape sees the persist_* instruments as of each thread's last
// transaction boundary: a thread publishes its fences at TxEnd, not at
// every fence inside a transaction.
package main

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/obs"
)

// paper holds the paper's numbers per app: Table 1's epoch rate, Figure
// 3's median epochs per transaction, Figure 5's self-dependency share and
// §5.2's write amplification.
var paper = map[string]struct {
	rate     string
	median   int
	selfDeps float64
	amp      string
}{
	"echo":      {"1.6M", 307, 54.5, "n/a"},
	"ycsb":      {"5M", 42, 40.2, "200-1400%"},
	"tpcc":      {"7.3M", 197, 27.18, "200-1400%"},
	"redis":     {"1.3M", 6, 82.5, "~1000%"},
	"ctree":     {"1M", 11, 79, "~1000%"},
	"hashmap":   {"1.3M", 11, 81, "~1000%"},
	"vacation":  {"700K", 4, 40, "300-600%"},
	"memcached": {"1.5M", 4, 63.5, "300-600%"},
	"nfs":       {"250K", 2, 55, "~10%"},
	"exim":      {"6250", 5, 45.27, "~10%"},
	"mysql":     {"60K", 7, 17.89, "~10%"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so tests can call it
// directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("whisper", stderr)
	bench := fs.String("bench", "", "benchmark to run (default: whole suite)")
	clients := fs.Int("clients", 0, "client threads (0 = paper default)")
	ops := fs.Int("ops", 0, "operations per client (0 = suite default)")
	seed := fs.Int64("seed", 1, "workload seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "max concurrent benchmark runs (1 = serial)")
	traceDir := fs.String("trace", "", "directory to save raw traces")
	dir := fs.String("dir", "", "read the saved .wspr traces in this directory instead of running")
	cache := fs.Bool("cache", false, "simulate the Table 3 cache hierarchy and print where accesses were serviced")
	sections := []struct {
		on    *bool
		print func(io.Writer, []*whisper.FusedReport)
	}{
		{fs.Bool("table1", false, "print the Table 1 epoch-rate rows"), printTable1},
		{fs.Bool("fig3", false, "print Figure 3 (epochs per transaction)"), printFig3},
		{fs.Bool("fig4", false, "print Figure 4 (epoch size distribution)"), printFig4},
		{fs.Bool("fig5", false, "print Figure 5 (dependencies)"), printFig5},
		{fs.Bool("amp", false, "print write amplification (§5.2)"), printAmp},
		{fs.Bool("nti", false, "print NTI fractions (§5.2)"), printNTI},
		{cache, printCache},
	}
	san := fs.Bool("san", false, "run the durability-ordering sanitizer over each run; exit 1 on any ordering error")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	if !cliutil.Parse(fs, args) || !cliutil.InRange(fs,
		cliutil.Check{OK: *clients >= 0, Flag: "clients", Want: "0 for the paper default, or more"},
		cliutil.Check{OK: *ops >= 0, Flag: "ops", Want: "0 for the suite default, or more"},
		cliutil.Check{OK: *parallel >= 1, Flag: "parallel", Want: "1 or more"},
	) {
		return 2
	}
	if *dir != "" && *traceDir != "" {
		fmt.Fprintln(stderr, "whisper: -dir reads saved traces and -trace saves a run's; give one")
		return 2
	}
	fail := func(err error) int {
		// Errors from package whisper already carry the prefix.
		fmt.Fprintln(stderr, "whisper:", strings.TrimPrefix(err.Error(), "whisper: "))
		return 1
	}

	if *debugAddr != "" {
		// The metrics registry is atomic end to end, so scraping it while
		// benchmarks run is safe and does not perturb them. Device counters
		// are published when a run ends.
		expvar.Publish("whisper", expvar.Func(func() any {
			return obs.Default().Snapshot()
		}))
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(stderr, "whisper: debug server:", err)
			}
		}()
	}

	fcfg := whisper.FusedConfig{Sanitize: *san, Cache: *cache}
	var passes []*whisper.FusedReport
	var err error
	if *dir != "" {
		passes, err = readDir(*dir, fcfg)
	} else {
		names := whisper.Names()
		if *bench != "" {
			names = []string{*bench}
		}
		var traceOut func(name string) (io.WriteCloser, error)
		if *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				return fail(err)
			}
			traceOut = func(name string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(*traceDir, name+".wspr"))
			}
		}
		cfg := whisper.Config{Clients: *clients, Ops: *ops, Seed: *seed}
		passes, err = whisper.RunAllFused(names, cfg, fcfg, *parallel, traceOut)
	}
	if err != nil {
		return fail(err)
	}

	selected := false
	for _, s := range sections {
		if *s.on {
			s.print(stdout, passes)
			selected = true
		}
	}
	if !selected {
		for _, p := range passes {
			fmt.Fprint(stdout, p.Report.String())
		}
	}
	sanErrors := 0
	if *san {
		for _, p := range passes {
			fmt.Fprint(stdout, p.San.String())
			sanErrors += p.San.Errors()
		}
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		return fail(err)
	}
	if sanErrors > 0 {
		return fail(fmt.Errorf("sanitizer found %d ordering error sites", sanErrors))
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
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no .wspr trace: nothing to analyze", dir)
	}
	return out, nil
}

func printTable1(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintf(w, "%-10s %-10s %-14s %s\n", "Benchmark", "Layer", "Epochs/sec", "Paper (Table 1)")
	for _, p := range passes {
		r := p.Report
		fmt.Fprintf(w, "%-10s %-10s %-14.3g %s\n", r.App, r.Layer, r.EpochsPerSecond, paper[r.App].rate)
	}
}

func printFig3(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintln(w, "== Figure 3: median epochs per transaction ==")
	fmt.Fprintf(w, "%-10s %-10s %s\n", "Benchmark", "Measured", "Paper")
	for _, p := range passes {
		r := p.Report
		fmt.Fprintf(w, "%-10s %-10d %d\n", r.App, r.MedianTxEpochs, paper[r.App].median)
	}
	fmt.Fprintln(w)
}

func printFig4(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintln(w, "== Figure 4: epoch size distribution (64B lines) ==")
	fmt.Fprintf(w, "%-10s", "Benchmark")
	for _, l := range whisper.SizeBucketLabels {
		fmt.Fprintf(w, " %6s", l)
	}
	fmt.Fprintln(w)
	for _, p := range passes {
		fmt.Fprintf(w, "%-10s", p.Report.App)
		for _, f := range p.Report.EpochSizes {
			fmt.Fprintf(w, " %5.1f%%", f*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func printFig5(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintln(w, "== Figure 5: epoch dependencies within 50 µs ==")
	fmt.Fprintf(w, "%-10s %-12s %-12s %s\n", "Benchmark", "self-dep", "cross-dep", "paper self-dep")
	for _, p := range passes {
		r := p.Report
		fmt.Fprintf(w, "%-10s %-12.2f %-12.3f %.2f\n", r.App, r.SelfDeps*100, r.CrossDeps*100, paper[r.App].selfDeps)
	}
	fmt.Fprintln(w)
}

func printAmp(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintln(w, "== §5.2: write amplification (extra bytes per user byte) ==")
	fmt.Fprintf(w, "%-10s %-12s %s\n", "Benchmark", "Measured", "Paper")
	for _, p := range passes {
		r := p.Report
		fmt.Fprintf(w, "%-10s %-12.0f %s\n", r.App, r.Amplification*100, paper[r.App].amp)
	}
	fmt.Fprintln(w)
}

func printNTI(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintln(w, "== §5.2: non-temporal store fraction (bytes) ==")
	fmt.Fprintf(w, "%-10s %-12s %s\n", "Benchmark", "Measured", "Paper")
	for _, p := range passes {
		r := p.Report
		ref := "-"
		switch r.Layer {
		case "pmfs":
			ref = "~96%"
		case "mnemosyne":
			ref = "~67%"
		}
		fmt.Fprintf(w, "%-10s %-12.1f %s\n", r.App, r.NTIFraction*100, ref)
	}
}

func printCache(w io.Writer, passes []*whisper.FusedReport) {
	fmt.Fprintln(w, "== Cache hierarchy (Table 3): access servicing ==")
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %10s %10s %10s\n",
		"Benchmark", "L1", "L2", "remote", "DRAM-rd", "DRAM-wr", "PM-rd", "PM-wr", "NT-wr")
	for _, p := range passes {
		cs := p.Cache
		fmt.Fprintf(w, "%-10s %10d %10d %10d %10d %10d %10d %10d %10d\n",
			p.Report.App, cs.L1Hits, cs.L2Hits, cs.RemoteHits,
			cs.DRAMReads, cs.DRAMWrites, cs.PMReads, cs.PMWrites, cs.NTWrites)
	}
	fmt.Fprintln(w)
}
