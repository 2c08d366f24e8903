// Command whisper runs WHISPER benchmarks on the simulated PM substrate
// and reports Table 1 (epochs per second), optionally saving raw traces
// for offline analysis with wanalyze/hopssim.
//
// Usage:
//
//	whisper [-bench name] [-clients n] [-ops n] [-seed n] [-parallel n] [-trace dir] [-table1]
//	        [-san] [-metrics out.json] [-debug-addr :6060]
//
// -san puts the durability-ordering sanitizer (internal/pmsan) on every
// run and prints one report per app after the benchmark output; the
// process exits 1 if any report holds an error-class site.
//
// With no -bench, the whole suite runs, up to -parallel benchmarks at a
// time (default: one worker per CPU). Each run owns its own simulated
// device and scheduler and is seeded independently, so the output is
// byte-identical to -parallel=1 for a fixed seed — with or without
// -metrics, which only snapshots counters after the runs finish.
//
// Every run is one pass: the app's events reach the analysis, the
// sanitizer and the -trace file writer as they are recorded, and no trace
// is retained. Exit status is 1 when a run or the sanitizer fails, 2 on
// usage errors.
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

var paperRates = map[string]string{
	"echo": "1.6M", "ycsb": "5M", "tpcc": "7.3M", "redis": "1.3M",
	"ctree": "1M", "hashmap": "1.3M", "vacation": "700K",
	"memcached": "1.5M", "nfs": "250K", "exim": "6250", "mysql": "60K",
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
	table1 := fs.Bool("table1", false, "print only the Table 1 epoch-rate rows")
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

	cfg := whisper.Config{Clients: *clients, Ops: *ops, Seed: *seed}

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
	passes, err := whisper.RunAllFused(names, cfg, whisper.FusedConfig{Sanitize: *san}, *parallel, traceOut)
	if err != nil {
		return fail(err)
	}

	if *table1 {
		fmt.Fprintf(stdout, "%-10s %-10s %-14s %s\n", "Benchmark", "Layer", "Epochs/sec", "Paper (Table 1)")
	}
	for _, p := range passes {
		rep := p.Report
		if *table1 {
			fmt.Fprintf(stdout, "%-10s %-10s %-14.3g %s\n", rep.App, rep.Layer,
				rep.EpochsPerSecond, paperRates[rep.App])
		} else {
			fmt.Fprint(stdout, rep.String())
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
