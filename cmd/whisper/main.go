// Command whisper runs WHISPER benchmarks on the simulated PM substrate
// and reports Table 1 (epochs per second), optionally saving raw traces
// for offline analysis with wanalyze/hopssim.
//
// Usage:
//
//	whisper [-bench name] [-clients n] [-ops n] [-seed n] [-parallel n] [-trace dir] [-table1]
//	        [-stream] [-san] [-san-allow file] [-metrics out.json] [-debug-addr :6060]
//
// -san replays every run through the durability-ordering sanitizer
// (internal/pmsan) and prints one report per app after the benchmark
// output; the process exits 1 if any unsuppressed ordering error
// remains. -san-allow loads an allowlist of known findings to suppress.
//
// With no -bench, the whole suite runs, up to -parallel benchmarks at a
// time (default: one worker per CPU). Each run owns its own simulated
// device and scheduler and is seeded independently, so the output is
// byte-identical to -parallel=1 for a fixed seed — with or without
// -metrics, which only snapshots counters after the runs finish.
//
// -stream pipes each run straight into the analysis instead of retaining
// its trace (bounded memory, serial); the output, and the trace files
// -trace writes, are the same either way. Exit status is 1 when a run or
// the sanitizer fails, 2 on usage errors.
//
// -debug-addr serves net/http/pprof and expvar (the live metrics snapshot
// is published as the "whisper" expvar) for profiling long sweeps.
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
	stream := fs.Bool("stream", false, "pipe each run straight into the analysis instead of retaining its trace (bounded memory, serial)")
	table1 := fs.Bool("table1", false, "print only the Table 1 epoch-rate rows")
	san := fs.Bool("san", false, "run the durability-ordering sanitizer over each run; exit 1 on unsuppressed ordering errors")
	sanAllow := fs.String("san-allow", "", "allowlist file of known sanitizer findings to suppress (implies -san)")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	if !cliutil.Parse(fs, args) {
		return 2
	}
	fail := func(err error) int {
		// Errors from package whisper already carry the prefix.
		fmt.Fprintln(stderr, "whisper:", strings.TrimPrefix(err.Error(), "whisper: "))
		return 1
	}

	var allow *whisper.Allowlist
	if *sanAllow != "" {
		*san = true
		var err error
		if allow, err = whisper.LoadAllowlist(*sanAllow); err != nil {
			return fail(err)
		}
	}

	if *debugAddr != "" {
		// The metrics registry is atomic end to end, so scraping it while
		// benchmarks run is safe and does not perturb them.
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

	var reports []*whisper.Report
	var sanReports []*whisper.SanReport
	switch {
	case *stream:
		// Each run's events are analyzed as they are produced and no
		// trace is retained; runs execute serially (the app and its
		// analysis already pipeline within one run). The sanitizer and
		// the trace file ride the same pass, so neither costs a replay.
		for _, name := range names {
			fr, err := runStreamed(name, cfg, *traceDir, *san)
			if err != nil {
				return fail(err)
			}
			reports = append(reports, fr.Report)
			if fr.San != nil {
				sanReports = append(sanReports, fr.San)
			}
		}
	case *bench != "":
		rep, err := whisper.Run(*bench, cfg)
		if err != nil {
			return fail(err)
		}
		reports = []*whisper.Report{rep}
	default:
		var err error
		reports, err = whisper.RunAllParallel(cfg, *parallel)
		if err != nil {
			return fail(err)
		}
	}
	if !*stream {
		// These paths retain each trace; sanitize and save from it.
		// Report order follows the (deterministic) run order, so output
		// and files are byte-identical to the streaming path's.
		for _, rep := range reports {
			if *san {
				sanReports = append(sanReports, whisper.Sanitize(rep.Trace))
			}
			if *traceDir != "" {
				if err := saveTrace(*traceDir, rep); err != nil {
					return fail(err)
				}
			}
		}
	}

	if *table1 {
		fmt.Fprintf(stdout, "%-10s %-10s %-14s %s\n", "Benchmark", "Layer", "Epochs/sec", "Paper (Table 1)")
	}
	for _, rep := range reports {
		if *table1 {
			fmt.Fprintf(stdout, "%-10s %-10s %-14.3g %s\n", rep.App, rep.Layer,
				rep.EpochsPerSecond, paperRates[rep.App])
		} else {
			fmt.Fprint(stdout, rep.String())
		}
	}
	sanErrors := 0
	for _, sr := range sanReports {
		sr.ApplyAllowlist(allow)
		fmt.Fprint(stdout, sr.String())
		sanErrors += sr.Errors()
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		return fail(err)
	}
	if sanErrors > 0 {
		return fail(fmt.Errorf("sanitizer found %d unsuppressed ordering error sites", sanErrors))
	}
	return 0
}

// createTrace opens <dir>/<name>.wspr for writing, creating dir.
func createTrace(dir, name string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(dir, name+".wspr"))
}

// runStreamed runs one benchmark through the streaming pipeline, with the
// sanitizer on the same pass when san is set and the events written to
// <dir>/<name>.wspr when dir is set.
func runStreamed(name string, cfg whisper.Config, dir string, san bool) (*whisper.FusedReport, error) {
	var traceOut io.Writer // stays a nil interface, not a nil *os.File, when no file is wanted
	var f *os.File
	if dir != "" {
		var err error
		if f, err = createTrace(dir, name); err != nil {
			return nil, err
		}
		traceOut = f
	}
	fr, err := whisper.RunStreamFused(name, cfg, whisper.FusedConfig{Sanitize: san}, traceOut)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return fr, err
}

func saveTrace(dir string, rep *whisper.Report) error {
	f, err := createTrace(dir, rep.App)
	if err != nil {
		return err
	}
	err = rep.Trace.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
