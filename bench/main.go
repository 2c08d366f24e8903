// Command bench is the repository's one benchmark: five named workloads,
// end-to-end metrics on the simulated and the wall clock, and a traced
// run that attributes them to layers from outside, by timing calls into
// whisper.* and the exported functions of the internal packages.
// BENCHMARK.json at the repo root declares it; README.md explains the
// workloads, the metrics and how to compare two commits.
//
//	go run ./bench -workload all -seed 1 -o bench/out/a.json
//	go run ./bench -workload kv_churn -trace 1
//	go run ./bench -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// procs pins GOMAXPROCS: the reference box has two cores, and before Go
// 1.25 the runtime would otherwise size itself to the host, not the
// container.
const procs = 2

// manifestPath and outDir are relative to the repo root, where the
// benchmark is run from.
const (
	manifestPath = "BENCHMARK.json"
	outDir       = "bench/out"
)

// environment records where a result set was measured.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// resultSet is the file -o writes and -compare reads.
type resultSet struct {
	Env     environment `json:"env"`
	Results []result    `json:"results"`
}

// layerRow is one line of a traced run's per-layer table: a metric the
// workload measured, with its layer and the end-to-end metric it should move.
type layerRow struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"should_move"`
}

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Env      environment `json:"env"`
	Result   result      `json:"result"`
	PerLayer []layerRow  `json:"per_layer"`
	// SelfNS is each span name's self time: its spans' durations minus
	// their children's.
	SelfNS map[string]int64 `json:"self_ns"`
	Spans  []span           `json:"spans"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult writes every metric by name with its unit, then the
// failure accounting and the digest.
func printResult(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-10s %-28s %16.6g %s\n", r.Workload, n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-10s %-28s %16d\n", r.Workload, "passes", r.Passes)
	fmt.Fprintf(w, "%-10s %-28s %16d\n", r.Workload, "ops_attempted", r.Attempted)
	fmt.Fprintf(w, "%-10s %-28s %16d\n", r.Workload, "ops_failed", r.Failed)
	fmt.Fprintf(w, "%-10s %-28s %s\n", r.Workload, "sim_digest", r.SimDigest)
}

// summary is the line a run ends its standard output with.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printSummary(w io.Writer, s summary) error {
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runOne measures one workload in this process.
func runOne(name string, cfg runConfig, out string) error {
	env := currentEnv()
	res, tr := measure(name, cfg)
	printResult(os.Stdout, res)
	if tr != nil {
		tf := traceFile{Env: env, Result: res, SelfNS: selfTimes(tr.spans), Spans: tr.spans}
		for _, d := range perLayer {
			if d.appliesTo(name) {
				tf.PerLayer = append(tf.PerLayer, layerRow{d.Layer, d.Name, res.Metrics[d.Name].Value, d.Unit, d.Moves})
			}
		}
		if err := writeJSON(filepath.Join(outDir, "trace-"+name+".json"), tf); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeJSON(out, resultSet{Env: env, Results: []result{res}}); err != nil {
			return err
		}
	}
	err := printSummary(os.Stdout, summary{
		Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	})
	if err == nil && res.Failed != 0 {
		err = fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return err
}

// runAll measures every workload, each in a process of its own so that
// no workload inherits another's heap, and merges their result sets.
func runAll(args []string, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Env: currentEnv()}
	total := summary{Correct: true, Metrics: map[string]metric{}}
	var failures []string
	for _, name := range workloadNames {
		part := filepath.Join(outDir, "part-"+name+".json")
		cmd := exec.Command(self, append([]string{"-workload", name, "-o", part}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		var ps resultSet
		data, err := os.ReadFile(part)
		if err == nil {
			err = json.Unmarshal(data, &ps)
		}
		os.Remove(part)
		if err != nil || len(ps.Results) != 1 {
			return fmt.Errorf("%s: no result (%v)", name, errors.Join(runErr, err))
		}
		if runErr != nil {
			failures = append(failures, name)
		}
		set.Results = append(set.Results, ps.Results[0])
		total.Attempted += ps.Results[0].Attempted
		total.Failed += ps.Results[0].Failed
	}
	total.Correct = total.Failed == 0
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return err
		}
	}
	if err := printSummary(os.Stdout, total); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failures, ", "))
	}
	return nil
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed for every generated input (2 is the held-out seed)")
	seconds := flag.Float64("seconds", 10, "run length: a workload repeats its timed region about this long on the reference box")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end ones")
	out := flag.String("o", "", "write the result set to this file")
	smoke := flag.Bool("smoke", false, "run at 1/50 scale (tests only; refused with -o)")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()

	runtime.GOMAXPROCS(procs)
	if err := run(*workload, *seed, *seconds, *trace, *out, *smoke, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, out string, smoke, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, not %d", trace)
	}
	if smoke && out != "" {
		return errors.New("-smoke results are not measurements: refusing to write them with -o")
	}
	// The benchmark builds and reads the repository it sits in.
	if _, err := os.Stat(manifestPath); err != nil {
		return fmt.Errorf("run from the repository root: %v", err)
	}
	if runtime.NumCPU() < procs {
		fmt.Fprintf(os.Stderr, "bench: warning: nproc=%d, below the reference box's %d; wall metrics will not compare\n", runtime.NumCPU(), procs)
	}
	cfg := runConfig{seed: seed, scale: 1, seconds: seconds, trace: trace == 1}
	if smoke {
		cfg.scale, cfg.seconds = smokeScale, 0 // one pass each
	}
	if workload == "all" {
		pass := []string{"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if smoke {
			// Parts are merged, not recorded: -smoke with the child's own
			// -o is refused, so smoke runs go through runOne directly.
			for _, name := range workloadNames {
				if err := runOne(name, cfg, ""); err != nil {
					return err
				}
			}
			return nil
		}
		return runAll(pass, out)
	}
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q (have %s, all)", workload, strings.Join(workloadNames, ", "))
	}
	return runOne(workload, cfg, out)
}
