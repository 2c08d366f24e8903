// Command hopssim reproduces the paper's simulation studies on the
// simulator-suitable subset of WHISPER: Figure 6 (PM accesses as a share
// of all memory accesses) and Figure 10 (runtime under the five
// persistence models, normalized to the x86-64 NVM baseline).
//
// Usage:
//
//	hopssim [-fig6] [-fig10] [-ops n] [-seed n] [-pb n] [-drain n] [-metrics out.json]
//
// With no figure flags, both print. -drain sweeps the HOPS persist-buffer
// drain launch threshold (paper §6.4 uses 16); -metrics dumps the replay's
// occupancy and stall histograms per model.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/mem"
)

var paperPMShare = map[string]float64{
	"echo": 5.49, "ycsb": 8.71, "redis": 0.74,
	"ctree": 3.32, "hashmap": 2.6, "vacation": 0.36,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so tests can call it
// directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("hopssim", stderr)
	fig6 := fs.Bool("fig6", false, "print Figure 6 (PM share of accesses)")
	fig10 := fs.Bool("fig10", false, "print Figure 10 (HOPS performance)")
	ops := fs.Int("ops", 0, "operations per client (0 = suite default)")
	seed := fs.Int64("seed", 1, "workload seed")
	pb := fs.Int("pb", 0, "persist-buffer entries per thread (0 = paper's 32)")
	drain := fs.Int("drain", 0, "PB occupancy that launches the background drain (0 = paper's 16)")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	if !cliutil.Parse(fs, args) || !cliutil.InRange(fs,
		cliutil.Check{OK: *ops >= 0, Flag: "ops", Want: "0 for the suite default, or more"},
		cliutil.Check{OK: *pb >= 0, Flag: "pb", Want: "0 for the paper's 32, or more"},
		cliutil.Check{OK: *drain >= 0, Flag: "drain", Want: "0 for the paper's 16, or more"},
	) {
		return 2
	}
	both := !*fig6 && !*fig10

	cfg := whisper.DefaultHOPSConfig()
	if *pb > 0 {
		cfg.PBEntries = *pb
		if cfg.DrainAt > *pb {
			cfg.DrainAt = *pb / 2
		}
		if cfg.DrainAt == 0 {
			cfg.DrainAt = 1
		}
	}
	if *drain > 0 {
		// The replay clamps the threshold to the buffer size
		// (hops.Config.resolved); the Figure 10 header must name the
		// machine that was simulated, not the one requested.
		cfg.DrainAt = min(*drain, cfg.PBEntries)
	}

	// The simulator-suitable subset of §5.3/§6.4, in suite order.
	var subset []string
	for _, b := range whisper.Benchmarks() {
		if b.Simulatable {
			subset = append(subset, b.Name)
		}
	}
	reports := make(map[string]*whisper.Report)
	for _, name := range subset {
		rep, err := whisper.Run(name, whisper.Config{Ops: *ops, Seed: *seed})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		reports[name] = rep
	}

	if both || *fig6 {
		fmt.Fprintln(stdout, "== Figure 6: PM accesses among all memory accesses ==")
		fmt.Fprintf(stdout, "%-10s %-10s %s\n", "Benchmark", "Measured", "Paper")
		var sum float64
		for _, name := range subset {
			r := reports[name]
			fmt.Fprintf(stdout, "%-10s %-9.2f%% %.2f%%\n", name, r.PMShare*100, paperPMShare[name])
			sum += float64(r.PMShare * 100) // rounded, so arm64 fuses no FMADDD
		}
		fmt.Fprintf(stdout, "%-10s %-9.2f%% %.2f%%\n\n", "average", sum/float64(len(subset)), 3.54)
	}

	if both || *fig10 {
		fmt.Fprintf(stdout, "== Figure 10: normalized runtime (PB=%d entries, drain at %d, %d MCs) ==\n",
			cfg.PBEntries, cfg.DrainAt, mem.MCs)
		models := whisper.HOPSModels()
		fmt.Fprintf(stdout, "%-10s", "Benchmark")
		for _, m := range models {
			fmt.Fprintf(stdout, " %14s", m)
		}
		fmt.Fprintln(stdout)
		avg := make(map[string]float64)
		for _, name := range subset {
			norm := whisper.SimulateHOPS(reports[name].Trace, cfg)
			fmt.Fprintf(stdout, "%-10s", name)
			for _, m := range models {
				fmt.Fprintf(stdout, " %14.3f", norm[m])
				avg[m] += norm[m]
			}
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%-10s", "average")
		for _, m := range models {
			fmt.Fprintf(stdout, " %14.3f", avg[m]/float64(len(subset)))
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "\npaper averages: x86(NVM) 1.00, x86(PWQ) 0.845, HOPS(NVM) 0.757, HOPS(PWQ) 0.747, IDEAL 0.593")
	}

	if err := cliutil.WriteMetrics(*metrics); err != nil {
		fmt.Fprintln(stderr, "hopssim:", err)
		return 1
	}
	return 0
}
