// Command wcrash runs the systematic crash-consistency matrix: every
// selected WHISPER application runs its one workload on the simulated PM
// device — the paper's mix the suite records, and for the apps whose paper
// mix skips an operation recovery must handle the checker's mix too — is
// crashed at chosen operation-boundary and mid-operation points under all
// three crash modes, rebooted through its recovery path, and validated
// against a volatile oracle (acknowledged operations must survive, the
// in-flight operation must be atomically present or absent, structural
// invariants must always hold). A row of the output is one (app, mix).
//
// Usage:
//
//	wcrash                         # full default matrix, all eleven apps
//	wcrash -app vacation -v        # one app, per-cell violations
//	wcrash -seeds 12 -ops 32       # heavier sweep
//	wcrash -points 0,1,7,15,31     # explicit crash points
//	wcrash -modes mid-epoch        # one mode only
//	wcrash -smoke                  # fast CI matrix (all apps, small ops)
//	wcrash -metrics out.json       # dump checker metrics after the matrix
//
// Exit status is 1 if any cell produced a violation, 2 on usage errors.
package main

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/crashcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so error-path tests can
// call it directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("wcrash", stderr)
	app := fs.String("app", "", "check one application (default: all)")
	clients := fs.Int("clients", 0, "client threads (0 = checker default)")
	ops := fs.Int("ops", 0, "operations per run, across clients (0 = checker default)")
	seeds := fs.Int("seeds", 0, "number of workload seeds 1..N (0 = checker default of 8)")
	points := fs.String("points", "", "comma-separated crash points (default 0,1,Ops/2,Ops-1)")
	modes := fs.String("modes", "", "comma-separated modes: all-persisted,mid-epoch,adversarial-subset (default all)")
	smoke := fs.Bool("smoke", false, "fast CI matrix: all apps, 2 seeds, 8 ops")
	verbose := fs.Bool("v", false, "print every violation, not just per-app summaries")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	if !cliutil.Parse(fs, args) {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "wcrash:", err)
		return 2
	}

	cfg := crashcheck.Config{Clients: *clients, Ops: *ops}
	if *smoke {
		cfg.Ops = 8
		cfg.Seeds = []int64{1, 2}
	}
	if *seeds > 0 {
		cfg.Seeds = nil // -seeds replaces smoke's seeds, it does not extend them
		for s := int64(1); s <= int64(*seeds); s++ {
			cfg.Seeds = append(cfg.Seeds, s)
		}
	}
	var err error
	if cfg.Points, err = parsePoints(*points); err != nil {
		return fail(err)
	}
	// The checker clamps a crash point past the run's last operation to
	// that operation, so a point out of range would check another one.
	runOps, lastPoint := cmp.Or(cfg.Ops, crashcheck.DefaultOps), -1
	for _, p := range cfg.Points {
		lastPoint = max(lastPoint, p)
	}
	if !cliutil.InRange(fs,
		cliutil.Check{OK: *clients >= 0, Flag: "clients", Want: "0 for the checker default, or more"},
		cliutil.Check{OK: *ops >= 0, Flag: "ops", Want: "0 for the checker default, or more"},
		cliutil.Check{OK: *seeds >= 0, Flag: "seeds", Want: "0 for the checker default, or more"},
		cliutil.Check{OK: lastPoint < runOps, Flag: "points", Want: fmt.Sprintf("points below the run's %d operations", runOps)},
	) {
		return 2
	}
	if cfg.Modes, err = parseModes(*modes); err != nil {
		return fail(err)
	}

	apps := crashcheck.Suite()
	if *app != "" {
		// Validate before running anything: an unknown app must be a clean
		// usage error, not a mid-matrix failure.
		a, err := crashcheck.Lookup(*app)
		if err != nil {
			return fail(fmt.Errorf("unknown app %q (have %s)", *app, strings.Join(crashcheck.Apps(), ", ")))
		}
		apps = []crashcheck.App{*a}
	}

	fmt.Fprintf(stdout, "%-10s  %-7s  %-7s  %-10s  %-8s  %s\n", "app", "mix", "cells", "violations", "elapsed", "status")
	failed := false
	for _, a := range apps {
		for _, mix := range a.Mixes {
			rep, err := crashcheck.CheckApp(a.Name, mix, cfg)
			if err != nil {
				return fail(err)
			}
			status := "ok"
			if !rep.Ok() {
				status = "FAIL"
				failed = true
			}
			fmt.Fprintf(stdout, "%-10s  %-7s  %-7d  %-10d  %-8s  %s\n",
				rep.App, rep.Mix, rep.Cells, len(rep.Violations), rep.Elapsed.Round(1e6), status)
			if *verbose || !rep.Ok() {
				for _, v := range rep.Violations {
					fmt.Fprintf(stdout, "    %s\n", v)
				}
			}
		}
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		return fail(err)
	}
	if failed {
		return 1
	}
	return 0
}

func parsePoints(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad crash point %q: %v", f, err)
		}
		if p < 0 {
			return nil, fmt.Errorf("bad crash point %d: points are operation indices and must be >= 0", p)
		}
		out = append(out, p)
	}
	return out, nil
}

func parseModes(s string) ([]crashcheck.Mode, error) {
	if s == "" {
		return nil, nil
	}
	var out []crashcheck.Mode
	for _, f := range strings.Split(s, ",") {
		name := strings.TrimSpace(f)
		found := false
		for _, m := range crashcheck.Modes() {
			if m.String() == name {
				out = append(out, m)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown mode %q (have all-persisted, mid-epoch, adversarial-subset)", name)
		}
	}
	return out, nil
}
