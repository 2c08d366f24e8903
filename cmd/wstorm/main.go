// Command wstorm drives the scenario engine: declarative multi-tenant
// traffic over the WHISPER apps and the sharded kvservice, with crash
// storms that power-fail every persistence domain under live load and
// validate each tenant's recovered state online. It also runs the
// PM-primitives microsuite that decomposes app costs into the four
// canonical update primitives.
//
// Usage:
//
//	wstorm -list                     # builtin scenarios and primitives
//	wstorm                           # run the "smoke" builtin
//	wstorm -scenario storm-mixed     # the acceptance crash storm
//	wstorm -f spec.txt -seed 7       # run a spec file
//	wstorm -o report.json            # byte-stable JSON report to a file
//	wstorm -san                      # also fail on sanitizer errors
//	wstorm -prims -o table.json      # primitives decomposition table
//	wstorm -metrics m.json           # dump scenario_* metrics on exit
//
// Exit status is 1 on oracle violations (or, with -san, sanitizer
// errors), 2 on usage errors.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/scenario"
	"github.com/whisper-pm/whisper/internal/scenario/prims"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so tests can call it
// directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("wstorm", stderr)
	list := fs.Bool("list", false, "list builtin scenarios and primitive classes")
	name := fs.String("scenario", "smoke", "builtin scenario to run")
	file := fs.String("f", "", "run a scenario spec file instead of a builtin")
	seed := fs.Int64("seed", 1, "scenario seed (schedule, keys, crash points)")
	out := fs.String("o", "", "write the JSON report to this path (default stdout)")
	san := fs.Bool("san", false, "exit 1 on durability-sanitizer errors too")
	primsOnly := fs.Bool("prims", false, "run the PM-primitives microsuite instead")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	if !cliutil.Parse(fs, args) {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wstorm:", err)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "scenarios:")
		for _, n := range scenario.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		fmt.Fprintln(stdout, "primitives:")
		for _, n := range prims.Names() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	report := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		report = f
	}

	if *primsOnly {
		cfg := prims.Config{Seed: *seed}
		rows, err := prims.RunSuite(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "wstorm:", err)
			return 1
		}
		if err := prims.WriteJSON(report, cfg, rows); err != nil {
			return fail(err)
		}
		if err := cliutil.WriteMetrics(*metrics); err != nil {
			return fail(err)
		}
		return 0
	}

	var spec *scenario.Spec
	var err error
	if *file != "" {
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			return fail(rerr)
		}
		spec, err = scenario.Parse(string(src))
	} else {
		spec, err = scenario.Builtin(*name)
	}
	if err != nil {
		return fail(err)
	}

	res, err := scenario.Run(spec, scenario.Config{Seed: *seed})
	if err != nil {
		return fail(err)
	}
	if err := res.WriteJSON(report); err != nil {
		return fail(err)
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		return fail(err)
	}

	summary := fmt.Sprintf("wstorm: %s seed=%d ops=%d crashes=%d checks=%d violations=%d san_errors=%d",
		res.Scenario, res.Seed, res.Ops, res.CrashCycles, res.Checks, len(res.Violations), res.SanErrors())
	fmt.Fprintln(stderr, summary)
	if !res.Ok() {
		for _, v := range res.Violations {
			fmt.Fprintf(stderr, "wstorm: violation tenant=%s cycle=%d op=%d mode=%s seed=%d: %s\n",
				v.Tenant, v.Cycle, v.Op, v.Mode, v.Seed, v.Err)
		}
		return 1
	}
	if *san && res.SanErrors() > 0 {
		fmt.Fprintln(stderr, "wstorm: sanitizer errors present (-san)")
		return 1
	}
	return 0
}
