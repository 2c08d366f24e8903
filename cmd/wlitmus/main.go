// Command wlitmus runs the persistency-model litmus checker: it
// enumerates every durable state a small PM program's persistency model
// (Px86 or epoch) can leave behind a crash and evaluates the program's
// recovery invariant against each one. With no flags it runs the builtin
// shape suite — the classic ordering idioms plus the bug shapes earlier
// crash-sampling work caught — and fails if any verdict contradicts the
// suite's pins.
//
// Usage:
//
//	wlitmus                        # builtin suite, full reports
//	wlitmus -list                  # shape names, one per line
//	wlitmus -shape dirty-at-commit # one builtin shape
//	wlitmus -f prog.litmus         # a litmus DSL file (exit 1 if violated)
//	wlitmus -crossval -seeds 4     # also crash-sample the device against
//	                               # the enumeration (px86 shapes)
//	wlitmus -metrics out.json      # dump checker metrics on exit
//
// Exit status is 1 when the builtin suite has an unexpected verdict, a
// -f/-shape program is violated, or cross-validation finds a sampled
// state the enumeration lacks; 2 on usage errors.
package main

import (
	"fmt"
	"io"
	"os"

	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/pmodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so error-path tests can
// call it directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("wlitmus", stderr)
	shape := fs.String("shape", "", "run one builtin shape by name")
	file := fs.String("f", "", "run a litmus DSL file instead of the builtin suite")
	list := fs.Bool("list", false, "list builtin shape names and exit")
	crossval := fs.Bool("crossval", false, "cross-validate the enumeration against device crash sampling (px86 only)")
	seeds := fs.Int("seeds", 3, "adversarial seeds per crash point for -crossval")
	metrics := fs.String("metrics", "", "write a JSON metrics snapshot to this path on exit")
	if !cliutil.Parse(fs, args) || !cliutil.InRange(fs,
		cliutil.Check{OK: *seeds >= 1, Flag: "seeds", Want: "1 or more"},
	) {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wlitmus:", err)
		return 2
	}
	if *shape != "" && *file != "" {
		return fail(fmt.Errorf("-shape and -f are mutually exclusive"))
	}

	if *list {
		for _, s := range pmodel.Suite() {
			fmt.Fprintln(stdout, s.Name)
		}
		return 0
	}

	// Single-program mode: -shape or -f. The verdict drives the exit
	// code, so a litmus file works as a CI assertion on its own.
	if *shape != "" || *file != "" {
		var src string
		if *shape != "" {
			s, ok := pmodel.ShapeByName(*shape)
			if !ok {
				return fail(fmt.Errorf("whisper: unknown litmus shape %q", *shape))
			}
			src = s.DSL
		} else {
			b, err := os.ReadFile(*file)
			if err != nil {
				return fail(err)
			}
			src = string(b)
		}
		res, err := check(src)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, res.Report())
		code := 0
		if !res.Clean() {
			code = 1
		}
		if *crossval {
			if c := crossValidate(res, *seeds, stdout, stderr); c != 0 {
				code = c
			}
		}
		if err := cliutil.WriteMetrics(*metrics); err != nil {
			return fail(err)
		}
		return code
	}

	sr, err := pmodel.RunSuite()
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, sr.Report())
	code := 0
	if sr.Unexpected() > 0 {
		code = 1
	}
	if *crossval {
		for _, s := range pmodel.Suite() {
			res, err := check(s.DSL)
			if err != nil {
				return fail(err)
			}
			x, err := pmodel.CrossValidate(res.Program, res, pmodel.XValConfig{Seeds: *seeds})
			if err != nil {
				// Epoch shapes have no device twin; skip them explicitly
				// so the output names what was not cross-validated.
				fmt.Fprintf(stdout, "crossval: shape=%s skipped (%v)\n", s.Name, err)
				continue
			}
			status := "subset-ok"
			if !x.Ok() {
				status = "MISSING"
				code = 1
			}
			fmt.Fprintf(stdout, "crossval: shape=%s samples=%d missing=%d %s\n",
				s.Name, x.Samples, len(x.Missing), status)
		}
	}
	if err := cliutil.WriteMetrics(*metrics); err != nil {
		return fail(err)
	}
	return code
}

// check parses litmus DSL source and enumerates its durable states.
func check(src string) (*pmodel.Result, error) {
	p, err := pmodel.Parse(src)
	if err != nil {
		return nil, err
	}
	return pmodel.Check(p)
}

func crossValidate(res *pmodel.Result, seeds int, stdout, stderr io.Writer) int {
	x, err := pmodel.CrossValidate(res.Program, res, pmodel.XValConfig{Seeds: seeds})
	if err != nil {
		fmt.Fprintln(stderr, "wlitmus:", err)
		return 2
	}
	status := "subset-ok"
	code := 0
	if !x.Ok() {
		status = "MISSING"
		code = 1
	}
	fmt.Fprintf(stdout, "crossval: samples=%d missing=%d %s\n", x.Samples, len(x.Missing), status)
	return code
}
