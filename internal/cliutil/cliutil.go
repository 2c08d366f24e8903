// Package cliutil holds the small helpers every whisper command-line tool
// under cmd/ shares.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/whisper-pm/whisper/internal/obs"
)

// Flags returns the flag set of the command name: parse errors and usage
// go to stderr and come back to the caller instead of exiting the process,
// so a main's run() stays testable.
func Flags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args into fs and rejects positional arguments: no tool takes
// any, and flag parsing stops at the first one, so `wstorm smoke -list`
// would otherwise drop -list and run the defaults. False means a usage
// error has been reported on fs's output and the command should exit 2.
func Parse(fs *flag.FlagSet, args []string) bool {
	if fs.Parse(args) != nil {
		return false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected arguments: %v\n", fs.Name(), fs.Args())
		return false
	}
	return true
}

// Check is one flag's range rule: OK says whether the value given is in
// range, Want names the range.
type Check struct {
	OK         bool
	Flag, Want string
}

// InRange reports whether every check holds. At the first that does not it
// prints "<tool>: bad -<flag> <value> (want <Want>)" on fs's output, and the
// command should exit 2: a tool refuses a value the code under it would
// otherwise replace with a default or clamp without a word.
func InRange(fs *flag.FlagSet, checks ...Check) bool {
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(fs.Output(), "%s: bad -%s %s (want %s)\n", fs.Name(), c.Flag, fs.Lookup(c.Flag).Value, c.Want)
			return false
		}
	}
	return true
}

// WriteMetrics snapshots the process-wide metrics registry and writes it
// as indented JSON to path. An empty path is a no-op, so commands can pass
// their -metrics flag value straight through. Errors name the path — the
// caller only adds its command prefix.
func WriteMetrics(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write metrics: %w", err)
	}
	werr := obs.Default().Snapshot().WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write metrics %s: %w", path, werr)
	}
	return nil
}
