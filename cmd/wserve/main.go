// Command wserve sweeps the sharded PM key-value service across shard
// count × group-commit batch size × client-fleet size and emits the
// capacity curve — how many open-loop clients each configuration serves
// while holding p99 latency under the SLO — as a deterministic JSON
// artifact (the committed BENCH_kv_service.json is one of these).
//
// Usage:
//
//	wserve                           # full sweep, JSON to stdout
//	wserve -o BENCH_kv_service.json  # write the artifact
//	wserve -check ref.json           # sweep, then gate p99 against the
//	                                 # reference envelope (exit 1 on
//	                                 # regression; -slack widens it)
//	wserve -san                      # run the largest cell and stream its
//	                                 # merged trace through the durability
//	                                 # sanitizer (exit 1 on any error site)
//	wserve -churn                    # compaction-churn gate: a sustained
//	                                 # overwrite workload that must hold the
//	                                 # mapped segment count and space
//	                                 # amplification bounded, with a clean
//	                                 # sanitizer pass (exit 1 otherwise)
//	wserve -metrics m.json           # dump process metrics on exit (only
//	                                 # the -san run reports into them; sweep
//	                                 # cells use private registries so rows
//	                                 # stay independent)
//
// -san and -churn are the recording modes: their services are built with
// kvservice's Record option and keep every shard's event trace for the
// sanitizer, and both print how many fences that trace holds beside the
// shard devices' own count (exit 1 if they differ). Sweep and -check cells
// read counters only and record nothing.
//
// The sweep is deterministic: every cell reseeds from -seed and runs on
// a private metrics registry, so the same flags produce byte-identical
// JSON, and a subset sweep (the CI smoke job) reproduces the exact rows
// of the full reference artifact.
//
// Exit status is 1 on an envelope regression or sanitizer errors, 2 on
// usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/whisper-pm/whisper/internal/cliutil"
	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmsan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges injected, so error-path tests can
// call it directly. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cliutil.Flags("wserve", stderr)
	var (
		shards   = fs.String("shards", "1,2,4", "comma-separated shard counts")
		batch    = fs.String("batch", "1,8,32", "comma-separated group-commit batch sizes")
		clients  = fs.String("clients", "500,1000,2000,4000,8000", "comma-separated client-fleet sizes")
		rate     = fs.Float64("rate", 1000, "per-client offered load, ops/sec")
		ops      = fs.Int("ops", 20000, "requests simulated per cell")
		keys     = fs.Uint64("keys", 1<<16, "keyspace size")
		write    = fs.Int("write", 80, "write percentage")
		value    = fs.Int("value", 128, "value size, bytes")
		zipfS    = fs.Float64("zipf", 1.1, "zipfian key skew (>1)")
		maxwait  = fs.Uint64("maxwait", 2000, "group-commit deadline, simulated ns")
		opcycles = fs.Uint64("opcycles", 200, "per-request compute charge, cycles")
		seed     = fs.Int64("seed", 1, "PRNG seed")
		p99limit = fs.Float64("p99", 25, "capacity SLO: p99 limit, µs")
		out      = fs.String("o", "", "write sweep JSON to this file instead of stdout")
		check    = fs.String("check", "", "reference sweep JSON to gate p99 against")
		slack    = fs.Float64("slack", 1.25, "allowed p99 multiplier over the reference")
		san      = fs.Bool("san", false, "sanitize the merged trace of the largest cell")
		churn    = fs.Bool("churn", false, "run the compaction-churn gate instead of the sweep")
		metrics  = fs.String("metrics", "", "write metrics snapshot JSON to this file on exit")
	)
	if !cliutil.Parse(fs, args) {
		return 2
	}
	shardList, err1 := parseIntList(*shards)
	batchList, err2 := parseIntList(*batch)
	clientList, err3 := parseIntList(*clients)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			fmt.Fprintf(stderr, "wserve: %v\n", err)
			return 2
		}
	}
	// The simulator replaces a zero or out-of-range setting with its
	// default, and the artifact records the flag as given: refuse them, so
	// that the artifact describes the run.
	if !cliutil.InRange(fs,
		cliutil.Check{OK: *rate > 0, Flag: "rate", Want: "a positive rate"},
		cliutil.Check{OK: *ops > 0, Flag: "ops", Want: "a positive count"},
		cliutil.Check{OK: *keys > 0, Flag: "keys", Want: "a positive count"},
		cliutil.Check{OK: *write > 0 && *write <= 100, Flag: "write", Want: "a percentage in 1..100"},
		cliutil.Check{OK: *value > 0, Flag: "value", Want: "a positive size"},
		cliutil.Check{OK: *zipfS > 1, Flag: "zipf", Want: "a skew above 1"},
		cliutil.Check{OK: *maxwait > 0, Flag: "maxwait", Want: "a positive deadline"},
		cliutil.Check{OK: *opcycles > 0, Flag: "opcycles", Want: "a positive charge"},
		cliutil.Check{OK: *seed != 0, Flag: "seed", Want: "a nonzero seed"},
	) {
		return 2
	}

	if *churn {
		// The sweep's -ops default is too small to overflow the segment
		// table; let Churn pick its own overflow-sized default unless the
		// user set -ops explicitly.
		churnOps := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "ops" {
				churnOps = *ops
			}
		})
		res, svc := kvservice.Churn(churnOps, *seed)
		buf, merr := json.MarshalIndent(res, "", "  ")
		if merr != nil {
			fmt.Fprintf(stderr, "wserve: %v\n", merr)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", buf)
		rep, rerr := sanitize(svc, stdout)
		if rerr != nil {
			fmt.Fprintf(stderr, "wserve: sanitizer: %v\n", rerr)
			return 1
		}
		fmt.Fprintf(stdout, "wserve -churn: segments=%d/%d space_amp=%.3f/%.1f compactions=%d rejects=%d san_errors=%d\n",
			res.Segments, res.SegLimit, res.SpaceAmp, res.AmpLimit, res.Compactions, res.Rejects, rep.Errors())
		if !res.Ok {
			fmt.Fprintln(stderr, "wserve: churn gate failed (unbounded space or rejected requests)")
			return 1
		}
		if rep.Errors() > 0 {
			fmt.Fprint(stderr, rep.String())
			return 1
		}
		return writeMetricsAndExit(*metrics, stderr)
	}

	if *san {
		cfg := kvservice.SimConfig{
			Shards:          shardList[len(shardList)-1],
			Batch:           batchList[len(batchList)-1],
			Clients:         clientList[len(clientList)-1],
			ClientOpsPerSec: *rate,
			Ops:             *ops,
			Keys:            *keys,
			WritePct:        *write,
			ValueLen:        *value,
			ZipfS:           *zipfS,
			MaxWaitNS:       *maxwait,
			OpCycles:        *opcycles,
			Seed:            *seed,
			Metrics:         obs.Default(),
			Record:          true,
		}
		row, svc := kvservice.Run(cfg)
		rep, rerr := sanitize(svc, stdout)
		if rerr != nil {
			fmt.Fprintf(stderr, "wserve: sanitizer: %v\n", rerr)
			return 1
		}
		fmt.Fprintf(stdout, "wserve -san: shards=%d batch=%d clients=%d ops=%d p99=%.3fµs fences=%d\n",
			row.Shards, row.Batch, row.Clients, row.Ops, row.P99Us, row.Fences)
		fmt.Fprint(stdout, rep.String())
		if merr := cliutil.WriteMetrics(*metrics); merr != nil {
			fmt.Fprintf(stderr, "wserve: %v\n", merr)
			return 1
		}
		if rep.Errors() > 0 {
			return 1
		}
		return 0
	}

	var ref kvservice.SweepResult
	if *check != "" {
		f, oerr := os.Open(*check)
		if oerr != nil {
			fmt.Fprintf(stderr, "wserve: %v\n", oerr)
			return 2
		}
		var perr error
		ref, perr = kvservice.ReadJSON(f)
		f.Close()
		if perr != nil {
			fmt.Fprintf(stderr, "wserve: parse %s: %v\n", *check, perr)
			return 2
		}
	}

	sweep := kvservice.Sweep(kvservice.SweepConfig{
		Shards:          shardList,
		Batches:         batchList,
		Clients:         clientList,
		Ops:             *ops,
		Keys:            *keys,
		WritePct:        *write,
		ValueLen:        *value,
		ZipfS:           *zipfS,
		ClientOpsPerSec: *rate,
		MaxWaitNS:       *maxwait,
		OpCycles:        *opcycles,
		Seed:            *seed,
		P99LimitUs:      *p99limit,
	})

	if *check != "" {
		if cerr := kvservice.Compare(ref, sweep, *slack); cerr != nil {
			fmt.Fprintf(stderr, "wserve: %v\n", cerr)
			return 1
		}
		fmt.Fprintf(stdout, "wserve: %d rows within the p99 envelope of %s (slack %.2f)\n",
			len(sweep.Rows), *check, *slack)
		return writeMetricsAndExit(*metrics, stderr)
	}

	var w io.Writer = stdout
	if *out != "" {
		f, cerr := os.Create(*out)
		if cerr != nil {
			fmt.Fprintf(stderr, "wserve: %v\n", cerr)
			return 1
		}
		defer f.Close()
		w = f
	}
	if werr := kvservice.WriteJSON(w, sweep); werr != nil {
		fmt.Fprintf(stderr, "wserve: %v\n", werr)
		return 1
	}
	return writeMetricsAndExit(*metrics, stderr)
}

// sanitize runs the durability sanitizer over svc's merged trace, then
// prints how many fences that trace holds beside the shard devices' own
// count. The two must agree: a trace with fewer is not the record of the
// run — from a service that was not recording it would be empty — and the
// sanitizer's "0 errors" about it would mean nothing.
func sanitize(svc *kvservice.Service, stdout io.Writer) (*pmsan.Report, error) {
	rep, err := pmsan.Run(svc.TraceSource())
	if err != nil {
		return nil, err
	}
	seen, issued := rep.Fences, svc.Stats().Fences
	fmt.Fprintf(stdout, "wserve: sanitizer input holds %d fences, the shard devices issued %d\n", seen, issued)
	if seen != issued {
		return nil, fmt.Errorf("the trace is not the run's: %d fences against the devices' %d", seen, issued)
	}
	return rep, nil
}

func writeMetricsAndExit(path string, stderr io.Writer) int {
	if err := cliutil.WriteMetrics(path); err != nil {
		fmt.Fprintf(stderr, "wserve: %v\n", err)
		return 1
	}
	return 0
}

// parseIntList parses "1,8,32" into positive ints.
func parseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad list entry %q (want positive integers, comma-separated)", p)
		}
		out = append(out, n)
	}
	return out, nil
}
