// Package whisper is the public API of the WHISPER reproduction: the
// Wisconsin–HP Labs Suite for Persistence (Nalli et al., ASPLOS 2017)
// reimplemented in Go on a simulated persistent-memory substrate, together
// with the paper's epoch analysis and the HOPS hardware evaluation.
//
// The suite contains the paper's ten applications across three access
// layers (Table 1). Run one benchmark and analyze it:
//
//	rep, err := whisper.Run("ycsb", whisper.Config{Clients: 4, Ops: 1000, Seed: 1})
//	fmt.Println(rep.EpochsPerSecond, rep.MedianTxEpochs)
//
// or replay its trace under the five Figure-10 persistence models:
//
//	norm := whisper.SimulateHOPS(rep.Trace, whisper.DefaultHOPSConfig())
//	fmt.Println(norm["HOPS (NVM)"]) // normalized to the x86-64 NVM baseline
package whisper

import (
	"fmt"
	"io"
	"time"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Config scales a benchmark run. The zero value picks suite defaults
// matched to laptop-scale simulation; the paper's full configurations
// (millions of transactions) are reachable by raising Ops.
type Config struct {
	// Clients is the number of logical client threads (paper: 4 for most
	// apps, 8 for the filesystem apps). 0 = the paper's count.
	Clients int
	// Ops is the number of operations/transactions per client. 0 = a
	// suite default sized for seconds-long runs.
	Ops int
	// Seed drives every random choice; runs are reproducible per seed.
	Seed int64
}

// Trace wraps a recorded PM trace. It is opaque; use Report for analysis
// results, Encode/DecodeTrace for persistence to disk.
type Trace struct {
	tr *trace.Trace
}

// App returns the application name recorded in the trace.
func (t *Trace) App() string { return t.tr.App }

// Events returns the number of recorded PM events.
func (t *Trace) Events() int { return t.tr.Len() }

// Encode writes the trace in the binary trace format (chunked v3: framed,
// CRC-checksummed event blocks; see internal/trace).
func (t *Trace) Encode(w io.Writer) error {
	return t.tr.Encode(w)
}

// EncodeV2 is Encode under its earlier name, from when Encode still wrote
// the v1 layout; like Encode it writes v3.
func (t *Trace) EncodeV2(w io.Writer) error { return t.Encode(w) }

// DecodeTrace reads a trace written with Encode.
func DecodeTrace(r io.Reader) (*Trace, error) {
	tr, err := trace.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// Benchmark describes one suite member.
type Benchmark struct {
	// Name is the suite key ("echo", "ycsb", "tpcc", "redis", "ctree",
	// "hashmap", "vacation", "memcached", "nfs", "exim", "mysql").
	Name string
	// Layer is the PM access layer.
	Layer string
	// Workload describes the driving workload (Table 1's third column).
	Workload string
	// Simulatable marks the subset used for the gem5-style studies
	// (Figures 6 and 10).
	Simulatable bool
}

// Benchmarks returns the suite in Table 1 order.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for _, a := range crashcheck.Suite() {
		out = append(out, Benchmark{Name: a.Name, Layer: a.Layer, Workload: a.Workload, Simulatable: a.Simulatable})
	}
	return out
}

// Names returns the benchmark names in suite order.
func Names() []string { return crashcheck.Apps() }

// resolve finds the named suite member in the app table the crash checker
// shares, and fills cfg's zero Clients and Ops with its defaults.
func resolve(name string, cfg Config) (*crashcheck.App, Config, error) {
	a, err := crashcheck.Lookup(name)
	if err != nil {
		return nil, cfg, fmt.Errorf("whisper: unknown benchmark %q (have %v)", name, Names())
	}
	if cfg.Clients <= 0 {
		cfg.Clients = a.Clients
	}
	if cfg.Ops <= 0 {
		cfg.Ops = a.Ops
	}
	return a, cfg, nil
}

// execute runs a's paper mix to completion on rt. A panicking member (redis
// exhausting its nvml pool, say) comes back as an error: every entry point
// of the package reports it the same way.
func execute(a *crashcheck.App, rt *persist.Runtime, cfg Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("whisper: %s panicked: %v", a.Name, r)
		}
	}()
	start := time.Now()
	a.Run(rt, cfg.Clients, cfg.Ops, cfg.Seed)
	publishRunMetrics(a.Name, rt, time.Since(start), cfg.Clients*cfg.Ops)
	return nil
}

// Run executes the named benchmark and returns its analysis report (with
// the raw trace attached). The analysis reads the trace's tail while the
// benchmark is still recording it, and collects the trace (see record).
func Run(name string, cfg Config) (*Report, error) {
	tail, err := record(name, cfg)
	if err != nil {
		return nil, err
	}
	var kept *trace.Trace
	a, err := pipeline(tail, []tap{func(b *trace.Branch) (err error) {
		kept, err = trace.Collect(b)
		return err
	}})
	if err != nil {
		return nil, err
	}
	return newReport(a, &Trace{tr: kept}), nil
}
