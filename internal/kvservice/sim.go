package kvservice

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/par"
	"github.com/whisper-pm/whisper/internal/workload"
)

// SimConfig describes one open-loop load point: Clients independent
// clients each issuing ClientOpsPerSec zipfian operations against the
// service, simulated as an aggregate Poisson arrival process (the
// superposition of many independent sources) until Ops requests have
// been served.
type SimConfig struct {
	Shards          int     `json:"shards"`
	Batch           int     `json:"batch"`
	Clients         int     `json:"clients"`
	ClientOpsPerSec float64 `json:"client_ops_per_sec"`
	Ops             int     `json:"ops"`
	Keys            uint64  `json:"keys"`
	WritePct        int     `json:"write_pct"`
	DeletePct       int     `json:"delete_pct,omitempty"`
	ValueLen        int     `json:"value_len"`
	ZipfS           float64 `json:"zipf_s"`
	MaxWaitNS       uint64  `json:"max_wait_ns"`
	OpCycles        uint64  `json:"op_cycles"`
	SegBytes        int     `json:"seg_bytes,omitempty"`
	Seed            int64   `json:"seed"`

	// Metrics, when non-nil, is shared with the service instruments; nil
	// gives every run a private registry so repeated runs are independent
	// and byte-identical.
	Metrics *obs.Registry `json:"-"`
	// Record is kvservice.Config.Record for the run's service: set by
	// callers that read the returned service's trace.
	Record bool `json:"-"`
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.ClientOpsPerSec <= 0 {
		c.ClientOpsPerSec = 1000
	}
	if c.Ops <= 0 {
		c.Ops = 10000
	}
	if c.Keys == 0 {
		c.Keys = 1 << 16
	}
	if c.WritePct <= 0 {
		c.WritePct = 80
	}
	if c.DeletePct < 0 {
		c.DeletePct = 0
	}
	if c.WritePct+c.DeletePct > 100 {
		c.DeletePct = 100 - c.WritePct
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 128
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.MaxWaitNS == 0 {
		c.MaxWaitNS = 2000
	}
	if c.OpCycles == 0 {
		c.OpCycles = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SimResult is one capacity-curve row. Latency quantiles come from the
// service histogram (µs, rounded to 3 decimals); throughput is requests
// over the simulated makespan.
type SimResult struct {
	Shards      int     `json:"shards"`
	Batch       int     `json:"batch"`
	Clients     int     `json:"clients"`
	Ops         int     `json:"ops"`
	Puts        uint64  `json:"puts"`
	Deletes     uint64  `json:"deletes,omitempty"`
	Batches     uint64  `json:"batches"`
	MeanBatch   float64 `json:"mean_batch"`
	Fences      uint64  `json:"fences"`
	Compactions uint64  `json:"compactions"`
	Segments    int     `json:"segments"`
	LiveBytes   uint64  `json:"live_bytes"`
	LogBytes    uint64  `json:"log_bytes"`
	SpaceAmp    float64 `json:"space_amp"`
	SimNS       uint64  `json:"sim_ns"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	P999Us      float64 `json:"p999_us"`
}

// SweepRow is one cell of a sweep: the capacity-curve row and, as further
// columns of the same JSON object, its latency budget — the mean simulated
// µs a request spent in each stage of its batch (see the stage constants),
// rounded like the quantiles; the five add up to the mean latency. The
// budget sits beside SimResult, not in it: a SimResult is compared and
// printed whole by callers that pin a run's simulated behaviour, and an
// instrument must not change what they see.
type SweepRow struct {
	SimResult
	WaitUs   float64 `json:"wait_us"`
	ApplyUs  float64 `json:"apply_us"`
	CopyUs   float64 `json:"copy_us"`
	CommitUs float64 `json:"commit_us"`
	RetireUs float64 `json:"retire_us"`
}

// sweepRow joins a run's result with the drained service's stage counters
// as per-request means.
func sweepRow(res SimResult, svc *Service) SweepRow {
	row := SweepRow{SimResult: res}
	n := float64(svc.latency.Count())
	if n == 0 {
		return row
	}
	us := func(stage int) float64 {
		return round3(float64(svc.stageNS[stage].Value()) / n / 1000)
	}
	row.WaitUs, row.ApplyUs, row.CopyUs = us(stageWait), us(stageApply), us(stageCopy)
	row.CommitUs, row.RetireUs = us(stageCommit), us(stageRetire)
	return row
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// keyName is fmt.Sprintf("key%08d", n) without fmt: Run formats each key
// once, on its first draw (see drawnKey).
func keyName(n uint64) string {
	if n > 99999999 {
		return "key" + strconv.FormatUint(n, 10)
	}
	b := [11]byte{'k', 'e', 'y'}
	for i := len(b) - 1; i >= 3; i-- {
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[:])
}

// drawnKey is Run's memo of one key index: its name and the shard it routes
// to, filled on the index's first draw. Every request for the key then
// carries the same string, so the key table compares it by pointer.
type drawnKey struct {
	name  string
	shard int
}

// Run drives one load point through a fresh service and returns the row
// plus the service itself (callers feed its merged trace to the
// sanitizer or the epoch analysis). Same config, same result — the whole
// simulation runs on seeded PRNGs over the deterministic machine model.
// The caller's goroutine draws every arrival, in one order whatever the
// shard count; each shard simulates its own arrivals on a goroutine of its
// own (see feed), and its schedule depends on nothing else.
//
// The drawer allocates nothing per request beyond a key's first draw. Keys
// come from a table local to the run, min(Keys, Ops) entries indexed by key
// index (an index past it is formatted and routed per draw); it dies with
// the run, not with the service its callers hold on to. A write's value is a ValueLen window into one pattern buffer,
// starting at i%26: the bytes 'a'+(i+j)%26 for j < ValueLen. Values are
// read-only downstream — store.put copies them into the record, Get copies a
// pending one — so every write may share the pattern.
func Run(cfg SimConfig) (SimResult, *Service) {
	cfg = cfg.withDefaults()
	svc := newSimService(cfg)
	f := svc.startFeed(svc.enqueue)
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := workload.NewZipf(rng, cfg.ZipfS, cfg.Keys)
	keys := make([]drawnKey, min(cfg.Keys, uint64(cfg.Ops)))
	pattern := make([]byte, cfg.ValueLen+26)
	for j := range pattern {
		pattern[j] = byte('a' + j%26)
	}
	meanGapNS := 1e9 / (float64(cfg.Clients) * cfg.ClientOpsPerSec)
	var t float64
	for i := 0; i < cfg.Ops; i++ {
		// The conversion rounds the product before the sum, so no
		// architecture fuses the two (arm64 would, with FMADDD) and the
		// arrival clock is the same on every machine.
		t += float64(rng.ExpFloat64() * meanGapNS)
		arrival := mem.Time(t)
		if arrival == 0 {
			arrival = 1 // zero is the "untimed" sentinel
		}
		var k drawnKey
		if n := zipf.Next(); n < uint64(len(keys)) {
			if keys[n].name == "" {
				keys[n].name = keyName(n)
				keys[n].shard = svc.ShardFor(keys[n].name)
			}
			k = keys[n]
		} else {
			k.name = keyName(n)
			k.shard = svc.ShardFor(k.name)
		}
		op := workload.KVOp{Kind: workload.OpRead, Key: k.name}
		if draw := rng.Intn(100); draw < cfg.WritePct {
			val := pattern[i%26:][:cfg.ValueLen:cfg.ValueLen]
			op = workload.KVOp{Kind: workload.OpUpdate, Key: k.name, Value: val}
		} else if draw < cfg.WritePct+cfg.DeletePct {
			op = workload.KVOp{Kind: workload.OpDelete, Key: k.name}
		}
		f.send(k.shard, request{op: op, arrival: arrival})
	}
	f.close()
	svc.drain()
	return svc.simResult(cfg, mem.Time(t)), svc
}

const (
	feedChunk = 256 // requests per hand-off to a shard goroutine
	feedDepth = 4   // chunks queued or running on a shard while the drawer fills the next
)

// feed carries Run's requests from the goroutine that draws them to one
// goroutine per shard. The drawing side appends each request to its shard's
// open chunk; a full chunk goes to the shard's goroutine, which hands it to
// step and sends it back to be refilled. feedDepth+1 chunks circulate per
// shard, so the drawing side runs at most that far ahead of any shard and
// the hand-off costs a request no allocation. The shard side flushes its
// latency tally and stage counters once per chunk, at the end of enqueue.
type feed struct {
	open [][]request      // per shard: the chunk being filled
	full []chan []request // per shard: chunks waiting for the shard's goroutine
	free []chan []request // per shard: chunks coming back to be refilled
	join func()
}

// startFeed starts a goroutine per shard that passes each chunk sent to it
// to step, in order. A goroutine whose step panicked keeps taking chunks, so
// the drawing side never blocks on it; close re-raises the panic.
func (s *Service) startFeed(step func(sh *shard, reqs []request)) *feed {
	n := len(s.shards)
	f := &feed{open: make([][]request, n), full: make([]chan []request, n), free: make([]chan []request, n)}
	for i := range s.shards {
		f.open[i] = make([]request, 0, feedChunk)
		f.full[i] = make(chan []request, feedDepth)
		f.free[i] = make(chan []request, feedDepth+1) // room for every chunk: the shard never blocks on it
		for j := 0; j < feedDepth; j++ {
			f.free[i] <- make([]request, 0, feedChunk)
		}
	}
	f.join = par.Go(n, func(i int) {
		defer func() { // after a panic in step: keep taking chunks until close
			for c := range f.full[i] {
				f.free[i] <- c
			}
		}()
		for c := range f.full[i] {
			step(s.shards[i], c)
			f.free[i] <- c
		}
	})
	return f
}

// send queues r for shard i.
func (f *feed) send(i int, r request) {
	c := append(f.open[i], r)
	if len(c) == feedChunk {
		f.full[i] <- c
		c = (<-f.free[i])[:0]
	}
	f.open[i] = c
}

// close sends the part-filled chunks, lets the shard goroutines finish and
// waits for them; a panic from any of them is re-raised here.
func (f *feed) close() {
	for i, c := range f.open {
		if len(c) > 0 {
			f.full[i] <- c
		}
		close(f.full[i])
	}
	f.join()
}

// newSimService builds the service a load point runs against.
func newSimService(cfg SimConfig) *Service {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return New(Config{
		Shards:   cfg.Shards,
		Batch:    cfg.Batch,
		MaxWait:  mem.Time(cfg.MaxWaitNS),
		OpCycles: mem.Cycles(cfg.OpCycles),
		SegBytes: cfg.SegBytes,
		Metrics:  reg,
		Record:   cfg.Record,
	})
}

// simResult reads the drained service into a capacity-curve row; lastArrival
// is the simulated time of the final request.
func (svc *Service) simResult(cfg SimConfig, lastArrival mem.Time) SimResult {
	stats := svc.Stats()
	space := svc.Space()
	span := max(svc.makespan(), lastArrival)
	res := SimResult{
		Shards:      cfg.Shards,
		Batch:       cfg.Batch,
		Clients:     cfg.Clients,
		Ops:         cfg.Ops,
		Puts:        stats.Puts,
		Deletes:     stats.Deletes,
		Batches:     stats.Batches,
		Fences:      stats.Fences,
		Compactions: space.Compactions,
		Segments:    space.Segments,
		LiveBytes:   space.LiveBytes,
		LogBytes:    space.LogBytes,
		SpaceAmp:    round3(space.Amplification()),
		SimNS:       uint64(span),
		P50Us:       round3(svc.latency.Quantile(0.50) / 1000),
		P99Us:       round3(svc.latency.Quantile(0.99) / 1000),
		P999Us:      round3(svc.latency.Quantile(0.999) / 1000),
	}
	if stats.Batches > 0 {
		res.MeanBatch = round3(float64(cfg.Ops) / float64(stats.Batches))
	}
	if span > 0 {
		res.OpsPerSec = round3(float64(cfg.Ops) / (float64(span) * 1e-9))
	}
	return res
}

// Simulate is Run without the service handle.
func Simulate(cfg SimConfig) SimResult {
	r, _ := Run(cfg)
	return r
}

// ChurnResult is the compaction-churn gate's verdict (see Churn).
type ChurnResult struct {
	Ops         int     `json:"ops"`
	Puts        uint64  `json:"puts"`
	Rejects     uint64  `json:"rejects"`
	Compactions uint64  `json:"compactions"`
	CopiedBytes uint64  `json:"copied_bytes"`
	Segments    int     `json:"segments"`
	SegLimit    int     `json:"seg_limit"`
	LiveBytes   uint64  `json:"live_bytes"`
	LogBytes    uint64  `json:"log_bytes"`
	SpaceAmp    float64 `json:"space_amp"`
	AmpLimit    float64 `json:"amp_limit"`
	Ok          bool    `json:"ok"`
}

// Churn is the compaction-churn gate: a sustained 100%-overwrite zipfian
// workload over a small keyspace with small segments, sized so the
// appended bytes overflow the 512-slot table several times over. Before
// compaction this configuration killed the process at maxSegs; the gate
// demands the run completes with zero rejected requests, the mapped
// segment count bounded far below the table, and steady-state space
// amplification at or under 2×.
func Churn(ops int, seed int64) (ChurnResult, *Service) {
	if ops <= 0 {
		ops = 40000
	}
	res, svc := Run(SimConfig{
		Shards:   1,
		Batch:    8,
		Clients:  2000,
		Ops:      ops,
		Keys:     1024,
		WritePct: 100,
		ValueLen: 128,
		SegBytes: 1 << 13,
		Seed:     seed,
		Record:   true, // the gate's caller sanitizes the run's trace
	})
	stats := svc.Stats()
	out := ChurnResult{
		Ops:         res.Ops,
		Puts:        res.Puts,
		Rejects:     stats.Rejects,
		Compactions: res.Compactions,
		CopiedBytes: svc.Space().CopiedBytes,
		Segments:    res.Segments,
		SegLimit:    64,
		LiveBytes:   res.LiveBytes,
		LogBytes:    res.LogBytes,
		SpaceAmp:    res.SpaceAmp,
		AmpLimit:    2.0,
	}
	out.Ok = out.Rejects == 0 && out.Compactions > 0 &&
		out.Segments <= out.SegLimit && out.SpaceAmp <= out.AmpLimit
	return out, svc
}

// SweepConfig is the grid a capacity sweep covers: the cross product of
// shard counts, batch sizes and client-fleet sizes, every cell sharing
// the same workload parameters and seed.
type SweepConfig struct {
	Shards          []int   `json:"shards"`
	Batches         []int   `json:"batches"`
	Clients         []int   `json:"clients"`
	Ops             int     `json:"ops"`
	Keys            uint64  `json:"keys"`
	WritePct        int     `json:"write_pct"`
	ValueLen        int     `json:"value_len"`
	ZipfS           float64 `json:"zipf_s"`
	ClientOpsPerSec float64 `json:"client_ops_per_sec"`
	MaxWaitNS       uint64  `json:"max_wait_ns"`
	OpCycles        uint64  `json:"op_cycles"`
	Seed            int64   `json:"seed"`
	// P99LimitUs is the SLO the capacity summary is computed against.
	P99LimitUs float64 `json:"p99_limit_us"`
}

// CapacityPoint summarizes one (shards, batch) column of the sweep: the
// largest client fleet whose p99 stayed at or under the SLO (0 if none).
type CapacityPoint struct {
	Shards     int `json:"shards"`
	Batch      int `json:"batch"`
	MaxClients int `json:"max_clients"`
}

// SweepResult is the deterministic JSON artifact a sweep emits: the
// grid, every row, and the capacity curve.
type SweepResult struct {
	Config   SweepConfig     `json:"config"`
	Rows     []SweepRow      `json:"rows"`
	Capacity []CapacityPoint `json:"capacity"`
}

// Sweep runs the full grid. Each cell is an independent Run with its own
// registry and a rng reseeded from Config.Seed, so a cell's result
// depends only on its own coordinates — a subset sweep (CI smoke)
// reproduces the exact rows of the full reference sweep.
func Sweep(cfg SweepConfig) SweepResult {
	out := SweepResult{Config: cfg}
	for _, ns := range cfg.Shards {
		for _, b := range cfg.Batches {
			pt := CapacityPoint{Shards: ns, Batch: b}
			for _, cl := range cfg.Clients {
				res, svc := Run(SimConfig{
					Shards:          ns,
					Batch:           b,
					Clients:         cl,
					ClientOpsPerSec: cfg.ClientOpsPerSec,
					Ops:             cfg.Ops,
					Keys:            cfg.Keys,
					WritePct:        cfg.WritePct,
					ValueLen:        cfg.ValueLen,
					ZipfS:           cfg.ZipfS,
					MaxWaitNS:       cfg.MaxWaitNS,
					OpCycles:        cfg.OpCycles,
					Seed:            cfg.Seed,
				})
				out.Rows = append(out.Rows, sweepRow(res, svc))
				if res.P99Us <= cfg.P99LimitUs && cl > pt.MaxClients {
					pt.MaxClients = cl
				}
			}
			out.Capacity = append(out.Capacity, pt)
		}
	}
	return out
}

// WriteJSON emits the sweep in its canonical committed form: indented,
// struct field order, trailing newline. Equal results are byte-equal.
func WriteJSON(w io.Writer, r SweepResult) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadJSON parses a sweep artifact.
func ReadJSON(r io.Reader) (SweepResult, error) {
	var out SweepResult
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return SweepResult{}, err
	}
	return out, nil
}

// Compare checks cur against the reference envelope: every row present
// in both (matched on shards×batch×clients) must have cur p99 within
// slack× the reference p99. It errors on any regression, and on zero
// overlap — a sweep that shares no cells with the reference would pass
// vacuously and mask a misconfigured smoke job.
func Compare(ref, cur SweepResult, slack float64) error {
	if slack <= 0 {
		slack = 1
	}
	type cell struct{ sh, b, cl int }
	refRows := make(map[cell]SweepRow, len(ref.Rows))
	for _, r := range ref.Rows {
		refRows[cell{r.Shards, r.Batch, r.Clients}] = r
	}
	overlap := 0
	var bad []string
	for _, c := range cur.Rows {
		r, ok := refRows[cell{c.Shards, c.Batch, c.Clients}]
		if !ok {
			continue
		}
		overlap++
		if limit := r.P99Us * slack; c.P99Us > limit {
			bad = append(bad, fmt.Sprintf(
				"shards=%d batch=%d clients=%d: p99 %.3fµs > %.3fµs (ref %.3fµs × slack %.2f)",
				c.Shards, c.Batch, c.Clients, c.P99Us, limit, r.P99Us, slack))
		}
	}
	if overlap == 0 {
		return fmt.Errorf("kvservice: no rows overlap the reference (%d ref, %d current)", len(ref.Rows), len(cur.Rows))
	}
	if len(bad) > 0 {
		msg := bad[0]
		for _, b := range bad[1:] {
			msg += "\n" + b
		}
		return fmt.Errorf("kvservice: p99 regression on %d/%d rows:\n%s", len(bad), overlap, msg)
	}
	return nil
}
