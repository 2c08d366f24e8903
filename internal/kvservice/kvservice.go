// Package kvservice is a sharded persistent-memory key-value service
// front-end over the simulated machine: requests from a fleet of
// open-loop clients are routed by key hash across N independent
// persistence domains (one pmem device + persist runtime per shard), and
// each shard absorbs writes in per-request batches made durable by a
// single group-commit fence — the cross-request analogue of the epoch
// coalescing the WHISPER paper measures within one transaction (§5.1).
//
// The service exists to put a cost on ordering points at the systems
// level: with batch size 1 every put pays two fences (records, then the
// published head); a batch of B puts still pays two, so the fence bill is
// amortized B-fold and the capacity sweep in sim.go turns that into a
// "clients served under a p99 limit" curve. Shard traces stay legal
// persistency-wise — batches run inside TxBegin/TxEnd with every dirty
// line flushed and fenced before commit — so the same run can feed the
// pmsan sanitizer and the epoch analysis unchanged.
package kvservice

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/par"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// shardAddrStride is the slice of PM address space reserved per shard.
// Every shard owns its own device, so addresses would otherwise collide
// at mem.PMBase across shards; pre-bumping each device's allocator by
// shard×stride keeps the merged service trace alias-free, which the
// epoch dependency analysis and the sanitizer both rely on. Address
// space is free in the simulator — pages materialize only when written.
const shardAddrStride = 1 << 30

// compactFrac is the live-fraction threshold for compaction: a sealed
// segment whose live bytes are at or below compactFrac×SegBytes becomes a
// copy-forward victim, drained a batch's worth of bytes at a time inside
// the batches that follow and then retired, which bounds steady-state
// space amplification near 1/compactFrac.
const compactFrac = 0.5

// Config tunes a Service.
type Config struct {
	// Shards is the number of independent persistence domains (default 1).
	Shards int
	// Batch is the number of requests a shard coalesces into one group
	// commit (default 1 — every request pays its own fences).
	Batch int
	// MaxWait bounds how long the first request of a partial batch may
	// wait, in simulated ns, before the batch commits anyway (default
	// 2000). Only the timed (simulation) path enforces it.
	MaxWait mem.Time
	// OpCycles is the per-request compute charge in CPU cycles, covering
	// parsing and index work outside the PM path (default 200).
	OpCycles mem.Cycles
	// SegBytes is the shard log segment size (default 1 MiB). A sealed
	// segment whose live bytes fall to compactFrac of it is compacted.
	SegBytes int
	// Metrics is the registry service and shard instruments report into;
	// nil means the process-wide obs.Default(). Simulation sweeps pass a
	// private registry per run so rows never contaminate each other.
	Metrics *obs.Registry
	// Record makes every shard keep its PM event trace, for callers that
	// go on to read TraceSource or a shard runtime's Trace (the sanitizer
	// and epoch analysis runs, trace-comparing tests). Off, the shards
	// record nothing — the service's counters, clocks and devices are the
	// same either way — and TraceSource panics.
	Record bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2000
	}
	if c.OpCycles <= 0 {
		c.OpCycles = 200
	}
	if c.SegBytes <= 0 {
		c.SegBytes = defaultSegBytes
	}
	return c
}

// request is one client operation waiting in a shard's batch. A zero
// arrival means the caller does not want latency tracked (the concurrent
// API, which has no simulated arrival process).
type request struct {
	op      workload.KVOp
	arrival mem.Time
}

// shard is one persistence domain: a device, a runtime with one logical
// thread, the durable log store, and the pending batch.
type shard struct {
	mu      sync.Mutex
	rt      *persist.Runtime
	th      *persist.Thread
	st      *store
	pending []request
	scratch []byte   // value buffer for batch reads, whose bytes nobody keeps
	freeAt  mem.Time // simulated time the shard finished its last batch
	// tally and stages hold what this shard's commits observed since the
	// last flushInstrumentsLocked: the shares of the service latency
	// histogram and stage counters, kept in plain memory under the lock.
	tally   obs.Tally
	stages  [numStages]uint64
	batches uint64
	puts    uint64
	gets    uint64
	dels    uint64
	rejects uint64
	// last reported space figures, so gauge updates are deltas computed
	// under this shard's lock alone (no cross-shard reads).
	lastLive int64
	lastDead int64
	lastSegs int64
	// What this shard's recoveries cost: simulated ns, device lines
	// loaded, records scanned.
	recoveryNS      *obs.Counter
	recoveryLines   *obs.Counter
	recoveryRecords *obs.Counter
}

// Service routes requests across shards and owns the fleet-level
// instruments.
type Service struct {
	cfg     Config
	shards  []*shard
	latency *obs.Histogram // ns from arrival to batch durability

	// stageNS is the latency budget: the simulated ns timed requests spent
	// in each stage of their batch. The stages partition arrival→durable,
	// so their sum is the latency histogram's sum, to the nanosecond.
	stageNS [numStages]*obs.Counter

	compactionsC *obs.Counter // compaction passes completed
	copiedC      *obs.Counter // record bytes copied forward
	abortsC      *obs.Counter // compaction passes abandoned on a full shard
	rejectsC     *obs.Counter // requests degraded (oversized, shard full)
	liveG        *obs.Gauge   // live record bytes across shards
	deadG        *obs.Gauge   // dead (reclaimable) log bytes across shards
	segsG        *obs.Gauge   // mapped log segments across shards
}

// The stages of a timed request's latency, in the order a batch runs them.
const (
	stageWait   = iota // arrival until the request's batch starts
	stageApply         // the batch's requests applied: compute, loads, appends
	stageCopy          // the compaction step riding the batch
	stageCommit        // group flush+fence, then head store+flush+fence
	stageRetire        // a drained victim's slot zeroed; closing the batch
	numStages
)

var stageNames = [numStages]string{"wait", "apply", "copy", "commit", "retire"}

// New builds a service with cfg.Shards fresh shards. Each shard's device
// allocator is pre-bumped into its own address window (see
// shardAddrStride) so shard traces can be merged without aliasing.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Record && cfg.Shards > 1<<16 {
		panic("kvservice: a recorded service names one TID per shard, and a TID names at most 1<<16")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{cfg: cfg}
	lbl := obs.Labels{
		"shards": strconv.Itoa(cfg.Shards),
		"batch":  strconv.Itoa(cfg.Batch),
	}
	s.latency = reg.Histogram("kvservice_latency_ns", lbl, latencyBuckets()...)
	for i, name := range stageNames {
		s.stageNS[i] = reg.Counter("kvservice_stage_ns_total", obs.Labels{
			"shards": lbl["shards"], "batch": lbl["batch"], "stage": name,
		})
	}
	s.compactionsC = reg.Counter("kvservice_compaction_runs_total", lbl)
	s.copiedC = reg.Counter("kvservice_compaction_copied_bytes_total", lbl)
	s.abortsC = reg.Counter("kvservice_compaction_aborts_total", lbl)
	s.rejectsC = reg.Counter("kvservice_rejects_total", lbl)
	s.liveG = reg.Gauge("kvservice_live_bytes", lbl)
	s.deadG = reg.Gauge("kvservice_dead_bytes", lbl)
	s.segsG = reg.Gauge("kvservice_log_segments", lbl)
	for i := 0; i < cfg.Shards; i++ {
		rt := persist.NewRuntime("kvservice", "native", 1, persist.Config{
			Metrics:  reg,
			Instance: fmt.Sprintf("shard-%d", i),
			NoTrace:  !cfg.Record,
		})
		if i > 0 {
			rt.Dev.Map(i * shardAddrStride)
		}
		th := rt.Thread(0)
		sh := &shard{rt: rt, th: th, st: newStore(th, cfg.SegBytes), tally: obs.NewTally(s.latency)}
		shardLbl := obs.Labels{"shards": lbl["shards"], "batch": lbl["batch"], "shard": strconv.Itoa(i)}
		sh.recoveryNS = reg.Counter("kvservice_recovery_ns_total", shardLbl)
		sh.recoveryLines = reg.Counter("kvservice_recovery_lines_total", shardLbl)
		sh.recoveryRecords = reg.Counter("kvservice_recovery_records_total", shardLbl)
		sh.freeAt = rt.Clock.Now()
		s.shards = append(s.shards, sh)
	}
	return s
}

// Shards returns the shard count.
func (s *Service) Shards() int { return len(s.shards) }

// Runtime exposes shard i's persist runtime (tests and trace plumbing). Its
// Trace holds events only on a service built with Config.Record.
func (s *Service) Runtime(i int) *persist.Runtime { return s.shards[i].rt }

// ShardFor returns the shard index key routes to (FNV-1a).
func (s *Service) ShardFor(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// commitLocked executes and commits sh's pending batch, starting at
// simulated time start (clamped forward to the shard clock — per-shard
// time never runs backwards). Requests are applied in arrival order
// inside one transaction; every request in the batch completes when the
// batch is durable, and timed requests observe that as their latency, in
// the shard's tally until flushInstrumentsLocked. Callers hold sh.mu.
func (s *Service) commitLocked(sh *shard, start mem.Time) {
	if len(sh.pending) == 0 {
		return
	}
	clk, st := sh.rt.Clock, sh.st
	if now := clk.Now(); start < now {
		start = now
	}
	clk.Set(start)
	sh.th.TxBegin()
	var appended int64 // record bytes the batch's accepted writes appended
	for _, r := range sh.pending {
		sh.th.Compute(s.cfg.OpCycles)
		switch r.op.Kind {
		case workload.OpRead:
			if v, ok := st.read(r.op.Key, sh.scratch); ok {
				sh.scratch = v
			}
			sh.gets++
		case workload.OpDelete:
			if wrote, err := st.del(r.op.Key); err != nil {
				sh.rejects++
				s.rejectsC.Inc()
			} else {
				sh.dels++
				if wrote {
					appended += footprint(len(r.op.Key), 0)
				}
			}
		default:
			if err := st.put(r.op.Key, r.op.Value); err != nil {
				sh.rejects++
				s.rejectsC.Inc()
			} else {
				sh.puts++
				appended += footprint(len(r.op.Key), uint32(len(r.op.Value)))
			}
		}
	}
	applied := clk.Now()
	// Compaction rides the batch: the step's copies join the batch's group,
	// so the one commit below flushes and publishes both, and a victim the
	// step drained is retired behind that publish. A shard-full error means
	// the step stopped short; what it copied is published all the same, the
	// victim stays mapped, and the shard keeps serving. The quota is what
	// the accepted writes appended: segment-tail padding and a rejected
	// request earn the step nothing.
	c0, b0 := st.compactions, st.copiedBytes
	if err := st.compactStep(compactFrac, int(appended)); err != nil {
		s.abortsC.Inc()
	}
	copied := clk.Now()
	st.commit()
	committed := clk.Now()
	st.finishPass()
	s.compactionsC.Add(st.compactions - c0)
	s.copiedC.Add(st.copiedBytes - b0)
	sh.th.TxEnd()
	end := clk.Now()
	var timed, wait uint64
	for _, r := range sh.pending {
		if r.arrival > 0 {
			sh.tally.Observe(uint64(end - r.arrival))
			wait += uint64(start - r.arrival)
			timed++
		}
	}
	sh.stages[stageWait] += wait
	sh.stages[stageApply] += timed * uint64(applied-start)
	sh.stages[stageCopy] += timed * uint64(copied-applied)
	sh.stages[stageCommit] += timed * uint64(committed-copied)
	sh.stages[stageRetire] += timed * uint64(end-committed)
	sh.batches++
	sh.pending = sh.pending[:0]
	s.observeSpaceLocked(sh)
	sh.freeAt = end
}

// flushInstrumentsLocked adds what sh's commits observed to the service
// histogram and stage counters and empties the shard's share. Only timed
// requests observe, and they join a shard only through enqueue, which ends
// with this flush; drain commits the batch they leave pending and flushes
// too. So the service instruments lag a shard by at most one feed chunk and
// hold every observation once Run returns. Callers hold sh.mu.
func (s *Service) flushInstrumentsLocked(sh *shard) {
	sh.tally.Flush()
	for i, ns := range sh.stages {
		s.stageNS[i].Add(ns)
	}
	sh.stages = [numStages]uint64{}
}

// drainCompactionLocked finishes the pass in flight and every pass still
// due, in a transaction of its own, so that a quiesced shard is left fully
// compacted. With nothing due it emits nothing. Callers hold sh.mu.
func (s *Service) drainCompactionLocked(sh *shard) {
	st := sh.st
	if !st.compactionDue(compactFrac) {
		return
	}
	sh.th.TxBegin()
	c0, b0 := st.compactions, st.copiedBytes
	if err := st.drain(compactFrac); err != nil {
		s.abortsC.Inc()
	}
	s.compactionsC.Add(st.compactions - c0)
	s.copiedC.Add(st.copiedBytes - b0)
	sh.th.TxEnd()
	s.observeSpaceLocked(sh)
	sh.freeAt = sh.rt.Clock.Now()
}

// observeSpaceLocked refreshes the space gauges with this shard's
// contribution. Deltas against the shard's last report keep the update
// local to the shard lock — no cross-shard reads, so the concurrent API
// stays race-free. Callers hold sh.mu.
func (s *Service) observeSpaceLocked(sh *shard) {
	live := sh.st.liveBytes
	dead := int64(sh.st.logBytes()) - live
	segs := int64(len(sh.st.segs))
	s.liveG.Add(live - sh.lastLive)
	s.deadG.Add(dead - sh.lastDead)
	s.segsG.Add(segs - sh.lastSegs)
	sh.lastLive, sh.lastDead, sh.lastSegs = live, dead, segs
}

// Put stores key=val through the concurrent API: the request joins its
// shard's batch and the batch commits when full (or at Flush). The value
// is copied, so callers may reuse the slice. Latency is not tracked on
// this path — there is no arrival process to measure from. A record too
// large for a log segment is rejected here, before it can poison a batch.
func (s *Service) Put(key string, val []byte) error {
	if recHeader+len(key)+len(val) > s.cfg.SegBytes {
		s.rejectsC.Inc()
		return fmt.Errorf("kvservice: record of %d bytes exceeds segment size %d", recHeader+len(key)+len(val), s.cfg.SegBytes)
	}
	sh := s.shards[s.ShardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pending = append(sh.pending, request{op: workload.KVOp{
		Kind: workload.OpUpdate, Key: key, Value: append([]byte(nil), val...),
	}})
	if len(sh.pending) >= s.cfg.Batch {
		s.commitLocked(sh, sh.freeAt)
	}
	return nil
}

// Delete removes key: a tombstone record joins the shard's batch and the
// key's old record becomes dead space for the compactor to reclaim.
// Deleting an absent key is a durable no-op.
func (s *Service) Delete(key string) {
	sh := s.shards[s.ShardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.pending = append(sh.pending, request{op: workload.KVOp{
		Kind: workload.OpDelete, Key: key,
	}})
	if len(sh.pending) >= s.cfg.Batch {
		s.commitLocked(sh, sh.freeAt)
	}
}

// Get returns the newest value for key: a write waiting in the shard's
// pending batch wins over the committed store (read-your-writes) — a
// pending delete reads as a miss — then the volatile index over the
// durable log.
func (s *Service) Get(key string) ([]byte, bool) {
	sh := s.shards[s.ShardFor(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.gets++
	for i := len(sh.pending) - 1; i >= 0; i-- {
		r := sh.pending[i]
		if r.op.Key != key || r.op.Kind == workload.OpRead {
			continue
		}
		if r.op.Kind == workload.OpDelete {
			return nil, false
		}
		return append([]byte(nil), r.op.Value...), true
	}
	return sh.st.read(key, nil)
}

// Flush commits every shard's pending batch, full or not, and finishes the
// compaction passes due, so a flushed service is fully compacted.
func (s *Service) Flush() {
	for i := range s.shards {
		s.FlushShard(i)
	}
}

// FlushShard commits shard i's pending batch, full or not, and then drains
// the shard's compaction (see drainCompactionLocked). The unlock is
// deferred so a panic unwinding out of the commit — the scenario engine's
// crash-storm injection aborts a group commit mid-batch exactly this way —
// leaves the shard lock released and the service crashable.
func (s *Service) FlushShard(i int) {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.commitLocked(sh, sh.freeAt)
	s.drainCompactionLocked(sh)
}

// LogHeads returns shard i's published (durable) and volatile log heads.
// The durable head is read from the device's durable image, so between a
// batch's record appends and its head publish volatile > durable — the
// window where a crash must lose the whole batch. Validation probe.
func (s *Service) LogHeads(i int) (durable, volatile uint64) {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d := binary.LittleEndian.Uint64(sh.rt.Dev.Durable(sh.st.super+superHeadOff, 8))
	return d, sh.st.head
}

// DurableLog returns the durable image of shard i's log bytes in
// [from, to). Offsets past the allocated segments read as zeros — exactly
// what a recovery scan would see there. Validation probe: crash tests use
// it to observe torn (partially persisted) record tails that the
// published head must fence off.
func (s *Service) DurableLog(i int, from, to uint64) []byte {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]byte, 0, to-from)
	sb := uint64(sh.st.segBytes)
	for off := from; off < to; {
		n := min(sb-off%sb, to-off)
		if g, ok := sh.st.segs[off/sb]; ok {
			a := g.base + mem.Addr(off%sb)
			out = append(out, sh.rt.Dev.Durable(a, int(n))...)
		} else {
			out = append(out, make([]byte, n)...)
		}
		off += n
	}
	return out
}

// Crash power-fails every shard and runs recovery: pending batches are
// lost (they were never durable), appended-but-unpublished records are
// abandoned, and each shard's index is rebuilt by scanning its log up to
// the durable head. A shard whose durable image fails recovery validation
// (corrupt lengths or slot table) is reported in the returned error and
// reformatted empty so the service stays serviceable; callers treat a
// non-nil return as data loss. Shards recover on goroutines of their own
// (par.Go): they share nothing a recovery touches — device, runtime, clock,
// trace and store are each shard's own, and the service-wide instruments
// are atomics whose totals do not depend on interleaving — so running them
// at once changes no number. The error returned is the lowest-indexed
// shard's, and a shard's panic (persist.Runtime.AbortAt's, say) reaches the
// caller with its own value once every shard has recovered and unlocked.
// Each shard's recovery adds its simulated ns, the device lines it loaded
// and the records it scanned to the shard's kvservice_recovery_*_total
// counters; a failed scan counts its cost but no records.
func (s *Service) Crash(mode pmem.CrashMode, seed int64) error {
	errs := make([]error, len(s.shards))
	par.Go(len(s.shards), func(i int) {
		sh := s.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.pending = sh.pending[:0]
		super := sh.st.super
		keys := len(sh.st.keys)
		sh.rt.Crash(mode, seed)
		t0, l0 := sh.rt.Clock.Now(), sh.rt.Dev.Stats().Loads
		st, records, err := openStore(sh.th, super, s.cfg.SegBytes, keys)
		sh.recoveryNS.Add(uint64(sh.rt.Clock.Now() - t0))
		sh.recoveryLines.Add(sh.rt.Dev.Stats().Loads - l0)
		sh.recoveryRecords.Add(uint64(records))
		if err != nil {
			errs[i] = err
			st = newStore(sh.th, s.cfg.SegBytes)
		}
		sh.st = st
		s.observeSpaceLocked(sh)
		sh.freeAt = sh.rt.Clock.Now()
	})()
	return cmp.Or(errs...)
}

// --- simulation-facing entry points (see sim.go) -------------------------

// enqueue adds sh's timed requests, in arrival order, to its batch. A batch
// whose oldest request has waited MaxWait by an arrival commits first, at
// its deadline — the deadline rule is shard-local: arrivals come in time
// order and a commit reads and writes only its own shard's device, clock and
// trace, so it does not matter which later arrival notices that the deadline
// passed, only that the batch starts at max(due, freeAt) and closes before
// the shard's next request joins. Then the request is appended, and a full
// batch commits immediately. Both commits are gated on the shard being free.
// A shard's schedule is therefore a function of its own arrivals alone,
// which is what lets Run feed each shard on a goroutine of its own.
func (s *Service) enqueue(sh *shard, reqs []request) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, r := range reqs {
		if len(sh.pending) > 0 {
			if due := sh.pending[0].arrival + s.cfg.MaxWait; due <= r.arrival {
				s.commitLocked(sh, max(due, sh.freeAt))
			}
		}
		sh.pending = append(sh.pending, r)
		if len(sh.pending) >= s.cfg.Batch {
			s.commitLocked(sh, max(r.arrival, sh.freeAt))
		}
	}
	s.flushInstrumentsLocked(sh)
}

// drain commits all leftover partial batches at their deadlines and flushes
// what they observed.
func (s *Service) drain() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.pending) > 0 {
			s.commitLocked(sh, max(sh.pending[0].arrival+s.cfg.MaxWait, sh.freeAt))
		}
		s.flushInstrumentsLocked(sh)
		sh.mu.Unlock()
	}
}

// makespan is the simulated time the last shard went idle.
func (s *Service) makespan() mem.Time {
	var m mem.Time
	for _, sh := range s.shards {
		sh.mu.Lock()
		m = max(m, sh.freeAt)
		sh.mu.Unlock()
	}
	return m
}

// ServiceStats aggregates shard counters for reporting.
type ServiceStats struct {
	Puts    uint64
	Gets    uint64
	Deletes uint64
	Rejects uint64
	Batches uint64
	Fences  uint64
}

// Stats sums the per-shard counters. Fences is the shard devices' fence
// count: every fence on this path is a persist.Thread.Fence, which issues
// one device fence and emits one KFence, so it equals what analysis tools
// count in the shard traces without rescanning them on every call.
func (s *Service) Stats() ServiceStats {
	var st ServiceStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Puts += sh.puts
		st.Gets += sh.gets
		st.Deletes += sh.dels
		st.Rejects += sh.rejects
		st.Batches += sh.batches
		st.Fences += sh.rt.Dev.Stats().Fences
		sh.mu.Unlock()
	}
	return st
}

// SpaceStats is the service's log-space picture: live record bytes vs the
// physical footprint of mapped segments, plus the compactor's work
// counters since the last crash.
type SpaceStats struct {
	Segments    int    // mapped log segments across shards
	LiveBytes   uint64 // live record bytes (current values + tombstones)
	LogBytes    uint64 // mapped segments × segment size
	Compactions uint64 // compaction passes completed
	CopiedBytes uint64 // record bytes copied forward by compaction
}

// Amplification is LogBytes over LiveBytes (0 when nothing is live).
func (sp SpaceStats) Amplification() float64 {
	if sp.LiveBytes == 0 {
		return 0
	}
	return float64(sp.LogBytes) / float64(sp.LiveBytes)
}

// Space sums the per-shard space accounting.
func (s *Service) Space() SpaceStats {
	var sp SpaceStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		sp.Segments += len(sh.st.segs)
		sp.LiveBytes += uint64(sh.st.liveBytes)
		sp.LogBytes += sh.st.logBytes()
		sp.Compactions += sh.st.compactions
		sp.CopiedBytes += sh.st.copiedBytes
		sh.mu.Unlock()
	}
	return sp
}

// Latency exposes the service latency histogram (ns).
func (s *Service) Latency() *obs.Histogram { return s.latency }

// TraceSource returns the per-shard traces merged into one stream: events
// sorted by simulated time (ties keep shard order), thread ID rewritten to
// the shard index, volatile counters summed. Shard address windows are
// disjoint, so the merged stream is a legal multi-threaded run for the
// sanitizer and the epoch analysis. Each shard's trace is already in time
// order — a shard's clock never runs backwards — so this is a k-way merge,
// over snapshots taken here: requests served afterwards are not in it. It
// panics on a service built without Config.Record: there the shards kept
// no events, and an empty stream would pass every analysis.
func (s *Service) TraceSource() trace.EventSource {
	if !s.cfg.Record {
		panic("kvservice: TraceSource on a service built without Config.Record: its shards recorded no events")
	}
	m := &mergeSource{
		meta: trace.Meta{App: "kvservice", Layer: "native", Threads: len(s.shards)},
		srcs: make([]*trace.SliceSource, len(s.shards)),
		rest: make([][]trace.Event, len(s.shards)),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		snap := sh.rt.Trace.Snapshot()
		sh.mu.Unlock()
		m.srcs[i] = trace.NewSliceSource(snap)
		m.vloads += snap.VolatileLoads
		m.vstores += snap.VolatileStores
		m.next(i)
	}
	return m
}

// mergeSource is TraceSource's stream. rest[i] is the unread part of shard
// i's current chunk, srcs[i] the chunks after it.
type mergeSource struct {
	meta            trace.Meta
	srcs            []*trace.SliceSource
	rest            [][]trace.Event
	vloads, vstores uint64
}

func (m *mergeSource) next(i int) {
	// A snapshot of recorded events cannot fail to unpack.
	m.rest[i], _ = m.srcs[i].NextChunk()
}

func (m *mergeSource) Meta() trace.Meta { return m.meta }

func (m *mergeSource) Volatile() (uint64, uint64) { return m.vloads, m.vstores }

// NextChunk returns the next DefaultBlockEvents merged events, or fewer at
// the end, in a slice of its own, then io.EOF.
func (m *mergeSource) NextChunk() ([]trace.Event, error) {
	var out []trace.Event
	for len(out) < trace.DefaultBlockEvents {
		first := -1
		for i, r := range m.rest {
			if len(r) > 0 && (first < 0 || r[0].Time < m.rest[first][0].Time) {
				first = i
			}
		}
		if first < 0 {
			break
		}
		if out == nil {
			out = make([]trace.Event, 0, trace.DefaultBlockEvents)
		}
		e := m.rest[first][0]
		e.TID = uint16(first)
		out = append(out, e)
		if m.rest[first] = m.rest[first][1:]; len(m.rest[first]) == 0 {
			m.next(first)
		}
	}
	if out == nil {
		return nil, io.EOF
	}
	return out, nil
}

// latencyBuckets is the service latency layout: quarter-power-of-two
// steps from 16 ns to ~3.5 ms, fine enough that interpolated p99/p999
// stay within ~19% of the true value across the whole range.
func latencyBuckets() []uint64 {
	const n = 72
	out := make([]uint64, 0, n)
	last := uint64(0)
	for i := 0; i < n; i++ {
		b := uint64(math.Round(16 * math.Pow(2, float64(i)/4)))
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
	}
	return out
}
