package hops

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Model selects the persistence implementation for the Figure 10 replay.
type Model int

const (
	// X86NVM is the baseline: clwb + sfence with durability at the NVM
	// device — every fence stalls for the full PM write latency.
	X86NVM Model = iota
	// X86PWQ is clwb + sfence with a persistent write queue at the memory
	// controller: fences stall only until the MC accepts the writes.
	X86PWQ
	// HOPSNVM is HOPS with durability at NVM: ofences are local TS bumps,
	// persist buffers drain in the background, and only dfences stall.
	HOPSNVM
	// HOPSPWQ is HOPS with a persistent write queue: the rare dfence
	// stalls shrink to MC acceptance latency.
	HOPSPWQ
	// Ideal ignores all ordering and durability (not crash-consistent):
	// the paper's upper bound.
	Ideal
)

var modelNames = [...]string{
	X86NVM: "x86-64 (NVM)", X86PWQ: "x86-64 (PWQ)",
	HOPSNVM: "HOPS (NVM)", HOPSPWQ: "HOPS (PWQ)", Ideal: "IDEAL (NON-CC)",
}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Models lists the Figure 10 configurations in presentation order.
var Models = []Model{X86NVM, X86PWQ, HOPSNVM, HOPSPWQ, Ideal}

// Result is the outcome of replaying one trace under one model.
type Result struct {
	Model Model
	// Cycles is the modelled execution time.
	Cycles mem.Cycles
	// StallCycles is the portion spent stalled on fences or
	// persist-buffer pressure.
	StallCycles mem.Cycles
	// Fences is the number of ordering points replayed; DFences the
	// number treated as durability fences (HOPS models only).
	Fences  int
	DFences int
}

// ReplayObs carries optional observability instruments for a replay. All
// fields may be nil (the zero ReplayObs disables everything): instruments
// record into the obs layer and never influence the modelled timing.
type ReplayObs struct {
	// Occupancy samples the persist-buffer occupancy (scheduled + open
	// entries) after each buffered store for the HOPS models, and the
	// pending-line set size at each fence for the x86 models.
	Occupancy *obs.Histogram
	// DrainStall records the cycles of each nonzero stall: full-PB
	// foreground drains and dfence waits under HOPS, fence drains on x86.
	DrainStall *obs.Histogram
}

// oooWidth models the 8-way out-of-order core of Table 3 in the timing
// replay: recovered compute gaps execute oooWidth instructions per cycle
// (the sustained IPC of the 8-way core), while fence stalls serialize (an
// sfence drains the store buffer regardless of issue width).
const oooWidth = 4

// mcPipeline is the number of in-flight writes each memory controller
// sustains (write-queue depth / banking): background drains retire one
// line every persistLat/(mem.MCs*mcPipeline) cycles.
const mcPipeline = 4

// resolved is the one place the replay reads Config. A zero PBEntries
// takes its §6.4 value from DefaultConfig. DrainAt —
// the occupancy at which the drain engine force-closes (epoch-splits) the
// OPEN epoch to start background flushing early; closed epochs always drain
// in the background from the fence that closed them — is clamped to
// [1, PBEntries]: 1 = fully eager (every store is handed to the drain engine
// immediately, the pre-sweep behaviour), PBEntries = drain only on fences or
// a full buffer.
func (c Config) resolved() Config {
	def := DefaultConfig()
	if c.PBEntries <= 0 {
		c.PBEntries = def.PBEntries
	}
	if c.DrainAt <= 0 {
		c.DrainAt = 1
	}
	if c.DrainAt > c.PBEntries {
		c.DrainAt = c.PBEntries
	}
	return c
}

// frontStep is what the back ends see of one event: the part of replaying
// it that is a function of the trace and the latencies and never of the
// model. The back ends read nothing else of the event, so a step is half
// an event's size.
type frontStep struct {
	// compute is the recovered application compute preceding the event, in
	// cycles on the OOO core.
	compute mem.Cycles
	// lines is the number of cache lines a store or flush spans.
	lines int
	// pending is, at a fence, the size of the thread's x86 drain set: the
	// distinct lines CLWB'd or NT-stored since its previous fence.
	pending int
	tid     uint16
	kind    trace.Kind
	// dfence marks a KTxEnd that is a durability fence under the HOPS
	// models: its transaction fenced at least once.
	dfence bool
}

// pendingSets is one thread's reconstruction of what the recording
// execution and an x86 machine have outstanding at its next fence, and of
// whether its open transaction has fenced.
type pendingSets struct {
	// clwb mirrors pmem.Device.PendingFlushes exactly (distinct CLWB'd
	// lines since the last fence): it reconstructs the cost the original
	// execution charged each fence.
	clwb mem.LineSet
	// drain is the x86 models' drain set: clwb plus the NT-store lines
	// waiting in the WCB.
	drain mem.LineSet
	// fenced is set by a KFence and cleared by KTxBegin and KTxEnd: at a
	// KTxEnd it says whether the transaction ordered anything.
	fenced bool
}

// front is the model-independent half of the timing replay, advanced once
// per event however many models replay it.
//
// The trace was produced by an execution whose clock charged each event
// trace.Charge for its kind; everything else in the inter-event gaps
// is application compute, volatile traffic, and loads. The replay keeps
// that compute identical and substitutes each model's ordering/durability
// behaviour for the recorded fence costs — the same-work, different-
// persistence-hardware comparison of Figure 10. Recovering the compute
// needs the recorded device's pending-flush set, and the x86 models' fence
// cost needs their drain set; both are per-thread functions of the event
// stream alone, so the front maintains them and the five back ends share
// one front exactly. So is the HOPS durability point: a KTxEnd is a dfence
// exactly when its thread fenced since its KTxBegin, which the front knows
// when the commit arrives.
type front struct {
	threads trace.TIDTable[pendingSets]

	prevTime mem.Time
	started  bool
}

// next advances the front over e and writes what the back ends need of it
// to st. Both are pointers so that neither 32-byte struct round-trips
// through the stack: storing a step field by field and reloading it whole
// stalls store forwarding on every event.
func (f *front) next(e *trace.Event, st *frontStep) {
	if !f.started {
		f.prevTime = e.Time
		f.started = true
	}
	// Recover pure compute: the recorded gap minus the cost the original
	// execution charged for this event. Each case passes its own constant
	// kind, so the inlined Charge folds to the case's cost. Compute
	// executes on the OOO core; fences (substituted per model) serialize.
	gap := mem.ToCycles(e.Time - f.prevTime)
	f.prevTime = e.Time

	*st = frontStep{tid: e.TID, kind: e.Kind}
	var orig mem.Cycles
	switch e.Kind {
	case trace.KStore:
		orig = trace.Charge(trace.KStore, 0)
		_, st.lines = e.Lines()
	case trace.KStoreNT:
		orig = trace.Charge(trace.KStoreNT, 0)
		p := f.threads.Get(e.TID)
		l, n := e.Lines()
		for st.lines = n; n > 0; l, n = l+1, n-1 {
			p.drain.Add(l)
		}
	case trace.KLoad:
		orig = trace.Charge(trace.KLoad, 0)
	case trace.KFlush:
		orig = trace.Charge(trace.KFlush, 0)
		p := f.threads.Get(e.TID)
		l, n := e.Lines()
		for st.lines = n; n > 0; l, n = l+1, n-1 {
			p.clwb.Add(l)
			p.drain.Add(l)
		}
	case trace.KFence:
		p := f.threads.Get(e.TID)
		orig = trace.Charge(trace.KFence, p.clwb.Len())
		st.pending = p.drain.Len()
		p.clwb.Reset()
		p.drain.Reset()
		p.fenced = true
	case trace.KTxBegin:
		f.threads.Get(e.TID).fenced = false
	case trace.KTxEnd:
		p := f.threads.Get(e.TID)
		st.dfence = p.fenced
		p.fenced = false
	case trace.KReleased:
		panic("hops: an event read after its chunk was released")
	}
	if gap > orig {
		st.compute = (gap - orig) / oooWidth
	}
}

// pbState is one thread's persist buffer in the timing replay. done[head:]
// holds completion times of entries already handed to the background drain
// engine (FIFO, nondecreasing); open counts entries of the current epoch
// still held in the buffer — BEP forbids draining an epoch before it
// closes, so they have no completion time yet.
//
// Invariant: head < len(done), or both are 0 — pop and the dfence path
// truncate done when the last entry leaves, so an empty queue is
// len(done) == 0, the backing array is reused from its start, and a
// transactional workload (every commit empties the buffer) never grows it
// past the buffer's capacity.
type pbState struct {
	done []mem.Cycles
	head int
	open int
}

// queued is the number of entries handed to the drain engine and not yet
// complete.
func (pb *pbState) queued() int { return len(pb.done) - pb.head }

// pop drops the head entry.
func (pb *pbState) pop() {
	pb.head++
	if pb.head == len(pb.done) {
		pb.done, pb.head = pb.done[:0], 0
	}
}

// replayer is one model's back end of the timing replay: it applies each
// event's model-specific ordering and durability behaviour to its own
// clock, taking the model-independent part, the dfence decision included,
// from the front, which stage 1 of the replay driver advances (stream.go).
// Compute time lets the HOPS persist buffers drain in the background,
// which is where HOPS's advantage comes from.
//
// For the HOPS models every KFence is an ofence, and the commit (KTxEnd) of
// a transaction that fenced is its dfence: durability at commit. Fences
// outside any transaction (asynchronous log truncation, root updates) order
// writes but need no synchronous durability, and a read-only transaction
// has nothing to make durable; the next dfence provides the durability
// point, exactly the split Figure 8 advocates.
type replayer struct {
	model Model
	res   Result

	// occupancy and drainStall accumulate the ReplayObs histograms'
	// observations without atomics; flush hands them over.
	occupancy, drainStall obs.Tally

	// pbs holds the per-thread HOPS persist buffers.
	pbs trace.TIDTable[pbState]

	persistLat    mem.Cycles
	drainInterval mem.Cycles
	pbEntries     int
	drainAt       int

	now mem.Cycles
}

func newReplayer(model Model, cfg Config, ro ReplayObs) *replayer {
	cfg = cfg.resolved()
	r := &replayer{
		model:      model,
		occupancy:  obs.NewTally(ro.Occupancy),
		drainStall: obs.NewTally(ro.DrainStall),
		res:        Result{Model: model},
		pbEntries:  cfg.PBEntries,
		drainAt:    cfg.DrainAt,
	}
	r.persistLat = mem.PMCycles
	if model == X86PWQ || model == HOPSPWQ {
		r.persistLat = mem.MCQueueCycles
	}
	r.drainInterval = mem.Cycles(int(r.persistLat) / (mem.MCs * mcPipeline))
	if r.drainInterval == 0 {
		r.drainInterval = 1
	}
	return r
}

// schedule hands every open-epoch entry to the background drain
// engine: the first completes a full persist latency from now, the
// rest stream behind it at the MC drain interval.
func (r *replayer) schedule(pb *pbState, now mem.Cycles) {
	for ; pb.open > 0; pb.open-- {
		completion := now + r.persistLat
		if n := len(pb.done); n > 0 && pb.done[n-1]+r.drainInterval > completion {
			completion = pb.done[n-1] + r.drainInterval
		}
		pb.done = append(pb.done, completion)
	}
}

// retire drops entries whose background drain has completed.
func (r *replayer) retire(pb *pbState, now mem.Cycles) {
	for len(pb.done) > 0 && pb.done[pb.head] <= now {
		pb.pop()
	}
}

// buffer enters a store's lines into the thread's persist buffer, one
// entry per line.
func (r *replayer) buffer(pb *pbState, lines int) {
	for i := 0; i < lines; i++ {
		r.retire(pb, r.now)
		if pb.queued()+pb.open >= r.pbEntries {
			// Full PB: force-close the open epoch and stall until the
			// head entry drains.
			r.schedule(pb, r.now)
			stall := pb.done[pb.head] - r.now
			r.now += stall
			r.res.StallCycles += stall
			r.drainStall.Observe(uint64(stall))
			pb.pop()
		}
		pb.open++
		if pb.open >= r.drainAt {
			// Occupancy hit the launch threshold: epoch-split the open
			// epoch and drain it in the background.
			r.schedule(pb, r.now)
		}
		r.occupancy.Observe(uint64(pb.queued() + pb.open))
	}
}

// buffered reports whether the model has a persist buffer. Only those
// models replay a batch step by step (applyAll); the others' replay is a
// sum over the batch (applySum).
func (r *replayer) buffered() bool { return r.model == HOPSNVM || r.model == HOPSPWQ }

// applyAll replays a batch of resolved events under a HOPS model.
func (r *replayer) applyAll(batch []frontStep) {
	for i := range batch {
		r.apply(&batch[i])
	}
}

// apply replays one resolved event under a HOPS model.
func (r *replayer) apply(st *frontStep) {
	r.now += st.compute

	switch st.kind {
	case trace.KStore, trace.KStoreNT:
		r.now += trace.Charge(st.kind, 0)
		r.buffer(r.pbs.Get(st.tid), st.lines)

	case trace.KLoad:
		r.now += trace.Charge(trace.KLoad, 0)

	// KFlush: HOPS needs no flush instructions; the instruction disappears
	// from the stream.

	case trace.KFence:
		r.res.Fences++
		r.now++ // TS register bump
		pb := r.pbs.Get(st.tid)
		r.retire(pb, r.now)
		// The fence closes the epoch; its entries may now drain, so hand
		// them to the background engine (BEP rule: epochs drain when
		// closed, an ofence never stalls for them).
		r.schedule(pb, r.now)

	case trace.KTxEnd:
		if st.dfence {
			// The dfence: stall until every closed epoch has drained.
			r.res.DFences++
			pb := r.pbs.Get(st.tid)
			r.retire(pb, r.now)
			if len(pb.done) > 0 {
				stall := pb.done[len(pb.done)-1] - r.now
				r.now += stall
				r.res.StallCycles += stall
				r.drainStall.Observe(uint64(stall))
				pb.done, pb.head = pb.done[:0], 0
			}
		}

	case trace.KVLoad, trace.KVStore:
		r.now++
	}
}

// batchSum is what a model without a persist buffer needs of a batch. Such
// a model charges every event a constant of its kind on top of its compute,
// except a fence under x86, which stalls for the lines pending at it; so
// its replay of the batch is the batch's compute, its count of each kind
// and its fences' pending counts in stream order.
type batchSum struct {
	compute mem.Cycles
	// kinds counts the steps of each kind, indexed by the Kind byte.
	kinds   [1 << 8]int
	pending []int
}

// of makes s the summary of batch.
func (s *batchSum) of(batch []frontStep) {
	s.compute, s.kinds, s.pending = 0, [1 << 8]int{}, s.pending[:0]
	for i := range batch {
		st := &batch[i]
		s.compute += st.compute
		s.kinds[st.kind]++
		if st.kind == trace.KFence {
			s.pending = append(s.pending, st.pending)
		}
	}
}

// applySum replays a batch under x86 or IDEAL from its summary, observing
// at each fence what stepping it would.
func (r *replayer) applySum(s *batchSum) {
	n := func(k trace.Kind) mem.Cycles { return mem.Cycles(s.kinds[k]) }
	r.now += s.compute +
		n(trace.KStore)*trace.Charge(trace.KStore, 0) +
		n(trace.KStoreNT)*trace.Charge(trace.KStoreNT, 0) +
		n(trace.KLoad)*trace.Charge(trace.KLoad, 0) +
		n(trace.KVLoad) + n(trace.KVStore)
	r.res.Fences += s.kinds[trace.KFence]
	if r.model == Ideal {
		// No flush instructions, and a fence is a bare ordering point.
		r.now += n(trace.KFence)
		return
	}
	// x86: a clwb issue per flush, and each fence drains the lines the
	// front found pending at it.
	r.now += n(trace.KFlush) * trace.Charge(trace.KFlush, 0)
	for _, p := range s.pending {
		r.occupancy.Observe(uint64(p))
		stall := x86FenceCost(p, r.persistLat, r.drainInterval)
		r.now += stall
		r.res.StallCycles += stall
		r.drainStall.Observe(uint64(stall))
	}
}

// flush adds the tallied observations to the ReplayObs histograms.
func (r *replayer) flush() {
	r.occupancy.Flush()
	r.drainStall.Flush()
}

func (r *replayer) result() Result {
	r.res.Cycles = r.now
	return r.res
}

// x86FenceCost models an sfence draining n outstanding lines: the first
// line pays the full persist latency, the rest stream behind it across
// the MCs.
func x86FenceCost(n int, persistLat, drainInterval mem.Cycles) mem.Cycles {
	if n == 0 {
		return 2 // bare sfence
	}
	return persistLat + mem.Cycles(n-1)*drainInterval
}
