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

// resolved is the one place the replay reads Config. A zero PBEntries, MCs,
// OOOWidth or MCPipeline takes its §6.4 value from DefaultConfig. DrainAt —
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
	if c.MCs <= 0 {
		c.MCs = def.MCs
	}
	if c.OOOWidth == 0 {
		c.OOOWidth = def.OOOWidth
	}
	if c.MCPipeline == 0 {
		c.MCPipeline = def.MCPipeline
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
	tid     int32
	kind    trace.Kind
	// dfence marks a KFence that is a durability fence under the HOPS
	// models. The dfence resolver sets it, not the front.
	dfence bool
}

// pendingSets is one thread's reconstruction of what the recording
// execution and an x86 machine have outstanding at its next fence.
type pendingSets struct {
	// clwb mirrors pmem.Device.PendingFlushes exactly (distinct CLWB'd
	// lines since the last fence): it reconstructs the cost the original
	// execution charged each fence.
	clwb mem.LineSet
	// drain is the x86 models' drain set: clwb plus the NT-store lines
	// waiting in the WCB.
	drain mem.LineSet
}

// front is the model-independent half of the timing replay, advanced once
// per event however many models replay it.
//
// The trace was produced by an execution whose clock charged each event a
// known cost (see persist.Thread); everything else in the inter-event gaps
// is application compute, volatile traffic, and loads. The replay keeps
// that compute identical and substitutes each model's ordering/durability
// behaviour for the recorded fence costs — the same-work, different-
// persistence-hardware comparison of Figure 10. Recovering the compute
// needs the recorded device's pending-flush set, and the x86 models' fence
// cost needs their drain set; both are per-thread functions of the event
// stream alone, so the front maintains them and the five back ends share
// one front exactly.
type front struct {
	lat     mem.Latency
	ooo     mem.Cycles
	threads trace.TIDTable[pendingSets]

	prevTime mem.Time
	started  bool
}

func newFront(cfg Config, lat mem.Latency) *front {
	return &front{lat: lat, ooo: mem.Cycles(cfg.resolved().OOOWidth)}
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
	// execution charged for this event (see persist.Thread). Compute
	// executes on the OOO core; fences (substituted per model) serialize.
	gap := f.lat.ToCycles(e.Time - f.prevTime)
	f.prevTime = e.Time

	*st = frontStep{tid: e.TID, kind: e.Kind}
	var orig mem.Cycles
	switch e.Kind {
	case trace.KStore:
		orig = f.lat.StoreCycles
		_, st.lines = e.Lines()
	case trace.KStoreNT:
		orig = f.lat.StoreCycles + 1
		p := f.threads.Get(e.TID)
		l, n := e.Lines()
		for st.lines = n; n > 0; l, n = l+1, n-1 {
			p.drain.Add(l)
		}
	case trace.KLoad:
		orig = f.lat.L1Cycles
	case trace.KFlush:
		orig = 2
		p := f.threads.Get(e.TID)
		l, n := e.Lines()
		for st.lines = n; n > 0; l, n = l+1, n-1 {
			p.clwb.Add(l)
			p.drain.Add(l)
		}
	case trace.KFence:
		p := f.threads.Get(e.TID)
		orig = f.lat.PMCycles
		if n := p.clwb.Len(); n > 1 {
			orig += mem.Cycles(n-1) * (f.lat.PMCycles / 8)
		}
		st.pending = p.drain.Len()
		p.clwb.Reset()
		p.drain.Reset()
	}
	if gap > orig {
		st.compute = (gap - orig) / f.ooo
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
// clock, taking the model-independent part from the front and the dfence
// decision from the streaming lookahead, both computed by stage 1 of the
// replay driver (stream.go). Compute time lets the HOPS persist buffers
// drain in the background, which is where HOPS's advantage comes from.
//
// For the HOPS models, the last fence before each KTxEnd is a dfence
// (durability at commit); all other fences — including those outside any
// transaction (asynchronous log truncation, root updates), which order
// writes but need no synchronous durability — become ofences, with the
// next dfence providing the durability point, exactly the split Figure 8
// advocates.
type replayer struct {
	model Model
	lat   mem.Latency
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

func newReplayer(model Model, cfg Config, lat mem.Latency, ro ReplayObs) *replayer {
	cfg = cfg.resolved()
	r := &replayer{
		model: model, lat: lat,
		occupancy:  obs.NewTally(ro.Occupancy),
		drainStall: obs.NewTally(ro.DrainStall),
		res:        Result{Model: model},
		pbEntries:  cfg.PBEntries,
		drainAt:    cfg.DrainAt,
	}
	r.persistLat = lat.PMCycles
	if model == X86PWQ || model == HOPSPWQ {
		r.persistLat = lat.MCQueue
	}
	r.drainInterval = mem.Cycles(int(r.persistLat) / (cfg.MCs * cfg.MCPipeline))
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

// applyAll replays a batch of resolved events.
func (r *replayer) applyAll(batch []frontStep) {
	for i := range batch {
		r.apply(&batch[i])
	}
}

// apply replays one resolved event.
func (r *replayer) apply(st *frontStep) {
	r.now += st.compute

	switch st.kind {
	case trace.KStore, trace.KStoreNT:
		r.now += r.lat.StoreCycles
		if st.kind == trace.KStoreNT {
			r.now++
		}
		// x86: the front tracks the NT lines awaiting the fence. IDEAL:
		// no persistence bookkeeping at all.
		if r.model == HOPSNVM || r.model == HOPSPWQ {
			r.buffer(r.pbs.Get(st.tid), st.lines)
		}

	case trace.KLoad:
		r.now += r.lat.L1Cycles

	case trace.KFlush:
		if r.model == X86NVM || r.model == X86PWQ {
			r.now += 2 // clwb issue cost
		}
		// HOPS and IDEAL need no flush instructions: the instruction
		// disappears from the stream.

	case trace.KFence:
		r.res.Fences++
		switch r.model {
		case X86NVM, X86PWQ:
			r.occupancy.Observe(uint64(st.pending))
			stall := x86FenceCost(st.pending, r.persistLat, r.drainInterval)
			r.now += stall
			r.res.StallCycles += stall
			r.drainStall.Observe(uint64(stall))
		case HOPSNVM, HOPSPWQ:
			r.now++ // TS register bump
			pb := r.pbs.Get(st.tid)
			r.retire(pb, r.now)
			// The fence closes the epoch; its entries may now drain,
			// so hand them to the background engine (BEP rule: epochs
			// drain when closed, an ofence never stalls for them).
			r.schedule(pb, r.now)
			if st.dfence {
				r.res.DFences++
				if len(pb.done) > 0 {
					stall := pb.done[len(pb.done)-1] - r.now
					r.now += stall
					r.res.StallCycles += stall
					r.drainStall.Observe(uint64(stall))
					pb.done, pb.head = pb.done[:0], 0
				}
			}
		case Ideal:
			r.now++
		}

	case trace.KVLoad, trace.KVStore:
		r.now++
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
