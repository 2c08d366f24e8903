package hops

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// The reference replay: the replayer as it stood before the front / back-end
// split, moved here verbatim (identifiers prefixed ref) except for the dfence
// rule, which it decides at each commit from a map of its own. It shares no
// code with timing.go — a map of maps per pending set rebuilt after every
// fence, a mem.Lines slice per store and flush, a persist-buffer queue that
// slices its head off, a map of fenced threads — so it is an independent
// statement of what each model charges each event, and
// TestReplayMatchesReference holds the production replay to it exactly.

// refPBState is one thread's persist buffer in the timing replay. done holds
// completion times of entries already handed to the background drain
// engine (FIFO, nondecreasing); open counts entries of the current epoch
// still held in the buffer — BEP forbids draining an epoch before it
// closes, so they have no completion time yet.
type refPBState struct {
	done []mem.Cycles
	open int
}

// refReplayer is the incremental core of the timing replay: one event at a
// time via step.
//
// The trace was produced by an execution whose clock charged each event a
// known cost (see persist.Thread); everything else in the inter-event gaps
// is application compute, volatile traffic, and loads. The replay keeps
// that compute identical and substitutes each model's ordering/durability
// behaviour for the recorded fence costs — the same-work, different-
// persistence-hardware comparison of Figure 10. Crucially, compute time
// lets the HOPS persist buffers drain in the background, which is where
// HOPS's advantage comes from.
//
// For the HOPS models, the commit (KTxEnd) of a transaction that fenced is a
// dfence (durability at commit); every fence is an ofence — those outside
// any transaction (asynchronous log truncation, root updates) order writes
// but need no synchronous durability — with the next dfence providing the
// durability point, exactly the split Figure 8 advocates.
type refReplayer struct {
	model Model
	cfg   Config
	ro    ReplayObs
	res   Result

	// origPending mirrors pmem.Device.PendingFlushes exactly (distinct
	// CLWB'd lines since the last fence): it reconstructs the cost the
	// original execution charged each fence, independent of the model
	// being replayed. modelPending is the x86 models' own drain set and
	// additionally includes NT-store lines waiting in the WCB.
	origPending  map[uint16]map[mem.Line]bool
	modelPending map[uint16]map[mem.Line]bool
	// pbs holds the per-thread HOPS persist buffers.
	pbs map[uint16]*refPBState
	// fencedTx holds the threads that fenced since their last KTxBegin or
	// KTxEnd: their next commit is a dfence.
	fencedTx map[uint16]bool

	persistLat    mem.Cycles
	drainInterval mem.Cycles
	ooo           mem.Cycles
	drainAt       int

	now      mem.Cycles
	prevTime mem.Time
	started  bool
}

func newRefReplayer(model Model, cfg Config, ro ReplayObs) *refReplayer {
	r := &refReplayer{
		model: model, cfg: cfg, ro: ro,
		res:          Result{Model: model},
		origPending:  make(map[uint16]map[mem.Line]bool),
		modelPending: make(map[uint16]map[mem.Line]bool),
		pbs:          make(map[uint16]*refPBState),
		fencedTx:     make(map[uint16]bool),
	}
	r.persistLat = mem.PMCycles
	if model == X86PWQ || model == HOPSPWQ {
		r.persistLat = mem.MCQueueCycles
	}
	// Each MC sustains four in-flight writes.
	r.drainInterval = mem.Cycles(int(r.persistLat) / (mem.MCs * 4))
	if r.drainInterval == 0 {
		r.drainInterval = 1
	}

	// DrainAt is the occupancy at which the drain engine force-closes
	// (epoch-splits) the OPEN epoch to start background flushing early;
	// closed epochs always drain in the background from the fence that
	// closed them. Clamp to [1, PBEntries]: 1 = fully eager (every store
	// is handed to the drain engine immediately, the pre-sweep behaviour),
	// PBEntries = drain only on fences or a full buffer.
	r.drainAt = cfg.DrainAt
	if r.drainAt <= 0 {
		r.drainAt = 1
	}
	if r.drainAt > cfg.PBEntries {
		r.drainAt = cfg.PBEntries
	}

	r.ooo = 4 // the sustained IPC of Table 3's 8-way core
	return r
}

func refGetSet(m map[uint16]map[mem.Line]bool, tid uint16) map[mem.Line]bool {
	p := m[tid]
	if p == nil {
		p = make(map[mem.Line]bool)
		m[tid] = p
	}
	return p
}

func (r *refReplayer) refGetPB(tid uint16) *refPBState {
	pb := r.pbs[tid]
	if pb == nil {
		pb = &refPBState{}
		r.pbs[tid] = pb
	}
	return pb
}

// schedule hands every open-epoch entry to the background drain
// engine: the first completes a full persist latency from now, the
// rest stream behind it at the MC drain interval.
func (r *refReplayer) schedule(pb *refPBState, now mem.Cycles) {
	for ; pb.open > 0; pb.open-- {
		completion := now + r.persistLat
		if n := len(pb.done); n > 0 && pb.done[n-1]+r.drainInterval > completion {
			completion = pb.done[n-1] + r.drainInterval
		}
		pb.done = append(pb.done, completion)
	}
}

// retire drops entries whose background drain has completed.
func (r *refReplayer) retire(pb *refPBState, now mem.Cycles) {
	for len(pb.done) > 0 && pb.done[0] <= now {
		pb.done = pb.done[1:]
	}
}

// step replays one event.
func (r *refReplayer) step(e trace.Event) {
	if !r.started {
		r.prevTime = e.Time
		r.started = true
	}
	// Recover pure compute: the recorded gap minus the cost the
	// original execution charged for this event.
	gap := mem.ToCycles(e.Time - r.prevTime)
	orig := refOriginalCharge(e, refGetSet(r.origPending, e.TID))
	if gap > orig {
		// Compute executes on the OOO core; fences (substituted below
		// per model) serialize.
		r.now += (gap - orig) / r.ooo
	}
	r.prevTime = e.Time

	// Maintain the original execution's pending-flush bookkeeping
	// regardless of model.
	switch e.Kind {
	case trace.KFlush:
		for _, l := range mem.Lines(e.Addr, int(e.Size)) {
			refGetSet(r.origPending, e.TID)[l] = true
		}
	case trace.KFence:
		delete(r.origPending, e.TID)
	}

	switch e.Kind {
	case trace.KStore, trace.KStoreNT:
		r.now += mem.StoreCycles
		if e.Kind == trace.KStoreNT {
			r.now++
		}
		switch r.model {
		case X86NVM, X86PWQ:
			if e.Kind == trace.KStoreNT {
				for _, l := range mem.Lines(e.Addr, int(e.Size)) {
					refGetSet(r.modelPending, e.TID)[l] = true
				}
			}
		case HOPSNVM, HOPSPWQ:
			pb := r.refGetPB(e.TID)
			for range mem.Lines(e.Addr, int(e.Size)) {
				r.retire(pb, r.now)
				if len(pb.done)+pb.open >= r.cfg.PBEntries {
					// Full PB: force-close the open epoch and stall
					// until the head entry drains.
					r.schedule(pb, r.now)
					stall := pb.done[0] - r.now
					r.now += stall
					r.res.StallCycles += stall
					r.ro.DrainStall.Observe(uint64(stall))
					pb.done = pb.done[1:]
				}
				pb.open++
				if pb.open >= r.drainAt {
					// Occupancy hit the launch threshold: epoch-split
					// the open epoch and drain it in the background.
					r.schedule(pb, r.now)
				}
				r.ro.Occupancy.Observe(uint64(len(pb.done) + pb.open))
			}
		case Ideal:
			// No persistence bookkeeping at all.
		}

	case trace.KLoad:
		r.now += mem.L1Cycles

	case trace.KFlush:
		switch r.model {
		case X86NVM, X86PWQ:
			r.now += 2 // clwb issue cost
			for _, l := range mem.Lines(e.Addr, int(e.Size)) {
				refGetSet(r.modelPending, e.TID)[l] = true
			}
		default:
			// HOPS and IDEAL need no flush instructions: the
			// instruction disappears from the stream.
		}

	case trace.KFence:
		r.res.Fences++
		switch r.model {
		case X86NVM, X86PWQ:
			n := len(refGetSet(r.modelPending, e.TID))
			r.ro.Occupancy.Observe(uint64(n))
			stall := refX86FenceCost(n, r.persistLat, r.drainInterval)
			r.now += stall
			r.res.StallCycles += stall
			r.ro.DrainStall.Observe(uint64(stall))
			delete(r.modelPending, e.TID)
		case HOPSNVM, HOPSPWQ:
			r.now++ // TS register bump
			pb := r.refGetPB(e.TID)
			r.retire(pb, r.now)
			// The fence closes the epoch; its entries may now drain,
			// so hand them to the background engine (BEP rule: epochs
			// drain when closed, an ofence never stalls for them).
			r.schedule(pb, r.now)
		case Ideal:
			r.now++
		}
		r.fencedTx[e.TID] = true

	case trace.KTxBegin:
		delete(r.fencedTx, e.TID)

	case trace.KTxEnd:
		dfence := r.fencedTx[e.TID]
		delete(r.fencedTx, e.TID)
		if dfence && (r.model == HOPSNVM || r.model == HOPSPWQ) {
			// The commit of a transaction that fenced: stall until every
			// closed epoch has drained.
			r.res.DFences++
			pb := r.refGetPB(e.TID)
			r.retire(pb, r.now)
			if len(pb.done) > 0 {
				stall := pb.done[len(pb.done)-1] - r.now
				r.now += stall
				r.res.StallCycles += stall
				r.ro.DrainStall.Observe(uint64(stall))
				pb.done = pb.done[:0]
			}
		}

	case trace.KVLoad, trace.KVStore:
		r.now++
	}
}

func (r *refReplayer) result() Result {
	r.res.Cycles = r.now
	return r.res
}

// refOriginalCharge reproduces the cycle cost persist.Thread charged for an
// event when the trace was recorded, so the replay can subtract it from the
// inter-event gap and keep only genuine compute. pending is the thread's
// distinct-flushed-lines set maintained in event order — identical to the
// device state the original fence saw.
func refOriginalCharge(e trace.Event, pending map[mem.Line]bool) mem.Cycles {
	switch e.Kind {
	case trace.KStore:
		return mem.StoreCycles
	case trace.KStoreNT:
		return mem.StoreCycles + 1
	case trace.KLoad:
		return mem.L1Cycles
	case trace.KFlush:
		return 2
	case trace.KFence:
		cost := mem.PMCycles
		if n := len(pending); n > 1 {
			cost += mem.Cycles(n-1) * (mem.PMCycles / 8)
		}
		return cost
	default:
		return 0
	}
}

// refX86FenceCost models an sfence draining n outstanding lines: the first
// line pays the full persist latency, the rest stream behind it across
// the MCs.
func refX86FenceCost(n int, persistLat, drainInterval mem.Cycles) mem.Cycles {
	if n == 0 {
		return 2 // bare sfence
	}
	return persistLat + mem.Cycles(n-1)*drainInterval
}

// refReplay replays tr under model with the reference replayer.
func refReplay(tr *trace.Trace, model Model, cfg Config, ro ReplayObs) Result {
	r := newRefReplayer(model, cfg, ro)
	for _, e := range events(tr) {
		r.step(e)
	}
	return r.result()
}

// builder assembles hand-built traces whose timestamps advance by a fixed
// pseudo-random walk, so compute gaps are sometimes below the recorded
// charge (no compute recovered) and sometimes far above it.
type builder struct {
	tr  *trace.Trace
	at  mem.Time
	rng *rand.Rand
}

func newBuilder(seed int64) *builder {
	return &builder{tr: &trace.Trace{App: "ref", Layer: "native"}, rng: rand.New(rand.NewSource(seed))}
}

func (b *builder) add(tid uint16, k trace.Kind, a mem.Addr, size uint32) {
	b.at += mem.Time(b.rng.Intn(300))
	b.tr.Append(trace.Event{Kind: k, TID: tid, Time: b.at, Addr: a, Size: size})
}

func lineAddr(i int) mem.Addr { return pm + mem.Addr(i)*mem.LineSize }

// ntHeavyTrace is mostly non-temporal stores, many of them to lines the
// same epoch also CLWBs (the x86 drain set must count such a line once) and
// many spanning several lines from an unaligned start.
func ntHeavyTrace(n int) *trace.Trace {
	b := newBuilder(7)
	for i := 0; i < n; i++ {
		tid := uint16(b.rng.Intn(2))
		b.add(tid, trace.KTxBegin, 0, 0)
		for j := 0; j < 1+b.rng.Intn(12); j++ {
			a := lineAddr(b.rng.Intn(24)) + mem.Addr(b.rng.Intn(64))
			switch r := b.rng.Intn(10); {
			case r < 6:
				b.add(tid, trace.KStoreNT, a, uint32(1+b.rng.Intn(300)))
			case r < 8:
				b.add(tid, trace.KStore, a, uint32(1+b.rng.Intn(300)))
			default:
				b.add(tid, trace.KFlush, a, uint32(1+b.rng.Intn(200)))
			}
		}
		b.add(tid, trace.KFence, 0, 0)
		if b.rng.Intn(3) > 0 {
			b.add(tid, trace.KTxEnd, 0, 0)
		}
	}
	return b.tr
}

// largeEpochTrace has epochs that take the pending sets through every
// LineSet path: more than mem.SmallSet distinct lines flushed in descending
// order (no high-water shortcut, so the index is built), lines flushed a
// second and third time before the fence (scan hits below the switch, index
// hits above it), and small epochs afterwards (the index must be gone).
func largeEpochTrace() *trace.Trace {
	b := newBuilder(11)
	for round, lines := range []int{3 * mem.SmallSet, 2, mem.SmallSet + 1, mem.SmallSet, 1} {
		b.add(0, trace.KTxBegin, 0, 0)
		for i := lines - 1; i >= 0; i-- {
			b.add(0, trace.KStore, lineAddr(i), 8)
			b.add(0, trace.KFlush, lineAddr(i), 8)
			if i%5 == 0 {
				b.add(0, trace.KFlush, lineAddr(i), 8) // the same line twice
				b.add(0, trace.KStoreNT, lineAddr(i+2), 16)
			}
		}
		for i := 0; i < lines; i += 7 {
			b.add(0, trace.KFlush, lineAddr(i), 130) // three lines, all seen
		}
		b.add(0, trace.KFence, 0, 0)
		if round%2 == 0 {
			b.add(0, trace.KTxEnd, 0, 0)
		}
	}
	return b.tr
}

// oddTIDTrace interleaves a dense TID with a mid-range one and the highest
// (the lazily built side of every per-thread table) and ends in fences that
// no commit follows, which stay ofences.
func oddTIDTrace() *trace.Trace {
	b := newBuilder(13)
	tids := []uint16{0xFFFF, 1 << 15, 3}
	for i := 0; i < 120; i++ {
		tid := tids[b.rng.Intn(len(tids))]
		a := lineAddr(b.rng.Intn(40))
		switch r := b.rng.Intn(12); {
		case r < 4:
			b.add(tid, trace.KStore, a, uint32(1+b.rng.Intn(150)))
		case r < 6:
			b.add(tid, trace.KStoreNT, a, 64)
		case r < 8:
			b.add(tid, trace.KFlush, a, 64)
		case r < 10:
			b.add(tid, trace.KFence, 0, 0)
		case r < 11:
			b.add(tid, trace.KTxEnd, 0, 0)
		default:
			b.add(tid, trace.KLoad, a, 8)
		}
	}
	for _, tid := range tids {
		b.add(tid, trace.KStore, lineAddr(1), 8)
		b.add(tid, trace.KFence, 0, 0)
		b.add(tid, trace.KFence, 0, 0)
	}
	return b.tr
}

// recorded runs one of the simulatable apps at a small size through the
// suite's one driver and returns the trace it recorded.
func recorded(app string) *trace.Trace {
	const clients, ops, seed = 4, 12, 1
	a, err := crashcheck.Lookup(app)
	if err != nil {
		panic(err)
	}
	rt := persist.NewRuntime(a.Name, a.Layer, clients, persist.Config{})
	a.Run(rt, clients, ops, seed)
	return rt.Trace
}

func testObs() ReplayObs {
	return ReplayObs{
		Occupancy:  obs.NewHistogram(obs.ExpBuckets(1, 2, 8)...),
		DrainStall: obs.NewHistogram(obs.ExpBuckets(1, 2, 14)...),
	}
}

// requireMatchesReference holds ReplaySource and NormalizedSource over tr
// to the reference replay: every Result field, every normalized runtime
// bit for bit, and both histograms of every model — from the single-model
// replay and from the five-model pass, which must observe the same values.
func requireMatchesReference(t *testing.T, name string, tr *trace.Trace, cfg Config) {
	t.Helper()
	want := make(map[Model]Result)
	wantObs := make(map[Model]ReplayObs)
	for _, m := range Models {
		wantObs[m] = testObs()
		want[m] = refReplay(tr, m, cfg, wantObs[m])
	}
	sameObs := func(path string, m Model, got ReplayObs) {
		t.Helper()
		if g, w := got.Occupancy.Snapshot(), wantObs[m].Occupancy.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s %+v %v: %s occupancy %+v, reference %+v", name, cfg, m, path, g, w)
		}
		if g, w := got.DrainStall.Snapshot(), wantObs[m].DrainStall.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s %+v %v: %s drain stalls %+v, reference %+v", name, cfg, m, path, g, w)
		}
	}

	for _, m := range Models {
		ro := testObs()
		got, err := ReplaySource(trace.NewSliceSource(tr), m, cfg, ro)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[m] {
			t.Errorf("%s %+v %v: replay %+v, reference %+v", name, cfg, m, got, want[m])
		}
		sameObs("ReplaySource", m, ro)
	}

	gotObs := make(map[Model]ReplayObs)
	for _, m := range Models {
		gotObs[m] = testObs()
	}
	norm, err := NormalizedSource(trace.NewSliceSource(tr), cfg, func(m Model) ReplayObs { return gotObs[m] })
	if err != nil {
		t.Fatal(err)
	}
	if len(norm) != len(Models) {
		t.Errorf("%s: %d normalized runtimes, want %d", name, len(norm), len(Models))
	}
	for _, m := range Models {
		w := float64(want[m].Cycles) / float64(want[X86NVM].Cycles)
		if m == X86NVM {
			w = 1.0
		}
		if norm[m] != w {
			t.Errorf("%s %+v %v: normalized %v, reference %v", name, cfg, m, norm[m], w)
		}
		sameObs("NormalizedSource", m, gotObs[m])
	}
}

// TestReplayMatchesReference is the oracle for the front / back-end split:
// five models over every trace shape that reaches a distinct path of the
// front's line sets, the persist-buffer queue, the per-thread tables and
// the dfence rule, under buffer sizes small enough that full-PB stalls
// fire, plus three recorded apps.
func TestReplayMatchesReference(t *testing.T) {
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"tx(1,1)", txTrace(1, 1)},
		{"tx(40,6)", txTrace(40, 6)},
		{"bigEpoch(10,40)", bigEpochTrace(10, 40)},
		{"interleaved4", genReplayTrace(3, 3000)},
		{"ntHeavy", ntHeavyTrace(150)},
		{"largeEpoch", largeEpochTrace()},
		{"oddTIDs", oddTIDTrace()},
	}
	for _, tc := range traces {
		for _, pb := range []int{1, 4, 32} {
			for _, drainAt := range []int{1, 16, 32} {
				cfg := DefaultConfig()
				cfg.PBEntries, cfg.DrainAt = pb, drainAt
				requireMatchesReference(t, tc.name, tc.tr, cfg)
			}
		}
	}
	// The §6.4 sizing spelt out.
	requireMatchesReference(t, "interleaved4", genReplayTrace(4, 3000), Config{PBEntries: 32, DrainAt: 16})
	for _, app := range []string{"ycsb", "ctree", "vacation"} {
		tr := recorded(app)
		if tr.Len() == 0 {
			t.Fatalf("%s recorded no events", app)
		}
		for _, cfg := range []Config{DefaultConfig(), {PBEntries: 4, DrainAt: 2}} {
			requireMatchesReference(t, fmt.Sprintf("recorded %s", app), tr, cfg)
		}
	}
}
