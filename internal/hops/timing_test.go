package hops

import (
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

const pm = mem.PMBase

// replaySerial is the replay without its driver: one front and one back
// end stepped over the trace event by event, on the caller's goroutine; a
// model without a persist buffer replays each event as a batch of one.
// dfenceAt, when non-nil, is called with the index of each event at which
// the back end counted a dfence.
func replaySerial(tr *trace.Trace, model Model, cfg Config, dfenceAt func(int)) Result {
	f, r := &front{}, newReplayer(model, cfg, ReplayObs{})
	var sum batchSum
	for i, e := range events(tr) {
		var st frontStep
		f.next(&e, &st)
		n := r.res.DFences
		if r.buffered() {
			r.apply(&st)
		} else {
			sum.of([]frontStep{st})
			r.applySum(&sum)
		}
		if r.res.DFences != n && dfenceAt != nil {
			dfenceAt(i)
		}
	}
	return r.result()
}

func events(tr *trace.Trace) []trace.Event { return slices.Concat(tr.Chunks()...) }

// replay and normalized run the streaming replay over an in-memory trace,
// whose source cannot fail.
func replay(tr *trace.Trace, model Model, cfg Config) Result {
	r, err := ReplaySource(trace.NewSliceSource(tr), model, cfg, ReplayObs{})
	if err != nil {
		panic(err)
	}
	return r
}

func normalized(tr *trace.Trace, cfg Config) map[Model]float64 {
	norm, err := NormalizedSource(trace.NewSliceSource(tr), cfg, nil)
	if err != nil {
		panic(err)
	}
	return norm
}

// TestFrontRecoversRecordedCompute records a run that computes a known even
// number of cycles c before each event the recording machine charges, and
// holds the front to giving that compute back: what the recorder ticked for
// an event is what the replay takes off the gap. The recovered compute is
// c, or c-1 after an event with an odd charge, whose half nanosecond the
// clock truncates. The front hands the back ends compute on the OOO core,
// so the check is on c and c-1 divided by its width; c steps by 80 cycles
// from event to event, so a gap charged to the wrong event shows too.
func TestFrontRecoversRecordedCompute(t *testing.T) {
	rt := persist.NewRuntime("charges", "native", 1, persist.Config{})
	th := rt.Thread(0)
	a := rt.Dev.Map(4 * mem.LineSize)
	th.TxBegin() // the front's first event starts its clock

	var want []mem.Cycles
	c := mem.Cycles(400)
	for _, op := range []func(){
		func() { th.Store(a, []byte{1}) },
		func() { th.StoreNT(a+mem.LineSize, []byte{2}) },
		func() { th.LoadInto(a, make([]byte, 8)) },
		th.Fence, // nothing CLWB'd: the NT store is not a flush
		func() { th.Flush(a, 8) },
		th.Fence, // one line pending
		func() { th.Flush(a, 3*mem.LineSize) },
		th.Fence, // three lines pending
	} {
		c += 80
		th.Compute(c)
		op()
		want = append(want, c)
	}

	evs := events(rt.Trace)
	if len(evs) != len(want)+1 {
		t.Fatalf("recorded %d events, want %d", len(evs), len(want)+1)
	}
	f := &front{}
	for i := range evs {
		var st frontStep
		f.next(&evs[i], &st)
		if i == 0 {
			continue
		}
		c := want[i-1]
		if st.compute != c/oooWidth && st.compute != (c-1)/oooWidth {
			t.Errorf("event %d (%v) after Compute(%d): front recovered %d cycles on the OOO core, want %d or %d",
				i, evs[i].Kind, c, st.compute, c/oooWidth, (c-1)/oooWidth)
		}
	}
}

// txTrace builds a synthetic transactional trace: n transactions, each
// with several single-line epochs (store+flush+fence) and a commit fence.
// Event times mimic the recording runtime: each event's timestamp follows
// the charge persist.Thread would apply (fence = 80 ns at 2 GHz for one
// pending line) plus a few nanoseconds of application compute.
func txTrace(n, epochsPerTx int) *trace.Trace {
	tr := &trace.Trace{App: "synthetic", Layer: "native", Threads: 1}
	at := mem.Time(0)
	add := func(k trace.Kind, a mem.Addr, size uint32, dt mem.Time) {
		at += dt
		tr.Append(trace.Event{Kind: k, TID: 0, Time: at, Addr: a, Size: size})
	}
	for i := 0; i < n; i++ {
		add(trace.KTxBegin, 0, 0, 1)
		for e := 0; e < epochsPerTx; e++ {
			a := pm + mem.Addr((i*epochsPerTx+e)*64)
			add(trace.KStore, a, 8, 250) // ~1 cyc charge + compute
			add(trace.KFlush, a, 8, 5)   // 2 cyc charge + compute
			add(trace.KFence, 0, 0, 85)  // 160 cyc (80 ns) charge + compute
		}
		add(trace.KTxEnd, 0, 0, 1)
	}
	return tr
}

func TestFigure10Shape(t *testing.T) {
	// The qualitative Figure 10 ordering on a transactional workload:
	// IDEAL < HOPS(PWQ) <= HOPS(NVM) < x86(PWQ) < x86(NVM).
	tr := txTrace(200, 10)
	norm := normalized(tr, DefaultConfig())

	if norm[X86NVM] != 1.0 {
		t.Fatalf("baseline not normalized: %v", norm[X86NVM])
	}
	if !(norm[Ideal] < norm[HOPSNVM]) {
		t.Errorf("IDEAL (%.3f) should beat HOPS NVM (%.3f)", norm[Ideal], norm[HOPSNVM])
	}
	if !(norm[HOPSNVM] < norm[X86PWQ]) {
		t.Errorf("HOPS NVM (%.3f) should beat x86 PWQ (%.3f)", norm[HOPSNVM], norm[X86PWQ])
	}
	if !(norm[X86PWQ] < norm[X86NVM]) {
		t.Errorf("x86 PWQ (%.3f) should beat x86 NVM (1.0)", norm[X86PWQ])
	}
	if norm[HOPSPWQ] > norm[HOPSNVM] {
		t.Errorf("HOPS PWQ (%.3f) slower than HOPS NVM (%.3f)", norm[HOPSPWQ], norm[HOPSNVM])
	}
	// Paper magnitudes: HOPS ~24% faster than baseline; PWQ gains HOPS
	// only ~1.4%. Allow wide bands — this is a shape check.
	if norm[HOPSNVM] > 0.95 {
		t.Errorf("HOPS NVM improvement too small: %.3f", norm[HOPSNVM])
	}
	if norm[HOPSNVM]-norm[HOPSPWQ] > 0.15 {
		t.Errorf("PWQ helps HOPS too much: %.3f vs %.3f", norm[HOPSNVM], norm[HOPSPWQ])
	}
}

// TestDFenceMarking pins where HOPS's durability point lies: a transaction
// with three fences replays one dfence, at its commit, and its fences are
// ofences.
func TestDFenceMarking(t *testing.T) {
	tr := txTrace(1, 3)
	evs := events(tr)
	for _, m := range []Model{HOPSNVM, HOPSPWQ} {
		var at []int
		r := replaySerial(tr, m, DefaultConfig(), func(i int) { at = append(at, i) })
		if r.Fences != 3 || r.DFences != 1 {
			t.Errorf("%v: %d fences, %d dfences; want 3 and 1", m, r.Fences, r.DFences)
		}
		if len(at) != 1 || evs[at[0]].Kind != trace.KTxEnd {
			t.Errorf("%v: dfences at events %v, want one at the commit (event %d)", m, at, len(evs)-1)
		}
	}
}

// TestUnbracketedFenceIsOFence: fences outside transactions (log
// truncation, root updates) are ordering-only, so HOPS replays them as
// ofences. That holds too when the thread's next ordering event is the
// commit of a read-only transaction (Mnemosyne truncating its log ahead of
// one): that commit orders nothing, so it is no dfence and waits for no
// drain.
func TestUnbracketedFenceIsOFence(t *testing.T) {
	bare := &trace.Trace{Threads: 1}
	bare.Append(trace.Event{Kind: trace.KStore, Addr: pm, Size: 8})
	bare.Append(trace.Event{Kind: trace.KFence, Time: 1})
	readOnly := &trace.Trace{Threads: 1}
	readOnly.Append(trace.Event{Kind: trace.KStore, Addr: pm, Size: 8})
	readOnly.Append(trace.Event{Kind: trace.KFence, Time: 1})
	readOnly.Append(trace.Event{Kind: trace.KTxBegin, Time: 2})
	readOnly.Append(trace.Event{Kind: trace.KLoad, Addr: pm, Size: 8, Time: 3})
	readOnly.Append(trace.Event{Kind: trace.KTxEnd, Time: 4})
	for name, tr := range map[string]*trace.Trace{"bare": bare, "before a read-only tx": readOnly} {
		for _, m := range []Model{HOPSNVM, HOPSPWQ} {
			ro := ReplayObs{DrainStall: obs.NewHistogram(obs.ExpBuckets(1, 2, 12)...)}
			r, err := ReplaySource(trace.NewSliceSource(tr), m, DefaultConfig(), ro)
			if err != nil {
				t.Fatal(err)
			}
			if r.Fences != 1 || r.DFences != 0 || r.StallCycles != 0 || ro.DrainStall.Count() != 0 {
				t.Errorf("%s, %v: %d fences, %d dfences, %d stall cycles, %d drain stalls; want 1 fence and no stall",
					name, m, r.Fences, r.DFences, r.StallCycles, ro.DrainStall.Count())
			}
		}
	}
}

func TestReplayCountsFences(t *testing.T) {
	tr := txTrace(10, 5)
	r := replay(tr, HOPSNVM, DefaultConfig())
	if r.Fences != 50 {
		t.Fatalf("Fences = %d, want 50", r.Fences)
	}
	if r.DFences != 10 {
		t.Fatalf("DFences = %d, want 10 (one per tx)", r.DFences)
	}
}

func TestPWQReducesBaselineStalls(t *testing.T) {
	tr := txTrace(100, 8)
	nvm := replay(tr, X86NVM, DefaultConfig())
	pwq := replay(tr, X86PWQ, DefaultConfig())
	if pwq.StallCycles >= nvm.StallCycles {
		t.Fatalf("PWQ stalls (%d) not below NVM stalls (%d)", pwq.StallCycles, nvm.StallCycles)
	}
}

func TestIdealHasMinimalStalls(t *testing.T) {
	tr := txTrace(50, 5)
	r := replay(tr, Ideal, DefaultConfig())
	if r.StallCycles != 0 {
		t.Fatalf("IDEAL stalls = %d, want 0", r.StallCycles)
	}
}

func TestHOPSSpeedupGrowsWithEpochCount(t *testing.T) {
	// More ordering points per transaction => more fences HOPS turns into
	// cheap ofences => bigger HOPS advantage. (Consequence 2.)
	few := normalized(txTrace(100, 2), DefaultConfig())
	many := normalized(txTrace(100, 20), DefaultConfig())
	if many[HOPSNVM] >= few[HOPSNVM] {
		t.Errorf("HOPS advantage did not grow with epoch count: %.3f vs %.3f",
			many[HOPSNVM], few[HOPSNVM])
	}
}

func TestSmallPBIncursStalls(t *testing.T) {
	// Ablation: a tiny persist buffer forces foreground stalls even under
	// HOPS. 1-entry PB must be slower than the default 32.
	tr := txTrace(100, 10)
	small := replay(tr, HOPSNVM, Config{PBEntries: 1, DrainAt: 1})
	big := replay(tr, HOPSNVM, DefaultConfig())
	if small.Cycles <= big.Cycles {
		t.Errorf("1-entry PB (%d cyc) not slower than 32-entry (%d cyc)",
			small.Cycles, big.Cycles)
	}
}

func TestModelString(t *testing.T) {
	if X86NVM.String() == "" || Ideal.String() == "" {
		t.Error("model names empty")
	}
	if Model(99).String() == "" {
		t.Error("unknown model name empty")
	}
}

// bigEpochTrace builds transactions whose single epoch touches many lines
// before its fence — the workload shape where the DrainAt launch policy
// matters (small epochs close before ever reaching the threshold).
func bigEpochTrace(n, linesPerTx int) *trace.Trace {
	tr := &trace.Trace{App: "synthetic", Layer: "native", Threads: 1}
	at := mem.Time(0)
	add := func(k trace.Kind, a mem.Addr, size uint32, dt mem.Time) {
		at += dt
		tr.Append(trace.Event{Kind: k, TID: 0, Time: at, Addr: a, Size: size})
	}
	for i := 0; i < n; i++ {
		add(trace.KTxBegin, 0, 0, 1)
		for l := 0; l < linesPerTx; l++ {
			a := pm + mem.Addr((i*linesPerTx+l)*64)
			add(trace.KStore, a, 8, 10)
			add(trace.KFlush, a, 8, 5)
		}
		add(trace.KFence, 0, 0, 85)
		add(trace.KTxEnd, 0, 0, 1)
	}
	return tr
}

// TestDrainAtSweep proves the launch-policy knob is wired into the replay:
// delaying the background drain can only delay completions, so modelled
// cycles are nondecreasing in DrainAt, and on a big-epoch workload the
// fully-lazy policy is strictly slower than the fully-eager one.
func TestDrainAtSweep(t *testing.T) {
	tr := bigEpochTrace(50, 24)
	cfg := DefaultConfig()
	var prev mem.Cycles
	for i, drainAt := range []int{1, 2, 4, 8, 16, 32} {
		cfg.DrainAt = drainAt
		r := replay(tr, HOPSNVM, cfg)
		if i > 0 && r.Cycles < prev {
			t.Errorf("DrainAt=%d ran in %d cycles, faster than a more eager policy (%d)",
				drainAt, r.Cycles, prev)
		}
		prev = r.Cycles
	}
	cfg.DrainAt = 1
	eager := replay(tr, HOPSNVM, cfg)
	cfg.DrainAt = cfg.PBEntries
	lazy := replay(tr, HOPSNVM, cfg)
	if lazy.Cycles <= eager.Cycles {
		t.Errorf("DrainAt=%d (%d cycles) not slower than DrainAt=1 (%d cycles): knob has no effect",
			cfg.PBEntries, lazy.Cycles, eager.Cycles)
	}
}

// TestDrainAtClamped pins the out-of-range handling: non-positive values
// behave as 1, values above PBEntries behave as PBEntries.
func TestDrainAtClamped(t *testing.T) {
	tr := bigEpochTrace(20, 24)
	run := func(drainAt int) Result {
		cfg := DefaultConfig()
		cfg.DrainAt = drainAt
		return replay(tr, HOPSNVM, cfg)
	}
	if got, want := run(0), run(1); got != want {
		t.Errorf("DrainAt=0 -> %+v, want DrainAt=1 behaviour %+v", got, want)
	}
	if got, want := run(-3), run(1); got != want {
		t.Errorf("DrainAt=-3 -> %+v, want DrainAt=1 behaviour %+v", got, want)
	}
	if got, want := run(1000), run(DefaultConfig().PBEntries); got != want {
		t.Errorf("DrainAt=1000 -> %+v, want DrainAt=PBEntries behaviour %+v", got, want)
	}
}

// TestReplayObservedMatchesReplay pins that attaching instruments never
// perturbs the modelled timing, and that the instruments actually record.
func TestReplayObservedMatchesReplay(t *testing.T) {
	tr := txTrace(50, 6)
	cfg := DefaultConfig()
	for _, m := range Models {
		plain := replay(tr, m, cfg)
		ro := ReplayObs{
			Occupancy:  obs.NewHistogram(obs.ExpBuckets(1, 2, 8)...),
			DrainStall: obs.NewHistogram(obs.ExpBuckets(1, 2, 12)...),
		}
		observed, err := ReplaySource(trace.NewSliceSource(tr), m, cfg, ro)
		if err != nil {
			t.Fatal(err)
		}
		if plain != observed {
			t.Errorf("%v: observed replay diverged: %+v vs %+v", m, observed, plain)
		}
		if m != Ideal && ro.Occupancy.Count() == 0 {
			t.Errorf("%v: occupancy histogram recorded nothing", m)
		}
	}
}

// TestReplayAllocsIndependentOfLength pins that the five-model replay
// allocates per run, not per event or per epoch: the per-thread tables, line
// sets and queues reach their steady size in the first transactions, so a
// trace four times as long costs the same handful of allocations.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	cfg := DefaultConfig()
	allocs := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NormalizedSource(trace.NewSliceSource(tr), cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 200
	short, long := allocs(txTrace(n, 10)), allocs(txTrace(4*n, 10))
	if long-short > 4 {
		t.Errorf("%d transactions: %.0f allocs, %d transactions: %.0f — the replay allocates per event or per epoch",
			n, short, 4*n, long)
	}
}
