package hops

import (
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

const pm = mem.PMBase

// markDurabilityFences is the oracle for the streaming dfence lookahead:
// with the whole trace in hand it returns, per event index, whether a
// KFence is the last fence of a transaction (a dfence).
func markDurabilityFences(tr *trace.Trace) map[int]bool {
	out := make(map[int]bool)
	lastFence := make(map[int32]int)
	for i, e := range events(tr) {
		switch e.Kind {
		case trace.KTxEnd:
			if j, ok := lastFence[e.TID]; ok {
				out[j] = true // commit fence: durability required
			}
		case trace.KFence:
			lastFence[e.TID] = i
		}
	}
	return out
}

// replayMarked is the oracle replay: the same replayer stepped over the
// whole trace with markDurabilityFences' answers.
func replayMarked(tr *trace.Trace, model Model, cfg Config, lat mem.Latency) Result {
	dfence := markDurabilityFences(tr)
	f, r := newFront(cfg, lat), newReplayer(model, cfg, lat, ReplayObs{})
	for i, e := range events(tr) {
		var st frontStep
		f.next(&e, &st)
		st.dfence = dfence[i]
		r.apply(&st)
	}
	return r.result()
}

func events(tr *trace.Trace) []trace.Event { return slices.Concat(tr.Chunks()...) }

// replay and normalized run the streaming replay over an in-memory trace,
// whose source cannot fail.
func replay(tr *trace.Trace, model Model, cfg Config, lat mem.Latency) Result {
	r, err := ReplaySource(trace.NewSliceSource(tr), model, cfg, lat, ReplayObs{})
	if err != nil {
		panic(err)
	}
	return r
}

func normalized(tr *trace.Trace, cfg Config, lat mem.Latency) map[Model]float64 {
	norm, err := NormalizedSource(trace.NewSliceSource(tr), cfg, lat, nil)
	if err != nil {
		panic(err)
	}
	return norm
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
	lat := mem.DefaultLatency()
	norm := normalized(tr, DefaultConfig(), lat)

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

func TestDFenceMarking(t *testing.T) {
	tr := txTrace(1, 3)
	marks := markDurabilityFences(tr)
	// Fence events are at indices 3, 6, 9 (txbegin, then triples).
	var fenceIdx []int
	for i, e := range events(tr) {
		if e.Kind == trace.KFence {
			fenceIdx = append(fenceIdx, i)
		}
	}
	if len(fenceIdx) != 3 {
		t.Fatalf("fences = %d", len(fenceIdx))
	}
	if marks[fenceIdx[0]] || marks[fenceIdx[1]] {
		t.Error("non-final fences marked as dfence")
	}
	if !marks[fenceIdx[2]] {
		t.Error("commit fence not marked as dfence")
	}
}

func TestUnbracketedFenceIsOFence(t *testing.T) {
	// Fences outside transactions (log truncation, root updates) are
	// ordering-only: HOPS maps them to ofences.
	tr := &trace.Trace{Threads: 1}
	tr.Append(trace.Event{Kind: trace.KStore, Addr: pm, Size: 8})
	tr.Append(trace.Event{Kind: trace.KFence})
	marks := markDurabilityFences(tr)
	if marks[1] {
		t.Error("unbracketed fence treated as dfence")
	}
}

func TestReplayCountsFences(t *testing.T) {
	tr := txTrace(10, 5)
	r := replay(tr, HOPSNVM, DefaultConfig(), mem.DefaultLatency())
	if r.Fences != 50 {
		t.Fatalf("Fences = %d, want 50", r.Fences)
	}
	if r.DFences != 10 {
		t.Fatalf("DFences = %d, want 10 (one per tx)", r.DFences)
	}
}

func TestPWQReducesBaselineStalls(t *testing.T) {
	tr := txTrace(100, 8)
	lat := mem.DefaultLatency()
	nvm := replay(tr, X86NVM, DefaultConfig(), lat)
	pwq := replay(tr, X86PWQ, DefaultConfig(), lat)
	if pwq.StallCycles >= nvm.StallCycles {
		t.Fatalf("PWQ stalls (%d) not below NVM stalls (%d)", pwq.StallCycles, nvm.StallCycles)
	}
}

func TestIdealHasMinimalStalls(t *testing.T) {
	tr := txTrace(50, 5)
	r := replay(tr, Ideal, DefaultConfig(), mem.DefaultLatency())
	if r.StallCycles != 0 {
		t.Fatalf("IDEAL stalls = %d, want 0", r.StallCycles)
	}
}

func TestHOPSSpeedupGrowsWithEpochCount(t *testing.T) {
	// More ordering points per transaction => more fences HOPS turns into
	// cheap ofences => bigger HOPS advantage. (Consequence 2.)
	lat := mem.DefaultLatency()
	few := normalized(txTrace(100, 2), DefaultConfig(), lat)
	many := normalized(txTrace(100, 20), DefaultConfig(), lat)
	if many[HOPSNVM] >= few[HOPSNVM] {
		t.Errorf("HOPS advantage did not grow with epoch count: %.3f vs %.3f",
			many[HOPSNVM], few[HOPSNVM])
	}
}

func TestSmallPBIncursStalls(t *testing.T) {
	// Ablation: a tiny persist buffer forces foreground stalls even under
	// HOPS. 1-entry PB must be slower than the default 32.
	tr := txTrace(100, 10)
	lat := mem.DefaultLatency()
	small := replay(tr, HOPSNVM, Config{PBEntries: 1, DrainAt: 1, MCs: 2}, lat)
	big := replay(tr, HOPSNVM, DefaultConfig(), lat)
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
	lat := mem.DefaultLatency()
	cfg := DefaultConfig()
	var prev mem.Cycles
	for i, drainAt := range []int{1, 2, 4, 8, 16, 32} {
		cfg.DrainAt = drainAt
		r := replay(tr, HOPSNVM, cfg, lat)
		if i > 0 && r.Cycles < prev {
			t.Errorf("DrainAt=%d ran in %d cycles, faster than a more eager policy (%d)",
				drainAt, r.Cycles, prev)
		}
		prev = r.Cycles
	}
	cfg.DrainAt = 1
	eager := replay(tr, HOPSNVM, cfg, lat)
	cfg.DrainAt = cfg.PBEntries
	lazy := replay(tr, HOPSNVM, cfg, lat)
	if lazy.Cycles <= eager.Cycles {
		t.Errorf("DrainAt=%d (%d cycles) not slower than DrainAt=1 (%d cycles): knob has no effect",
			cfg.PBEntries, lazy.Cycles, eager.Cycles)
	}
}

// TestDrainAtClamped pins the out-of-range handling: non-positive values
// behave as 1, values above PBEntries behave as PBEntries.
func TestDrainAtClamped(t *testing.T) {
	tr := bigEpochTrace(20, 24)
	lat := mem.DefaultLatency()
	run := func(drainAt int) Result {
		cfg := DefaultConfig()
		cfg.DrainAt = drainAt
		return replay(tr, HOPSNVM, cfg, lat)
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
	lat := mem.DefaultLatency()
	cfg := DefaultConfig()
	for _, m := range Models {
		plain := replay(tr, m, cfg, lat)
		ro := ReplayObs{
			Occupancy:  obs.NewHistogram(obs.ExpBuckets(1, 2, 8)...),
			DrainStall: obs.NewHistogram(obs.ExpBuckets(1, 2, 12)...),
		}
		observed, err := ReplaySource(trace.NewSliceSource(tr), m, cfg, lat, ro)
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
	cfg, lat := DefaultConfig(), mem.DefaultLatency()
	allocs := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NormalizedSource(trace.NewSliceSource(tr), cfg, lat, nil); err != nil {
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
