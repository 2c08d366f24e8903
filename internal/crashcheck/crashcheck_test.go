package crashcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/apps/echo"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// TestRecoveryMatrix is the table-driven per-app recovery test: every
// suite application on each of its mixes, crash at operation boundaries
// and mid-operation points k = 0, 1, N/2, N-1 for a fixed seed, under all
// three crash modes.
func TestRecoveryMatrix(t *testing.T) {
	const ops = 8
	cfg := Config{
		Clients: 2,
		Ops:     ops,
		Seeds:   []int64{7},
		Points:  []int{0, 1, ops / 2, ops - 1},
	}
	for _, a := range Suite() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			for _, mix := range a.Mixes {
				t.Run(mix.String(), func(t *testing.T) {
					res, err := CheckApp(a.Name, mix, cfg)
					if err != nil {
						t.Fatalf("CheckApp(%s, %s): %v", a.Name, mix, err)
					}
					if want := len(cfg.Seeds) * len(cfg.Points) * 3; res.Cells != want {
						t.Errorf("ran %d cells, want %d", res.Cells, want)
					}
					for _, v := range res.Violations {
						t.Errorf("violation: %s", v)
					}
				})
			}
		})
	}
}

// TestUnknownAppIsAnError pins the app table the CLI lists — eleven apps,
// three modes — and that CheckApp refuses a name outside it, or a mix the
// app does not have, before running anything.
func TestUnknownAppIsAnError(t *testing.T) {
	if got := len(Apps()); got != 11 {
		t.Errorf("Apps() = %v, want 11 apps", Apps())
	}
	if got := len(Modes()); got != 3 {
		t.Errorf("Modes() = %v, want 3 modes", Modes())
	}
	res, err := CheckApp("no-such-app", workload.Paper, Config{})
	if err == nil || res.Cells != 0 {
		t.Fatalf("CheckApp(no-such-app) = %d cells, %v; want an error and no cells", res.Cells, err)
	}
	res, err = CheckApp("echo", workload.Checker, Config{})
	if err == nil || res.Cells != 0 {
		t.Fatalf("CheckApp(echo, checker) = %d cells, %v; want an error and no cells", res.Cells, err)
	}
}

// TestOracleAddsNoEvent runs every app on every mix twice, once bare and
// once with its oracle attached, and requires identical event streams:
// the checker crashes exactly the trace the suite records.
func TestOracleAddsNoEvent(t *testing.T) {
	for _, a := range Suite() {
		for _, mix := range a.Mixes {
			record := func(check bool) *trace.Trace {
				rt := persist.NewRuntime(a.Name, a.Layer, 2, persist.Config{})
				drive, _ := a.start(rt, mix, 2, 6, 3, check)
				drive(func(_ int, op func()) bool {
					op()
					return true
				})
				return rt.Trace
			}
			bare, checked := record(false), record(true)
			if bare.Len() == 0 {
				t.Fatalf("%s/%s recorded nothing", a.Name, mix)
			}
			b, c := slices.Concat(bare.Chunks()...), slices.Concat(checked.Chunks()...)
			if !slices.Equal(b, c) {
				t.Errorf("%s/%s: %d events bare, %d with the oracle, or the streams differ", a.Name, mix, len(b), len(c))
			}
		}
	}
}

// naiveKV is an append-only persistent array of {key, value} slots behind a
// count word. The fenced variant persists each slot before bumping the
// count (the count bump is the atomic commit point); the broken variant
// omits every flush and fence — the classic missing-fence bug the checker
// exists to catch. It is a KV (newest slot of a key wins; there is no
// delete), so the same bug tests the matrix, through naiveApp, and the
// Model.
type naiveKV struct {
	rt     *persist.Runtime
	base   mem.Addr
	fenced bool
	acked  int
}

// naiveSlots is a naiveKV's capacity.
const naiveSlots = 64

func (n *naiveKV) open(rt *persist.Runtime) {
	n.rt = rt
	n.base = rt.Dev.Map(8 + naiveSlots*16)
}

func (n *naiveKV) Insert(_ int, key, val uint64) error {
	th := n.rt.Thread(0)
	slot := n.base + 8 + mem.Addr(n.acked*16)
	th.StoreU64(slot, key)
	th.StoreU64(slot+8, val)
	if n.fenced {
		th.FlushFence(slot, 16)
	}
	th.StoreU64(n.base, uint64(n.acked)+1)
	if n.fenced {
		th.FlushFence(n.base, 8)
	}
	n.acked++
	return nil
}

func (n *naiveKV) Get(_ int, key uint64) (val uint64, ok bool) {
	th := n.rt.Thread(0)
	for i := 0; i < int(th.LoadU64(n.base)); i++ {
		if slot := n.base + 8 + mem.Addr(i*16); th.LoadU64(slot) == key {
			val, ok = th.LoadU64(slot+8), true
		}
	}
	return val, ok
}

func (n *naiveKV) Delete(int, uint64) (bool, error) {
	return false, fmt.Errorf("append-only store")
}

func (n *naiveKV) CheckInvariants(int) error { return nil }

func (n *naiveKV) Recover() {}

// naiveApp is a one-thread app over the store build returns fresh for
// every run (with the naiveKV inside it): operation i inserts key i+1 with
// value 7(i+1).
func naiveApp(name string, build func() (KV[uint64, uint64], *naiveKV)) *App {
	return &App{Name: name, Layer: "native", Mixes: paperMix,
		open: func(rt *persist.Runtime, _ workload.Mix, _ int, _ int64, check bool) (func(int, int), Oracle) {
			store, kv := build()
			kv.open(rt)
			view, o := wrapKV(store, check)
			return func(_, i int) { view.Insert(0, uint64(i)+1, (uint64(i)+1)*7) }, o
		}}
}

func newNaive(fenced bool) func() (KV[uint64, uint64], *naiveKV) {
	return func() (KV[uint64, uint64], *naiveKV) {
		kv := &naiveKV{fenced: fenced}
		return kv, kv
	}
}

// TestBrokenAppCaught pins the checker's detection power: removing the
// flushes and fences from an otherwise-correct app must produce violations,
// and the properly fenced twin must pass the same matrix.
func TestBrokenAppCaught(t *testing.T) {
	cfg := Config{Clients: 1, Ops: 6, Seeds: []int64{1, 2}, Points: []int{1, 3, 5}}

	broken := naiveApp("broken-kv", newNaive(false))
	res, err := checkApp(broken, workload.Paper, cfg)
	if err != nil {
		t.Fatalf("checkApp(broken): %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("fence-deficient app passed the crash matrix; the checker is blind")
	}

	fixed := naiveApp("fixed-kv", newNaive(true))
	res, err = checkApp(fixed, workload.Paper, cfg)
	if err != nil {
		t.Fatalf("checkApp(fixed): %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("fenced twin flagged: %s", v)
	}
}

// durableImageHash runs a single cell up to and including the device crash
// and returns the SHA-256 of the device's durable state (see imageHash). Two
// invocations with identical coordinates must agree byte for byte — the
// determinism contract the regression test pins 50 times over.
func durableImageHash(name string, mix workload.Mix, cfg Config, seed int64, point int, mode Mode) ([32]byte, error) {
	a, err := Lookup(name)
	if err != nil {
		return [32]byte{}, err
	}
	cfg = cfg.withDefaults()
	golden, err := goldenRun(a, mix, cfg, seed)
	if err != nil {
		return [32]byte{}, err
	}
	if point < 0 || point >= cfg.Ops {
		return [32]byte{}, fmt.Errorf("crashcheck: point %d out of range [0,%d)", point, cfg.Ops)
	}
	frozen, _, _, err := executeToCrash(a, mix, cfg, seed, point, mode, golden)
	if err != nil {
		return [32]byte{}, err
	}
	frozen.Crash(deviceMode(mode), crashSeed(seed, point, mode))
	return imageHash(frozen), nil
}

// imageHash returns the SHA-256 of d's durable state: the mapped extent,
// then each durable page's index and bytes in ascending index order, so two
// devices with equal durable contents hash alike whatever their history.
func imageHash(d *pmem.Device) [32]byte {
	h := sha256.New()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], uint64(d.Mapped()))
	h.Write(word[:])
	for _, pg := range d.DurableImage() {
		binary.LittleEndian.PutUint64(word[:], pg.Index)
		h.Write(word[:])
		h.Write(pg.Data[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestDeterministicCrashImages is the determinism regression: the same
// (app, seed, crash point, mode) cell must produce a byte-identical durable
// image 50 times over.
func TestDeterministicCrashImages(t *testing.T) {
	const runs = 50
	cfg := Config{Clients: 2, Ops: 8, Seeds: []int64{3}, Points: []int{3}}
	for _, tc := range []struct {
		app  string
		mix  workload.Mix
		mode Mode
	}{
		{"hashmap", workload.Checker, MidEpoch},
		{"hashmap", workload.Paper, AdversarialSubset},
		{"ycsb", workload.Checker, AllPersisted},
	} {
		var want [32]byte
		for i := 0; i < runs; i++ {
			got, err := durableImageHash(tc.app, tc.mix, cfg, 3, 3, tc.mode)
			if err != nil {
				t.Fatalf("%s/%s run %d: %v", tc.app, tc.mode, i, err)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("%s/%s: image hash diverged at run %d", tc.app, tc.mode, i)
			}
		}
	}
}

// txKV wraps naiveKV's inserts in TxBegin/TxEnd brackets so the pmsan
// sanitizer sees the commit points the crash checker probes.
type txKV struct{ naiveKV }

func (n *txKV) Insert(tid int, key, val uint64) error {
	th := n.rt.Thread(0)
	th.TxBegin()
	defer th.TxEnd()
	return n.naiveKV.Insert(tid, key, val)
}

// TestSanitizerCrashCheckCrossValidate pins the agreement between pmsan's
// static verdict and crashcheck's dynamic one on the bracketed KV: the
// unfenced variant must show dirty-at-commit lines AND crash-injectable
// inconsistencies — and every flagged line must lie in the region the
// recovery oracle checks — while the fenced twin shows neither.
func TestSanitizerCrashCheckCrossValidate(t *testing.T) {
	cfg := Config{Clients: 1, Ops: 6, Seeds: []int64{1, 2}, Points: []int{1, 3, 5}}

	for _, fenced := range []bool{false, true} {
		var store *naiveKV
		app := naiveApp("tx-kv", func() (KV[uint64, uint64], *naiveKV) {
			kv := &txKV{naiveKV{fenced: fenced}}
			store = &kv.naiveKV
			return kv, store
		})

		// The suite's run for the sanitizer.
		rt := persist.NewRuntime("tx-kv", "native", 1, persist.Config{})
		app.Run(rt, 1, cfg.Ops, 1)
		rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := store.base, store.base+mem.Addr(8+naiveSlots*16)

		// Crash matrix for the checker.
		res, err := checkApp(app, workload.Paper, cfg)
		if err != nil {
			t.Fatal(err)
		}

		dirty := rep.Sites(pmsan.DirtyAtCommit)
		if fenced {
			if rep.Errors() != 0 {
				t.Errorf("fenced twin: sanitizer reports %d errors:\n%s", rep.Errors(), rep)
			}
			if !res.Ok() {
				t.Errorf("fenced twin: crash matrix found %d violations", len(res.Violations))
			}
			continue
		}
		if dirty == 0 {
			t.Errorf("unfenced variant: no dirty-at-commit sites:\n%s", rep)
		}
		if res.Ok() {
			t.Errorf("unfenced variant: crash matrix found nothing despite %d dirty-at-commit lines", dirty)
		}
		// Every dirty-at-commit line must fall inside the KV's persistent
		// region — the exact state the recovery oracle validates, so each
		// flagged line is a crash-injectable inconsistency, not noise.
		for _, v := range rep.Violations {
			if v.Class != pmsan.DirtyAtCommit {
				continue
			}
			la := mem.LineAddr(v.Line)
			if la+mem.LineSize <= lo || la >= hi {
				t.Errorf("dirty-at-commit line %#x outside the checked region [%#x,%#x)", uint64(la), uint64(lo), uint64(hi))
			}
		}
	}
}

// TestMissedCrashPointIsAnError pins that a run which diverges from its
// golden run fails the check instead of checking a substitute cell: here
// every run after the golden one emits no event at all, so no mid-operation
// crash point is ever reached.
func TestMissedCrashPointIsAnError(t *testing.T) {
	runs := 0
	app := &App{Name: "shrinking", Layer: "native", Mixes: paperMix,
		open: func(rt *persist.Runtime, _ workload.Mix, _ int, _ int64, check bool) (func(int, int), Oracle) {
			runs++
			golden := runs == 1
			kv := &naiveKV{fenced: true}
			kv.open(rt)
			view, o := wrapKV[uint64, uint64](kv, check)
			return func(_, i int) {
				if golden {
					view.Insert(0, uint64(i)+1, 1)
				}
			}, o
		}}
	cfg := Config{Clients: 1, Ops: 2, Seeds: []int64{1}, Points: []int{1}, Modes: []Mode{MidEpoch}}
	res, err := checkApp(app, workload.Paper, cfg)
	if err == nil {
		t.Fatalf("a run that never reached its crash point passed as %d cells, %d violations", res.Cells, len(res.Violations))
	}
}

// TestEchoOracleRepeatedKey holds the echo oracle to the store's batch
// rule on a batch that updates one key twice: the store stages updates by
// key hash, so the later update replaces the earlier one and the batch
// applies each key once, in ascending hash order.
func TestEchoOracleRepeatedKey(t *testing.T) {
	a, b := "key-a", "key-b"
	if workload.HashKey(a) > workload.HashKey(b) {
		a, b = b, a
	}
	open := func() (*persist.Runtime, *echoOracle) {
		rt := persist.NewRuntime("echo", "native", 1, persist.Config{NoTrace: true})
		o := newEchoOracle(echo.New(rt))
		o.Put(0, a, 5)
		o.Put(0, b, 2)
		o.Put(0, a, 1)
		return rt, o
	}

	rt, o := open()
	events := 0
	rt.SetEventHook(func(trace.Event) { events++ })
	o.SubmitBatch(0)
	rt.SetEventHook(nil)
	if err := o.Check(0); err != nil {
		t.Fatalf("completed batch: %v", err)
	}
	if o.model[a] != 1 || o.model[b] != 2 {
		t.Fatalf("model after the batch = %v, want %s=1 %s=2", o.model, a, b)
	}

	// A crash at any event of the batch leaves a state the oracle accepts.
	for k := 1; k <= events; k++ {
		rt, o := open()
		var frozen *pmem.Device
		if !rt.AbortAt(k, func() { frozen = rt.Dev.Clone() }, func() { o.SubmitBatch(0) }) {
			t.Fatalf("batch finished before event %d of %d", k, events)
		}
		frozen.Crash(pmem.Strict, int64(k))
		rt.Reboot(frozen)
		o.Recover()
		if err := o.Check(0); err != nil {
			t.Fatalf("crash at event %d of %d: %v", k, events, err)
		}
	}

	// The batch never applies the replaced update, so an image holding it
	// while the batch is in flight is no legal state. A prefix rule over
	// the puts as issued would take it for the batch's first update.
	rt, o = open()
	rt.AbortAt(1, nil, func() { o.SubmitBatch(0) })
	rt2 := persist.NewRuntime("echo", "native", 1, persist.Config{NoTrace: true})
	replaced := echo.New(rt2)
	replaced.Put(0, a, 5)
	replaced.SubmitBatch(0)
	o.Store = replaced
	if err := o.Check(0); err == nil {
		t.Fatalf("store holding the replaced update %s=5 passed", a)
	}
}
