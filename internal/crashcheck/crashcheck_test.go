package crashcheck

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestRecoveryMatrix is the table-driven per-app recovery test: every suite
// application, crash at operation boundaries and mid-operation points
// k = 0, 1, N/2, N-1 for a fixed seed, under all three crash modes.
func TestRecoveryMatrix(t *testing.T) {
	const ops = 8
	cfg := Config{
		Clients: 2,
		Ops:     ops,
		Seeds:   []int64{7},
		Points:  []int{0, 1, ops / 2, ops - 1},
	}
	for _, name := range Apps() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := CheckApp(name, cfg)
			if err != nil {
				t.Fatalf("CheckApp(%s): %v", name, err)
			}
			if want := len(cfg.Seeds) * len(cfg.Points) * 3; res.Cells != want {
				t.Errorf("ran %d cells, want %d", res.Cells, want)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestUnknownAppIsAnError pins the registry the CLI lists — ten apps, three
// modes — and that CheckApp refuses a name outside it before running
// anything.
func TestUnknownAppIsAnError(t *testing.T) {
	if got := len(Apps()); got != 10 {
		t.Errorf("Apps() = %v, want 10 apps", Apps())
	}
	if got := len(Modes()); got != 3 {
		t.Errorf("Modes() = %v, want 3 modes", Modes())
	}
	res, err := CheckApp("no-such-app", Config{})
	if err == nil || res.Cells != 0 {
		t.Fatalf("CheckApp(no-such-app) = %d cells, %v; want an error and no cells", res.Cells, err)
	}
}

// naiveKV is an append-only persistent array of {key, value} slots behind a
// count word. The fenced variant persists each slot before bumping the
// count (the count bump is the atomic commit point); the broken variant
// omits every flush and fence — the classic missing-fence bug the checker
// exists to catch. It is an App (scripted: operation k appends slot k) and
// a KV (newest slot of a key wins; there is no delete), so the same bug
// tests the matrix and the Model.
type naiveKV struct {
	rt      *persist.Runtime
	base    mem.Addr
	fenced  bool
	acked   int
	pending bool
}

func (n *naiveKV) Setup(rt *persist.Runtime, clients, ops int, seed int64) {
	n.rt = rt
	n.base = rt.Dev.Map(8 + ops*16)
}

func (n *naiveKV) key(k int) uint64 { return uint64(k) + 1 }
func (n *naiveKV) val(k int) uint64 { return (uint64(k) + 1) * 7 }

func (n *naiveKV) Do(k int) { n.Insert(0, n.key(k), n.val(k)) }

func (n *naiveKV) Insert(_ int, key, val uint64) error {
	th := n.rt.Thread(0)
	n.pending = true
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
	n.pending = false
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

func (n *naiveKV) Check() error {
	th := n.rt.Thread(0)
	count := int(th.LoadU64(n.base))
	switch {
	case n.pending && (count == n.acked || count == n.acked+1):
	case !n.pending && count == n.acked:
	default:
		return fmt.Errorf("count %d, acked %d (pending %v)", count, n.acked, n.pending)
	}
	for i := 0; i < count; i++ {
		slot := n.base + 8 + mem.Addr(i*16)
		if th.LoadU64(slot) != n.key(i) || th.LoadU64(slot+8) != n.val(i) {
			return fmt.Errorf("slot %d corrupted: key %d val %d", i, th.LoadU64(slot), th.LoadU64(slot+8))
		}
	}
	return nil
}

// TestBrokenAppCaught pins the checker's detection power: removing the
// flushes and fences from an otherwise-correct app must produce violations,
// and the properly fenced twin must pass the same matrix.
func TestBrokenAppCaught(t *testing.T) {
	cfg := Config{Clients: 1, Ops: 6, Seeds: []int64{1, 2}, Points: []int{1, 3, 5}}

	broken := entry{name: "broken-kv", layer: "native", factory: func() App { return &naiveKV{} }}
	res, err := checkEntry(broken, cfg)
	if err != nil {
		t.Fatalf("checkEntry(broken): %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("fence-deficient app passed the crash matrix; the checker is blind")
	}

	fixed := entry{name: "fixed-kv", layer: "native", factory: func() App { return &naiveKV{fenced: true} }}
	res, err = checkEntry(fixed, cfg)
	if err != nil {
		t.Fatalf("checkEntry(fixed): %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("fenced twin flagged: %s", v)
	}
}

// durableImageHash runs a single cell up to and including the device crash
// and returns the SHA-256 of the device's durable state (see imageHash). Two
// invocations with identical coordinates must agree byte for byte — the
// determinism contract the regression test pins 50 times over.
func durableImageHash(name string, cfg Config, seed int64, point int, mode Mode) ([32]byte, error) {
	ent, err := lookup(name)
	if err != nil {
		return [32]byte{}, err
	}
	cfg = cfg.withDefaults()
	golden, err := goldenRun(ent, cfg, seed)
	if err != nil {
		return [32]byte{}, err
	}
	if point < 0 || point >= cfg.Ops {
		return [32]byte{}, fmt.Errorf("crashcheck: point %d out of range [0,%d)", point, cfg.Ops)
	}
	frozen, _, _ := executeToCrash(ent, cfg, seed, point, mode, golden)
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
		mode Mode
	}{
		{"hashmap", MidEpoch},
		{"hashmap", AdversarialSubset},
		{"ycsb", AllPersisted},
	} {
		var want [32]byte
		for i := 0; i < runs; i++ {
			got, err := durableImageHash(tc.app, cfg, 3, 3, tc.mode)
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

// txKV wraps naiveKV's operations in TxBegin/TxEnd brackets so the pmsan
// sanitizer sees the commit points the crash checker probes.
type txKV struct{ naiveKV }

func (n *txKV) Do(k int) {
	th := n.rt.Thread(0)
	th.TxBegin()
	n.naiveKV.Do(k)
	th.TxEnd()
}

// TestSanitizerCrashCheckCrossValidate pins the agreement between pmsan's
// static verdict and crashcheck's dynamic one on the bracketed KV: the
// unfenced variant must show dirty-at-commit lines AND crash-injectable
// inconsistencies — and every flagged line must lie in the region the
// recovery oracle checks — while the fenced twin shows neither.
func TestSanitizerCrashCheckCrossValidate(t *testing.T) {
	cfg := Config{Clients: 1, Ops: 6, Seeds: []int64{1, 2}, Points: []int{1, 3, 5}}

	for _, fenced := range []bool{false, true} {
		// Straight-line run for the sanitizer.
		rt := persist.NewRuntime("tx-kv", "native", 1, persist.Config{})
		app := &txKV{naiveKV{fenced: fenced}}
		app.Setup(rt, 1, cfg.Ops, 1)
		for k := 0; k < cfg.Ops; k++ {
			app.Do(k)
		}
		rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
		if err != nil {
			t.Fatal(err)
		}

		// Crash matrix for the checker.
		res, err := checkEntry(entry{
			name: "tx-kv", layer: "native",
			factory: func() App { return &txKV{naiveKV{fenced: fenced}} },
		}, cfg)
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
		lo, hi := app.base, app.base+mem.Addr(8+cfg.Ops*16)
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
