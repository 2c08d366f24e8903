package workload

import (
	"math/rand"
	"strings"
	"testing"
)

func TestZipfSkew(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 1.2, 1000)
	counts := make(map[uint64]int)
	for i := 0; i < 10000; i++ {
		counts[z.Next()]++
	}
	// Zipf: the most popular key should dominate.
	if counts[0] < 1000 {
		t.Errorf("zipf head count = %d, want heavy skew", counts[0])
	}
}

func TestZipfBadSkewClamped(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 0.5, 10) // s<=1 clamped
	for i := 0; i < 100; i++ {
		if z.Next() >= 10 {
			t.Fatal("zipf out of range")
		}
	}
}

func TestYCSBWriteFraction(t *testing.T) {
	y := NewYCSB(7, 1000, 80, 64)
	writes := 0
	for i := 0; i < 10000; i++ {
		op := y.Next()
		if op.Kind == OpUpdate {
			writes++
			if len(op.Value) != 64 {
				t.Fatal("wrong value length")
			}
		}
		if !strings.HasPrefix(op.Key, "user") {
			t.Fatal("bad key format")
		}
	}
	if writes < 7700 || writes > 8300 {
		t.Errorf("writes = %d/10000, want ~8000", writes)
	}
}

func TestYCSBDeterministic(t *testing.T) {
	a, b := NewYCSB(42, 100, 50, 8), NewYCSB(42, 100, 50, 8)
	for i := 0; i < 100; i++ {
		x, y := a.Next(), b.Next()
		if x.Kind != y.Kind || x.Key != y.Key {
			t.Fatal("same seed diverged")
		}
	}
}

func TestTPCCMix(t *testing.T) {
	g := NewTPCC(3, 4, 1000)
	kinds := make(map[TPCCKind]int)
	for i := 0; i < 10000; i++ {
		tx := g.Next()
		kinds[tx.Kind]++
		if tx.Warehouse >= 4 || tx.District >= 10 {
			t.Fatal("tx out of range")
		}
		if tx.Kind == TPCCNewOrder {
			if len(tx.Items) < 10 || len(tx.Items) > 25 {
				t.Fatalf("order lines = %d", len(tx.Items))
			}
			if len(tx.Items) != len(tx.Quantity) {
				t.Fatal("items/quantities mismatch")
			}
		}
	}
	if kinds[TPCCNewOrder] < 5000 || kinds[TPCCNewOrder] > 6000 {
		t.Errorf("NewOrder share = %d/10000", kinds[TPCCNewOrder])
	}
	if kinds[TPCCPayment] < 3000 || kinds[TPCCPayment] > 4000 {
		t.Errorf("Payment share = %d/10000", kinds[TPCCPayment])
	}
}

func TestMemslapMix(t *testing.T) {
	m := Memslap(5, 100000, 5, 32)
	sets := 0
	for i := 0; i < 10000; i++ {
		if m.Next().Kind == OpUpdate {
			sets++
		}
	}
	if sets < 350 || sets > 650 {
		t.Errorf("SETs = %d/10000, want ~500 (5%%)", sets)
	}
}

func TestLRUTestInsertsFreshKeys(t *testing.T) {
	l := NewLRUTest(9, 1000000)
	inserts := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		op := l.Next()
		if op.Kind == OpInsert {
			if inserts[op.Key] {
				t.Fatal("lru-test reinserted a key prematurely")
			}
			inserts[op.Key] = true
		}
	}
	if len(inserts) < 300 {
		t.Errorf("inserts = %d/1000, want ~500", len(inserts))
	}
}

func TestVacationMix(t *testing.T) {
	v := NewVacation(11, 1000, 10000)
	kinds := make(map[VacationKind]int)
	for i := 0; i < 10000; i++ {
		tx := v.Next()
		kinds[tx.Kind]++
		if len(tx.Objects) == 0 {
			t.Fatal("transaction touches no objects")
		}
	}
	if kinds[VacationReserve] < 8700 || kinds[VacationReserve] > 9300 {
		t.Errorf("reservations = %d/10000, want ~9000", kinds[VacationReserve])
	}
}

func TestFileserverLifecycle(t *testing.T) {
	f := NewFileserver(13, 50, 16)
	live := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		op := f.Next()
		switch op.Kind {
		case FileCreate:
			if live[op.Path] {
				t.Fatal("created an existing file")
			}
			live[op.Path] = true
		case FileWrite, FileRead, FileAppend, FileStat:
			if !live[op.Path] {
				t.Fatal("operated on a non-created file")
			}
			if (op.Kind == FileWrite || op.Kind == FileRead) && op.Size <= 0 {
				t.Fatal("zero-size data op")
			}
		case FileDelete:
			if !live[op.Path] {
				t.Fatal("deleted a non-created file")
			}
			delete(live, op.Path)
		}
	}
}

func TestPostalSequencing(t *testing.T) {
	p := NewPostal(17, 250, 4)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		d := p.Next()
		if seen[d.Spool] {
			t.Fatal("spool file reused")
		}
		seen[d.Spool] = true
		if d.Size != 4<<10 {
			t.Fatalf("size = %d", d.Size)
		}
		if !strings.HasPrefix(d.Mailbox, "/mail/user") {
			t.Fatal("bad mailbox path")
		}
	}
}

func TestSysbenchMix(t *testing.T) {
	s := NewSysbench(19, 1000000)
	writes := 0
	for i := 0; i < 10000; i++ {
		tx := s.Next()
		if tx.PointSelects != 10 || tx.RangeSize != 20 {
			t.Fatal("wrong read profile")
		}
		if tx.Write {
			writes++
		}
	}
	if writes < 2500 || writes > 3500 {
		t.Errorf("write txs = %d/10000, want ~3000", writes)
	}
}

// TestZipfDegenerateKeyspace is the regression test for NewZipf with an
// empty keyspace: n == 0 used to flow into rand.NewZipf as n-1 ==
// MaxUint64, silently generating keys over the entire uint64 range
// instead of the caller's (empty) keyspace.
func TestZipfDegenerateKeyspace(t *testing.T) {
	for _, n := range []uint64{0, 1} {
		z := NewZipf(rand.New(rand.NewSource(1)), 1.1, n)
		for i := 0; i < 1000; i++ {
			if k := z.Next(); k != 0 {
				t.Fatalf("NewZipf(n=%d).Next() = %d, want 0", n, k)
			}
		}
	}
}

// TestZipfStaysInRange pins the generator to [0, n) for small keyspaces.
func TestZipfStaysInRange(t *testing.T) {
	const n = 7
	z := NewZipf(rand.New(rand.NewSource(2)), 1.2, n)
	for i := 0; i < 10000; i++ {
		if k := z.Next(); k >= n {
			t.Fatalf("Next() = %d, want < %d", k, n)
		}
	}
}

// TestHotspotFractionUnderRotation drives the generator across many
// rotation phases and checks that the hot-key fraction stays within
// tolerance of hotPct in every phase — rotation must move the hot set,
// not dilute it.
func TestHotspotFractionUnderRotation(t *testing.T) {
	const (
		keys    = 10000
		hotKeys = 100
		hotPct  = 90
		rotate  = 5000
		phases  = 8
	)
	h := NewHotspot(rand.New(rand.NewSource(21)), keys, hotKeys, hotPct, rotate)
	bases := make(map[uint64]bool)
	for p := 0; p < phases; p++ {
		hot := 0
		for i := 0; i < rotate; i++ {
			if inHotSet(h, h.Next()) {
				hot++
			}
		}
		frac := 100 * float64(hot) / rotate
		if frac < hotPct-2 || frac > hotPct+2 {
			t.Errorf("phase %d: hot fraction = %.1f%%, want %d%%±2", p, frac, hotPct)
		}
		bases[h.base] = true
	}
	if len(bases) != phases {
		t.Errorf("saw %d distinct hot windows over %d phases, want %d", len(bases), phases, phases)
	}
}

// TestHotspotRotationAdvancesWindow pins the rotation schedule: the base
// advances by exactly hotKeys every rotate draws, wrapping mod keys.
func TestHotspotRotationAdvancesWindow(t *testing.T) {
	const (
		keys    = 250
		hotKeys = 100
		rotate  = 10
	)
	h := NewHotspot(rand.New(rand.NewSource(3)), keys, hotKeys, 100, rotate)
	for p := 0; p < 7; p++ {
		for i := 0; i < rotate; i++ {
			k := h.Next()
			if !inHotSet(h, k) {
				t.Fatalf("hotPct=100 drew cold key %d (base %d)", k, h.base)
			}
		}
		// The window slides on the first draw after each rotate boundary,
		// so after phase p's draws the base has advanced p times.
		if got, want := h.base, (uint64(p)*hotKeys)%keys; got != want {
			t.Fatalf("after phase %d: base = %d, want %d", p, got, want)
		}
	}
}

// TestHotspotColdDrawsAvoidWindow checks the complement side: with
// hotPct=0 no draw may land in the hot window (when a cold set exists).
func TestHotspotColdDrawsAvoidWindow(t *testing.T) {
	h := NewHotspot(rand.New(rand.NewSource(5)), 1000, 50, 0, 0)
	for i := 0; i < 20000; i++ {
		k := h.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		if inHotSet(h, k) {
			t.Fatalf("hotPct=0 drew hot key %d", k)
		}
	}
}

// TestZipfThetaMonotone sweeps the zipf exponent and checks that the
// probability mass captured by the top keys is monotone non-decreasing in
// skew — the property phase specs rely on when they ramp theta.
func TestZipfThetaMonotone(t *testing.T) {
	const (
		n     = 10000
		draws = 200000
		topK  = 10
	)
	thetas := []float64{1.05, 1.2, 1.5, 2.0, 3.0}
	var prev float64 = -1
	for _, s := range thetas {
		z := NewZipf(rand.New(rand.NewSource(33)), s, n)
		top := 0
		for i := 0; i < draws; i++ {
			if z.Next() < topK {
				top++
			}
		}
		mass := float64(top) / draws
		if mass < prev {
			t.Errorf("theta %.2f: top-%d mass %.4f < previous %.4f (not monotone)", s, topK, mass, prev)
		}
		prev = mass
	}
	if prev < 0.9 {
		t.Errorf("theta 3.0: top-%d mass = %.4f, want heavy concentration", topK, prev)
	}
}

// inHotSet reports whether key falls in h's current hot window.
func inHotSet(h *Hotspot, key uint64) bool {
	return (key+h.keys-h.base)%h.keys < h.hotKeys
}
