package prims

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Ops != 2000 || c.Slots != 256 || c.Payload != 64 || c.Zipf != 1.1 {
		t.Fatalf("defaults = %+v", c)
	}
	if got := (Config{Payload: 13}).withDefaults().Payload; got != 16 {
		t.Fatalf("payload 13 rounded to %d, want 16 (whole words)", got)
	}
	if got := (Config{Payload: 3}).withDefaults().Payload; got != 64 {
		t.Fatalf("payload 3 became %d, want the 64 default (min 8)", got)
	}
}

// TestSuiteDeterministic pins that the microsuite — including the strict
// crash+recovery sweep inside each run — reproduces exactly: same config,
// same rows, byte-identical artifact.
func TestSuiteDeterministic(t *testing.T) {
	cfg := Config{Ops: 400, Seed: 7, Metrics: obs.NewRegistry()}
	a, err := RunSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite(Config{Ops: 400, Seed: 7, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("suite not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	var w1, w2 bytes.Buffer
	if err := WriteJSON(&w1, cfg, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&w2, cfg, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("artifacts not byte-identical")
	}
}

// TestDecompositionOrderingPoints pins the cost decomposition the table
// is built on: ordering points (fences) and per-line flush counts for the
// default 64-byte payload. inplace = 1 fence; the three atomic protocols
// each pay 2 (persist the data/descriptor, then publish); only PMwCAS
// uses NT stores (8 words installed per op).
func TestDecompositionOrderingPoints(t *testing.T) {
	rows, err := RunSuite(Config{Ops: 500, Seed: 3, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Names()) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Names()))
	}
	want := map[string]struct{ fences, flushes, nt float64 }{
		"inplace-flush": {1, 1, 0}, // payload line only
		"cow-publish":   {2, 2, 0}, // copy line + pointer line
		"log-append":    {2, 3, 0}, // 80 B record spans 2 lines + head line
		"pmwcas":        {2, 3, 8}, // 144 B descriptor spans 3 lines; 8 NT words
	}
	for _, r := range rows {
		w, ok := want[r.Primitive]
		if !ok {
			t.Fatalf("unexpected primitive %q", r.Primitive)
		}
		if r.FencesPerOp != w.fences || r.FlushesPerOp != w.flushes || r.NTStoresPerOp != w.nt {
			t.Errorf("%s: fences=%v flushes=%v nt=%v, want %v/%v/%v",
				r.Primitive, r.FencesPerOp, r.FlushesPerOp, r.NTStoresPerOp, w.fences, w.flushes, w.nt)
		}
		if r.BytesPerOp <= 0 || r.SimNsPerOp <= 0 {
			t.Errorf("%s: degenerate cost row %+v", r.Primitive, r)
		}
	}
	// The decomposition must separate the classes: in-place is strictly
	// cheaper than every atomic protocol in both fences and bytes.
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Primitive] = r
	}
	for _, atomic := range []string{"cow-publish", "log-append", "pmwcas"} {
		if byName[atomic].FencesPerOp <= byName["inplace-flush"].FencesPerOp {
			t.Errorf("%s not costlier than inplace in fences", atomic)
		}
		if byName[atomic].BytesPerOp <= byName["inplace-flush"].BytesPerOp {
			t.Errorf("%s not costlier than inplace in bytes", atomic)
		}
	}
}

// countUpdateEvents runs one update on a fresh primitive and returns how
// many device events it emits, so the crash sweep can hit every point.
func countUpdateEvents(name string, cfg Config) int {
	rt := persist.NewRuntime("prims", "native", 1, persist.Config{Metrics: obs.NewRegistry()})
	p := newPrimitive(name)
	p.init(rt, cfg)
	p.update(1, 11)
	n := 0
	rt.SetEventHook(func(trace.Event) { n++ })
	p.update(1, 22)
	rt.SetEventHook(nil)
	return n
}

// crashDuringUpdate performs update(slot,old) durably, then crashes the
// runtime after exactly k events of update(slot,new), recovers, and
// returns the recovered word for the slot.
func crashDuringUpdate(t *testing.T, name string, cfg Config, mode pmem.CrashMode, seed int64, k int, old, new uint64) uint64 {
	t.Helper()
	rt := persist.NewRuntime("prims", "native", 1, persist.Config{Metrics: obs.NewRegistry()})
	p := newPrimitive(name)
	p.init(rt, cfg)
	p.update(1, old)

	rt.AbortAt(k, nil, func() { p.update(1, new) })

	rt.Crash(mode, seed)
	p.recoverState()
	got, ok := p.read(1)
	if !ok {
		t.Fatalf("%s: slot vanished after crash at event %d", name, k)
	}
	return got
}

// TestAtomicPrimitivesCrashAtEveryPoint is the failure-atomicity sweep:
// for each atomic primitive, crash a mid-flight update at every event
// index. Recovery must always surface the old value or the new one —
// never a third state. (inplace-flush makes no such promise and is
// deliberately absent.)
func TestAtomicPrimitivesCrashAtEveryPoint(t *testing.T) {
	cfg := Config{Ops: 4, Slots: 4}.withDefaults()
	for _, name := range []string{"cow-publish", "log-append", "pmwcas"} {
		t.Run(name, func(t *testing.T) {
			n := countUpdateEvents(name, cfg)
			if n < 4 {
				t.Fatalf("update emits only %d events — hook not seeing the protocol", n)
			}
			const old, new = 1111, 2222
			for k := 1; k <= n; k++ {
				got := crashDuringUpdate(t, name, cfg, pmem.Strict, 1, k, old, new)
				if got != old && got != new {
					t.Fatalf("strict crash at event %d/%d recovered %d, want %d or %d", k, n, got, old, new)
				}
			}
		})
	}
}

// TestPublishProtocolsAdversarialCrash repeats the sweep under the
// adversarial device, where any dirty-but-unflushed line may persist or
// vanish independently. cow-publish and log-append fence their data
// before issuing the publish store, so even an adversarially-persisted
// publish only ever exposes durable data. (pmwcas is strict-only: its
// multi-line descriptor can tear under this device.)
func TestPublishProtocolsAdversarialCrash(t *testing.T) {
	cfg := Config{Ops: 4, Slots: 4}.withDefaults()
	for _, name := range []string{"cow-publish", "log-append"} {
		t.Run(name, func(t *testing.T) {
			n := countUpdateEvents(name, cfg)
			const old, new = 3333, 4444
			for k := 1; k <= n; k++ {
				for seed := int64(1); seed <= 3; seed++ {
					got := crashDuringUpdate(t, name, cfg, pmem.Adversarial, seed, k, old, new)
					if got != old && got != new {
						t.Fatalf("adversarial crash at event %d/%d seed %d recovered %d, want %d or %d",
							k, n, seed, got, old, new)
					}
				}
			}
		})
	}
}

// TestRunSuiteRowsMatchConfig pins the suite shape: rows come back in
// suite order with the configured op count, having passed the in-suite
// strict crash sweep.
func TestRunSuiteRowsMatchConfig(t *testing.T) {
	rows, err := RunSuite(Config{Ops: 64, Slots: 16, Seed: 9, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Primitive != Names()[i] {
			t.Fatalf("row %d is %q, want %q (suite order)", i, r.Primitive, Names()[i])
		}
		if r.Ops != 64 {
			t.Fatalf("%s: ops = %d, want 64", r.Primitive, r.Ops)
		}
	}
}

func ExampleWriteJSON() {
	rows, err := RunSuite(Config{Ops: 16, Slots: 8, Seed: 1, Metrics: obs.NewRegistry()})
	if err != nil {
		fmt.Println("err:", err)
		return
	}
	fmt.Println(len(rows), "primitives")
	// Output: 4 primitives
}
