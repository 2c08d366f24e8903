package persist

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// events flattens the runtime's recorded trace for indexed assertions.
func events(rt *Runtime) []trace.Event { return rt.Trace.Events() }

func newRT(t *testing.T) *Runtime {
	t.Helper()
	return NewRuntime("test", "native", 2, Config{})
}

func TestStoreEmitsEventAndTakesEffect(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(64)
	th.Store(a, []byte{1, 2, 3})
	if got := rt.Dev.Load(0, a, 3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("device bytes = %v", got)
	}
	if rt.Trace.Len() != 1 || events(rt)[0].Kind != trace.KStore {
		t.Fatalf("trace = %v", events(rt))
	}
	if events(rt)[0].TID != 0 || events(rt)[0].Size != 3 {
		t.Fatalf("event fields wrong: %+v", events(rt)[0])
	}
}

func TestClockAdvancesMonotonically(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(256)
	var last = rt.Clock.Now()
	ops := []func(){
		func() { th.Store(a, []byte{1}) },
		func() { th.Flush(a, 1) },
		func() { th.Fence() },
		func() { th.StoreNT(a+64, []byte{2}) },
		func() { th.Fence() },
		func() { th.Load(a, 1) },
		func() { th.Compute(100) },
	}
	for i, op := range ops {
		op()
		now := rt.Clock.Now()
		if now < last {
			t.Fatalf("op %d moved clock backwards: %d -> %d", i, last, now)
		}
		last = now
	}
	// Events must be stamped in nondecreasing time order.
	evs := events(rt)
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatalf("event %d out of time order", i)
		}
	}
}

func TestFenceDrainsThroughRuntime(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(64)
	th.Store(a, []byte{7})
	th.Flush(a, 1)
	th.Fence()
	if got := rt.Dev.Durable(a, 1)[0]; got != 7 {
		t.Fatalf("durable byte = %d, want 7", got)
	}
}

func TestTxNestingPanics(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	th.TxBegin()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nested TxBegin did not panic")
			}
		}()
		th.TxBegin()
	}()
	th.TxEnd()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unmatched TxEnd did not panic")
			}
		}()
		th.TxEnd()
	}()
}

// TestThreadCountBoundedByTID: a trace event names its thread in 16 bits,
// so a runtime holds at most 1<<16 threads, and its last thread's events
// carry TID 0xFFFF.
func TestThreadCountBoundedByTID(t *testing.T) {
	for _, n := range []int{0, 1<<16 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRuntime with %d threads did not panic", n)
				}
			}()
			NewRuntime("test", "native", n, Config{Metrics: obs.NewRegistry()})
		}()
	}
	rt := NewRuntime("test", "native", 1<<16, Config{Metrics: obs.NewRegistry()})
	th := rt.Thread(1<<16 - 1)
	th.Fence()
	if n := rt.Trace.Len(); n != 1 {
		t.Fatalf("trace holds %d events, want 1", n)
	}
	if e := events(rt)[0]; e.TID != 0xFFFF {
		t.Fatalf("last thread's fence carries TID %d, want 0xFFFF", e.TID)
	}
}

func TestCrashResetsTxDepth(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	th.TxBegin()
	rt.Crash(pmem.Strict, 1)
	if th.txDepth > 0 {
		t.Error("thread still in tx after crash")
	}
	th.TxBegin() // must not panic
	th.TxEnd()
}

func TestVolatileAggregation(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(1)
	th.VLoad(10)
	th.VStore(4)
	if rt.Trace.VolatileLoads != 10 || rt.Trace.VolatileStores != 4 {
		t.Fatalf("aggregates = %d/%d", rt.Trace.VolatileLoads, rt.Trace.VolatileStores)
	}
	if rt.Trace.Len() != 0 {
		t.Fatal("aggregated volatile accesses should not emit events")
	}
}

func TestTypedHelpers(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(64)
	th.StoreU64(a, 0xdeadbeefcafe)
	if got := th.LoadU64(a); got != 0xdeadbeefcafe {
		t.Fatalf("LoadU64 = %#x", got)
	}
	th.StoreU32(a+8, 77)
	if got := th.LoadU32(a + 8); got != 77 {
		t.Fatalf("LoadU32 = %d", got)
	}
	th.StoreU64NT(a+16, 99)
	th.Fence()
	if got := rt.Dev.Durable(a+16, 1)[0]; got != 99 {
		t.Fatalf("NT durable = %d", got)
	}
	th.Memset(a+24, 0xab, 8)
	if got := th.Load(a+24, 8); !bytes.Equal(got, bytes.Repeat([]byte{0xab}, 8)) {
		t.Fatalf("Memset bytes = %v", got)
	}
}

func TestPersistStoreIsDurable(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(64)
	persistStore(th, a, []byte{42})
	if !rt.Dev.IsDurable(a, 1) {
		t.Fatal("a flushed and fenced store left data volatile")
	}
	// Event sequence must be store, flush, fence.
	kinds := []trace.Kind{trace.KStore, trace.KFlush, trace.KFence}
	for i, k := range kinds {
		if events(rt)[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, events(rt)[i].Kind, k)
		}
	}
}

func TestUserDataEvent(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	th.UserData(123)
	e := events(rt)[0]
	if e.Kind != trace.KUserData || e.Size != 123 {
		t.Fatalf("user data event = %+v", e)
	}
}

func TestThreadIdentity(t *testing.T) {
	rt := newRT(t)
	if rt.Thread(0).ID() != 0 || rt.Thread(1).ID() != 1 {
		t.Error("thread IDs wrong")
	}
	if rt.Threads() != 2 {
		t.Error("Threads() wrong")
	}
	if rt.Thread(0).Runtime() != rt {
		t.Error("Runtime() wrong")
	}
}

func TestFlushEdgeSizes(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(256)

	// Zero and negative sizes are complete no-ops: no event, no time.
	before := rt.Clock.Now()
	th.Flush(a, 0)
	th.Flush(a, -8)
	th.FlushFence(a, 0)
	th.FlushFence(a, -1)
	if rt.Trace.Len() != 0 {
		t.Fatalf("size<=0 flush emitted %d events: %v", rt.Trace.Len(), events(rt))
	}
	if rt.Clock.Now() != before {
		t.Fatalf("size<=0 flush advanced the clock: %d -> %d", before, rt.Clock.Now())
	}

	// A line-straddling flush emits one event and makes both lines durable.
	th.Store(a+60, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // spans two lines
	th.Flush(a+60, 8)
	th.Fence()
	if !rt.Dev.IsDurable(a+60, 8) {
		t.Fatal("line-straddling flush+fence left data volatile")
	}
	var flushes int
	for _, e := range events(rt) {
		if e.Kind == trace.KFlush {
			flushes++
			if e.Size != 8 {
				t.Fatalf("flush event size = %d, want 8", e.Size)
			}
		}
	}
	if flushes != 1 {
		t.Fatalf("flush events = %d, want 1", flushes)
	}
}

func TestGroupCommitCoalescesToOneFence(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(512)
	g := NewGroup(th)

	// Three "requests" whose writes overlap in cache lines: two records on
	// the same line, one straddling a boundary, one far away.
	th.Store(a, []byte{1, 2, 3, 4})
	g.Add(a, 4)
	th.Store(a+8, []byte{5, 6, 7, 8})
	g.Add(a+8, 4)
	th.Store(a+60, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // lines 0 and 1
	g.Add(a+60, 8)
	th.Store(a+256, []byte{1})
	g.Add(a+256, 1)
	if g.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", g.Pending())
	}

	g.Commit()

	if g.Pending() != 0 {
		t.Fatalf("Pending after Commit = %d, want 0", g.Pending())
	}
	for _, sp := range []mem.Span{{Addr: a, Size: 12}, {Addr: a + 60, Size: 8}, {Addr: a + 256, Size: 1}} {
		if !rt.Dev.IsDurable(sp.Addr, sp.Size) {
			t.Fatalf("span %+v not durable after Commit", sp)
		}
	}
	var flushes, fences int
	for _, e := range events(rt) {
		switch e.Kind {
		case trace.KFlush:
			flushes++
		case trace.KFence:
			fences++
		}
	}
	// Lines 0+1 coalesce into one contiguous run, line 4 stands alone:
	// two flush events cover four requests, under a single fence.
	if flushes != 2 {
		t.Fatalf("flush events = %d, want 2 (coalesced)", flushes)
	}
	if fences != 1 {
		t.Fatalf("fence events = %d, want 1 (group commit)", fences)
	}
}

func TestGroupEmptyCommitIsNoOp(t *testing.T) {
	rt := newRT(t)
	g := NewGroup(rt.Thread(0))
	g.Add(0, 0)  // sizes <= 0 span nothing
	g.Add(0, -4) // and must not count as pending work
	if g.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", g.Pending())
	}
	before := rt.Clock.Now()
	g.Commit()
	if rt.Trace.Len() != 0 {
		t.Fatalf("empty Commit emitted %d events: %v", rt.Trace.Len(), events(rt))
	}
	if rt.Clock.Now() != before {
		t.Fatal("empty Commit advanced the clock")
	}
}

func TestGroupReusableAcrossBatches(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(256)
	g := NewGroup(th)
	for batch := 0; batch < 3; batch++ {
		addr := a + mem.Addr(batch*64)
		th.Store(addr, []byte{byte(batch)})
		g.Add(addr, 1)
		g.Commit()
		if !rt.Dev.IsDurable(addr, 1) {
			t.Fatalf("batch %d not durable", batch)
		}
	}
	if got := rt.Dev.Stats().Fences; got != 3 {
		t.Fatalf("fences = %d, want 3 (one per batch)", got)
	}
}

// TestGroupCommitDoesNotAllocate pins a steady-state group commit at zero
// allocations: once its span, run and sort buffers have grown to the batch,
// Add and Commit reuse them. The batch is the KV service's shape, eight
// 147-byte records appended back to back plus a slot-table entry far away.
func TestGroupCommitDoesNotAllocate(t *testing.T) {
	rt := NewRuntime("test", "native", 1, Config{Metrics: obs.NewRegistry(), NoTrace: true})
	th := rt.Thread(0)
	a := rt.Dev.Map(8 << 10)
	rec := make([]byte, 147)
	g := NewGroup(th)
	off := 0
	batch := func() {
		for i := 0; i < 8; i++ {
			addr := a + 1024 + mem.Addr(off%(6<<10))
			th.Store(addr, rec)
			g.Add(addr, len(rec))
			off += len(rec)
		}
		th.StoreU64(a, uint64(off))
		g.Add(a, 16)
		g.Commit()
	}
	if n := testing.AllocsPerRun(1000, batch); n != 0 {
		t.Errorf("a steady-state group commit allocates %v times, want 0", n)
	}
	if !rt.Dev.IsDurable(a, 16) {
		t.Fatal("the last batch's slot entry is not durable")
	}
}

func TestRuntimeInstanceMetricsIsolation(t *testing.T) {
	// Two runtimes of the same app with distinct instances and a private
	// registry: their ordering-point counters must not alias each other,
	// and nothing may leak into the process-wide registry.
	reg := obs.NewRegistry()
	globalBefore := len(obs.Default().Snapshot().Counters)
	rt0 := NewRuntime("svc", "native", 1, Config{Metrics: reg, Instance: "shard-0"})
	rt1 := NewRuntime("svc", "native", 1, Config{Metrics: reg, Instance: "shard-1"})
	a0, a1 := rt0.Dev.Map(64), rt1.Dev.Map(64)
	persistStore(rt0.Thread(0), a0, []byte{1})
	persistStore(rt0.Thread(0), a0, []byte{2})
	persistStore(rt1.Thread(0), a1, []byte{3})

	snap := reg.Snapshot()
	k0 := `persist_ordering_points_total{app=svc,instance=shard-0,thread=0}`
	k1 := `persist_ordering_points_total{app=svc,instance=shard-1,thread=0}`
	if snap.Counters[k0] != 2 || snap.Counters[k1] != 1 {
		t.Fatalf("per-instance counters = %v", snap.Counters)
	}
	if got := len(obs.Default().Snapshot().Counters); got != globalBefore {
		t.Fatalf("private-registry runtimes grew the global registry: %d -> %d", globalBefore, got)
	}

	// Empty Instance keeps the historical key shape (no instance label).
	NewRuntime("plain", "native", 1, Config{Metrics: reg}).Thread(0).Fence()
	if _, ok := reg.Snapshot().Counters[`persist_ordering_points_total{app=plain,thread=0}`]; !ok {
		t.Fatalf("empty Instance changed the metric key: %v", reg.Snapshot().Counters)
	}
}

// TestAbortAt: fn stops at exactly its n-th PM event with atStop seeing the
// device just after it, an fn that runs out of events first completes, a
// panic that is not the abort signal passes through, and the hook is gone
// afterwards either way.
func TestAbortAt(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(64)
	three := func() {
		th.StoreU64(a, 1)
		th.StoreU64(a, 2)
		th.StoreU64(a, 3)
	}
	var seen uint64
	if !rt.AbortAt(2, func() { seen = th.LoadU64(a) }, three) {
		t.Fatal("fn with three events was not stopped at its second")
	}
	if seen != 2 || th.LoadU64(a) != 2 {
		t.Fatalf("stopped with %d at the stop instant and %d after, want 2 and 2", seen, th.LoadU64(a))
	}
	if rt.AbortAt(4, nil, three) {
		t.Fatal("fn with three events reported stopped at a fourth")
	}
	if rt.onEvent != nil {
		t.Fatal("event hook left installed")
	}
	defer func() {
		if r := recover(); r != "bug" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
		if rt.onEvent != nil {
			t.Fatal("event hook left installed after a foreign panic")
		}
	}()
	rt.AbortAt(1, nil, func() { panic("bug") })
}

// TestFenceInstrumentsAtEveryCut: fences issued inside an open transaction
// reach the registry at TxEnd, at Crash, at Reboot and when AbortAt stops
// the run — three fences, two of them closing epochs of 1 and 3 line
// touches — and not before.
func TestFenceInstrumentsAtEveryCut(t *testing.T) {
	const (
		points = `persist_ordering_points_total{app=cut,thread=0}`
		epochs = `persist_epoch_lines{app=cut}`
	)
	for _, cut := range []struct {
		name string
		cut  func(rt *Runtime)
	}{
		{"TxEnd", func(rt *Runtime) { rt.Thread(0).TxEnd() }},
		{"Crash", func(rt *Runtime) { rt.Crash(pmem.Strict, 1) }},
		{"Reboot", func(rt *Runtime) { rt.Reboot(rt.Dev.Clone()) }},
		{"AbortAt", func(rt *Runtime) {
			// Stop at the load that follows the third fence.
			if !rt.AbortAt(1, nil, func() { rt.Thread(0).LoadU64(rt.Dev.Mapped() - 8) }) {
				t.Fatal("AbortAt did not stop at the load")
			}
		}},
	} {
		reg := obs.NewRegistry()
		rt := NewRuntime("cut", "native", 1, Config{Metrics: reg})
		th := rt.Thread(0)
		a := rt.Dev.Map(4 * mem.LineSize)
		th.TxBegin()
		th.StoreU64(a, 1)
		th.Fence()
		th.Store(a, make([]byte, 2*mem.LineSize+1))
		th.Flush(a, 2*mem.LineSize+1)
		th.Fence()
		th.Fence()
		if snap := reg.Snapshot(); snap.Counters[points] != 0 || snap.Histograms[epochs].Count != 0 {
			t.Fatalf("%s: fences inside the transaction reached the registry before a cut: %d points, %d epochs",
				cut.name, snap.Counters[points], snap.Histograms[epochs].Count)
		}
		cut.cut(rt)
		snap := reg.Snapshot()
		h := snap.Histograms[epochs]
		if snap.Counters[points] != 3 || h.Count != 2 || h.Sum != 4 || h.Counts[0] != 1 || h.Counts[2] != 1 {
			t.Errorf("%s: %d ordering points, epochs %+v; want 3 points and epochs of 1 and 3 lines",
				cut.name, snap.Counters[points], h)
		}
	}
}

func TestFlushHookObservesFlushes(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(128)
	type call struct {
		a    mem.Addr
		size int
	}
	var calls []call
	th.SetFlushHook(func(a mem.Addr, size int) { calls = append(calls, call{a, size}) })
	th.Store(a, []byte{1})
	th.Flush(a, 1)
	th.Flush(a, 0) // guarded before the hook
	th.FlushFence(a+64, 8)
	th.SetFlushHook(nil)
	th.Flush(a, 1)
	want := []call{{a, 1}, {a + 64, 8}}
	if len(calls) != len(want) {
		t.Fatalf("hook calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("hook call %d = %v, want %v", i, calls[i], want[i])
		}
	}
}

// TestLoadIntoIsLoad: Load is LoadInto into a fresh slice — same bytes over a
// poisoned buffer (written span, then a never-written tail), same simulated
// time, same KLoad event.
func TestLoadIntoIsLoad(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(2 * pmem.PageBytes)
	th.Store(a+40, bytes.Repeat([]byte{9}, 100))
	*rt.Trace = trace.Trace{}

	t0 := rt.Clock.Now()
	want := th.Load(a+30, 4200)
	t1 := rt.Clock.Now()
	got := bytes.Repeat([]byte{0xFF}, 4200)
	th.LoadInto(a+30, got)
	t2 := rt.Clock.Now()

	if !bytes.Equal(got, want) {
		t.Fatal("LoadInto bytes differ from Load")
	}
	if t1-t0 != t2-t1 || t1 == t0 {
		t.Fatalf("Load took %d simulated ns, LoadInto %d", t1-t0, t2-t1)
	}
	ev := events(rt)
	if len(ev) != 2 || ev[0].Kind != trace.KLoad {
		t.Fatalf("trace = %v", ev)
	}
	ev[0].Time, ev[1].Time = 0, 0
	if ev[0] != ev[1] {
		t.Fatalf("Load emitted %+v, LoadInto %+v", ev[0], ev[1])
	}
}

// TestTypedLoadsDoNotAllocate pins LoadU64/LoadU32 (the recovery scan's
// header reads) and LoadInto at zero allocations. The recorder's chunk growth
// is a handful of allocations over a thousand calls, below AllocsPerRun's
// whole-number average.
func TestTypedLoadsDoNotAllocate(t *testing.T) {
	rt := newRT(t)
	th := rt.Thread(0)
	a := rt.Dev.Map(64)
	th.StoreU64(a, 0x1122334455667788)
	events := 0
	rt.SetEventHook(func(trace.Event) { events++ })
	var u64 uint64
	var u32 uint32
	buf := make([]byte, 16)
	for name, fn := range map[string]func(){
		"LoadU64":  func() { u64 = th.LoadU64(a) },
		"LoadU32":  func() { u32 = th.LoadU32(a + 4) },
		"LoadInto": func() { th.LoadInto(a, buf) },
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
	if u64 != 0x1122334455667788 || u32 != 0x11223344 || buf[0] != 0x88 {
		t.Fatalf("loaded %#x, %#x, %#x", u64, u32, buf[0])
	}
	if events != 3*1001 {
		t.Fatalf("hook saw %d KLoad events, want %d", events, 3*1001)
	}
}

// noTracePair builds a recording runtime and a NoTrace one, alike otherwise,
// each on a private registry.
func noTracePair() (rec, quiet *Runtime) {
	rec = NewRuntime("pair", "native", 2, Config{Metrics: obs.NewRegistry()})
	quiet = NewRuntime("pair", "native", 2, Config{Metrics: obs.NewRegistry(), NoTrace: true})
	return rec, quiet
}

// everyEmitter issues each kind of event the runtime can emit, two threads
// interleaved, leaving stores in every state a crash can find them in:
// fenced, flushed and unfenced, dirty.
func everyEmitter(rt *Runtime) {
	base := rt.Dev.Map(16 * mem.LineSize)
	t0, t1 := rt.Thread(0), rt.Thread(1)
	g := NewGroup(t1)
	for i := 0; i < 6; i++ {
		a := base + mem.Addr(i)*2*mem.LineSize
		t0.TxBegin()
		t0.VLoad(3)
		t0.StoreU64(a, uint64(i)+1)
		t0.UserData(8)
		t0.FlushFence(a, 8)
		t0.VStore(2)
		t0.TxEnd()
		t1.StoreU64NT(a+mem.LineSize, t0.LoadU64(a))
		t1.Compute(17)
		t1.Store(a+mem.LineSize+8, []byte{byte(i), 0xEE})
		g.Add(a+mem.LineSize, 10)
		if i%2 == 1 {
			g.Commit()
		}
	}
	t0.StoreU64(base, 99) // dirty, never flushed
	t1.Flush(base+mem.LineSize, 8)
}

// imageHash crashes a clone of dev under mode and hashes what survived.
func imageHash(dev *pmem.Device, mode pmem.CrashMode) [sha256.Size]byte {
	c := dev.Clone()
	c.Crash(mode, 5)
	h := sha256.New()
	for _, pg := range c.DurableImage() {
		fmt.Fprintln(h, pg.Index)
		h.Write(pg.Data[:])
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// requireSameMachine holds quiet to rec on everything but the record: the
// clock, the device's counters and its crash images, the volatile
// aggregates and every instrument.
func requireSameMachine(t *testing.T, when string, rec, quiet *Runtime) {
	t.Helper()
	if r, q := rec.Clock.Now(), quiet.Clock.Now(); r != q {
		t.Fatalf("%s: clock %d recording, %d not", when, r, q)
	}
	if r, q := rec.Dev.Stats(), quiet.Dev.Stats(); r != q {
		t.Fatalf("%s: device stats %+v recording, %+v not", when, r, q)
	}
	for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
		if imageHash(rec.Dev, mode) != imageHash(quiet.Dev, mode) {
			t.Fatalf("%s: durable image after a %v crash differs", when, mode)
		}
	}
	if rec.Trace.VolatileLoads != quiet.Trace.VolatileLoads || rec.Trace.VolatileStores != quiet.Trace.VolatileStores {
		t.Fatalf("%s: volatile aggregates %d/%d recording, %d/%d not", when,
			rec.Trace.VolatileLoads, rec.Trace.VolatileStores, quiet.Trace.VolatileLoads, quiet.Trace.VolatileStores)
	}
	if r, q := rec.cfg.Metrics.Snapshot(), quiet.cfg.Metrics.Snapshot(); !reflect.DeepEqual(r, q) {
		t.Fatalf("%s: instruments differ:\n%+v\n%+v", when, r, q)
	}
}

// TestNoTraceKeepsTheMachine: a NoTrace runtime is the same machine with an
// empty record, and a hook set on it sees the events the record would hold.
func TestNoTraceKeepsTheMachine(t *testing.T) {
	rec, quiet := noTracePair()
	everyEmitter(rec)
	everyEmitter(quiet)
	rec.Crash(pmem.Adversarial, 3)
	quiet.Crash(pmem.Adversarial, 3)
	if rec.Trace.Len() == 0 || quiet.Trace.Len() != 0 {
		t.Fatalf("recorded %d events, NoTrace %d; want some and none", rec.Trace.Len(), quiet.Trace.Len())
	}
	if quiet.Trace.App != "pair" || quiet.Trace.Threads != 2 {
		t.Fatalf("NoTrace runtime lost its metadata: %q, %d threads", quiet.Trace.App, quiet.Trace.Threads)
	}
	requireSameMachine(t, "after the script and a crash", rec, quiet)

	// The hook on a NoTrace runtime is handed what a recording one records
	// (the crash marker bypasses the hook on both).
	var hooked []trace.Event
	quiet.SetEventHook(func(e trace.Event) { hooked = append(hooked, e) })
	from := rec.Trace.Len()
	everyEmitter(rec)
	everyEmitter(quiet)
	quiet.SetEventHook(nil)
	if want := events(rec)[from:]; !slices.Equal(hooked, want) {
		t.Fatalf("hook saw %d events, the record holds %d (or they differ)", len(hooked), len(want))
	}
	n := len(hooked)
	rec.Thread(0).Fence()
	quiet.Thread(0).Fence()
	if len(hooked) != n || quiet.Trace.Len() != 0 {
		t.Fatal("a cleared hook still saw an event, or the NoTrace runtime recorded one")
	}
	requireSameMachine(t, "after the hooked script", rec, quiet)
}

// TestAbortAtWithoutTrace: AbortAt counts events the runtime does not keep.
// At every n the NoTrace runtime stops where the recording one does — same
// verdict, same simulated instant, same device at the stop.
func TestAbortAtWithoutTrace(t *testing.T) {
	for n := 1; ; n++ {
		rec, quiet := noTracePair()
		var stops [2][sha256.Size]byte
		var aborted [2]bool
		for i, rt := range []*Runtime{rec, quiet} {
			aborted[i] = rt.AbortAt(n, func() { stops[i] = imageHash(rt.Dev, pmem.Adversarial) }, func() { everyEmitter(rt) })
		}
		if aborted[0] != aborted[1] || stops[0] != stops[1] {
			t.Fatalf("n=%d: stopped %v / %v, same image at the stop: %v", n, aborted[0], aborted[1], stops[0] == stops[1])
		}
		requireSameMachine(t, fmt.Sprintf("after stopping at n=%d", n), rec, quiet)
		if !aborted[0] {
			if rec.Trace.Len() != n-1 {
				t.Fatalf("script ran out at n=%d but recorded %d events", n, rec.Trace.Len())
			}
			break
		}
		if rec.Trace.Len() != n || quiet.Trace.Len() != 0 {
			t.Fatalf("n=%d: recorded %d events, NoTrace %d", n, rec.Trace.Len(), quiet.Trace.Len())
		}
	}
}

// persistStore is the complete native-persistence store: cacheable store,
// CLWB, SFENCE.
func persistStore(th *Thread, a mem.Addr, data []byte) {
	th.Store(a, data)
	th.FlushFence(a, len(data))
}
