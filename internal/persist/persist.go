// Package persist is the programming-model runtime that WHISPER
// applications are written against. It plays the role of the paper's PM_*
// instrumentation macros (Figure 2) fused with the machine itself: every
// persistent operation both takes effect on the simulated device
// (internal/pmem) and is appended to the run's trace (internal/trace) with
// a simulated-global-clock timestamp.
//
// A Runtime owns one device, one clock and one trace; each logical client
// thread of an application holds a *Thread and issues its PM operations
// through it (a runtime built with Config.NoTrace keeps the device and the
// clock and records no events — for domains whose owner reads counters):
//
//	th.TxBegin()
//	th.Store(addr, data)   // cacheable store
//	th.Flush(addr, len)    // CLWB
//	th.Fence()             // SFENCE — ends the epoch
//	th.TxEnd()
//
// Volatile (DRAM) traffic is counted through th.VLoad/VStore into the
// trace's aggregate counters, which feed the paper's Figure 6 analysis; it
// ticks the clock and records no event.
//
// Each PM instruction ticks the clock by trace.Charge for its kind before
// its event is stamped: the cost the HOPS replay takes back off the
// recorded gaps to recover the application's compute.
package persist

import (
	"encoding/binary"
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Config tunes a Runtime.
type Config struct {
	// Instance distinguishes many runtimes of the same app — the sharded
	// service runs one persistence domain per shard, all named
	// "kvservice". When non-empty it is added as an "instance" label on
	// the runtime's instruments; when empty the label (and the historical
	// metric keys) are unchanged.
	Instance string
	// Metrics is the registry the runtime's instruments report into; nil
	// means the process-wide obs.Default(). Sweeps that create hundreds
	// of short-lived domains pass their own registry so per-run numbers
	// do not accumulate across runs in the global one.
	Metrics *obs.Registry
	// NoTrace builds a runtime whose event sequence nobody will read: the
	// device, the clock, the instruments and the volatile aggregates work
	// as ever, but Runtime.Trace stays empty — an event is constructed only
	// while an event hook is set, for the hook alone. For persistence
	// domains whose owner reads counters (device stats, the clock), not
	// events; simulated time and device state do not depend on it.
	NoTrace bool
}

// Runtime binds a device, clock and trace for one application run. Its
// instruments — persist_epoch_lines, the size in cache-line touches of
// every epoch the run closes (the paper's Figure 3 dimension), and each
// thread's persist_ordering_points_total — come from the configured
// registry once per run; the threads publish to them (see Thread), and
// they never touch the simulated clock or trace, so metrics on or off the
// run is byte-identical.
type Runtime struct {
	Dev   *pmem.Device
	Clock *mem.Clock
	// Trace is the run's event record. Under Config.NoTrace it carries the
	// run's metadata and volatile aggregates and never an event.
	Trace *trace.Trace

	cfg     Config
	threads []*Thread
	onEvent func(trace.Event)
}

// NewRuntime creates a runtime for app running under the given access layer
// with nthreads logical client threads.
func NewRuntime(app, layer string, nthreads int, cfg Config) *Runtime {
	if nthreads <= 0 {
		panic("persist: nthreads must be positive")
	}
	if nthreads > 1<<16 {
		panic("persist: nthreads exceeds the 1<<16 TIDs a trace event can name")
	}
	r := &Runtime{
		Dev:   pmem.New(),
		Clock: &mem.Clock{},
		Trace: &trace.Trace{App: app, Layer: layer, Threads: nthreads},
		cfg:   cfg,
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	labels := func(extra ...string) obs.Labels {
		l := obs.Labels{"app": app}
		if cfg.Instance != "" {
			l["instance"] = cfg.Instance
		}
		for i := 0; i+1 < len(extra); i += 2 {
			l[extra[i]] = extra[i+1]
		}
		return l
	}
	epochLines := reg.Histogram("persist_epoch_lines",
		labels(), 1, 2, 4, 8, 16, 32, 64, 128, 256)
	r.threads = make([]*Thread, nthreads)
	for i := range r.threads {
		r.threads[i] = &Thread{
			rt: r, id: pmem.ThreadID(i),
			epochs: obs.NewTally(epochLines),
			orderingPoints: reg.Counter("persist_ordering_points_total",
				labels("thread", fmt.Sprint(i))),
		}
	}
	return r
}

// Thread returns the i-th logical thread context.
func (r *Runtime) Thread(i int) *Thread { return r.threads[i] }

// Threads returns the number of logical threads.
func (r *Runtime) Threads() int { return len(r.threads) }

// Crash injects a power failure (see pmem.Device.Crash). Outstanding
// transactions are abandoned; applications must run their recovery paths.
// A KCrash event marks the failure in the trace so durability analyses
// (pmsan) reset their cache state instead of carrying dirty lines and
// open transactions across the power loss. The event bypasses the event
// hook: it is not a device operation a checker could stop on. Every
// thread publishes its fences before its transaction is abandoned.
func (r *Runtime) Crash(mode pmem.CrashMode, seed int64) {
	r.Dev.Crash(mode, seed)
	r.resetThreads()
	if !r.cfg.NoTrace {
		r.Trace.Append(trace.Event{Time: r.Clock.Now(), Kind: trace.KCrash})
	}
}

// SetEventHook registers fn to be called after every persistent trace event
// is recorded (nil clears it). The crash-consistency checker uses the hook
// to stop execution at a precise point in the PM instruction stream; the
// device operation the event describes has already taken effect when the
// hook runs, so a device snapshot taken inside fn captures the state just
// after that instruction. A NoTrace runtime hands fn the same events in the
// same order; it only keeps none of them.
func (r *Runtime) SetEventHook(fn func(trace.Event)) { r.onEvent = fn }

// crashSignal is the panic value AbortAt's hook throws to stop fn. Anything
// else unwinding out of fn is a real bug and is re-thrown.
type crashSignal struct{}

// AbortAt runs fn and stops it at its n-th persistent trace event, the way
// a power failure stops the world mid-store: the event hook panics out of
// fn and AbortAt recovers. atStop, if non-nil, runs at the stop instant —
// after the n-th event's device operation, before the unwind — which is
// where a caller clones the device. The result is whether fn was stopped;
// false means fn emitted fewer than n events and ran to completion. The
// runtime's event hook is taken over for the call and cleared after it,
// and every thread publishes its fences on the way out, so the registry
// counts the fences of a transaction the stop left open.
func (r *Runtime) AbortAt(n int, atStop func(), fn func()) (aborted bool) {
	r.onEvent = func(trace.Event) {
		if n--; n == 0 {
			if atStop != nil {
				atStop()
			}
			panic(crashSignal{})
		}
	}
	defer func() {
		r.onEvent = nil
		for _, th := range r.threads {
			th.publish()
		}
		if p := recover(); p != nil {
			if _, ok := p.(crashSignal); !ok {
				panic(p)
			}
			aborted = true
		}
	}()
	fn()
	return false
}

// Reboot replaces the runtime's device with dev — typically a crash image —
// and resets all per-thread volatile state (open transactions and epochs
// are abandoned, like CPU state across a power failure, after every thread
// publishes its fences). The trace keeps recording, so recovery-path PM
// traffic is visible to analysis.
func (r *Runtime) Reboot(dev *pmem.Device) {
	r.Dev = dev
	r.resetThreads()
}

// resetThreads abandons every thread's open transaction and epoch, as a
// power failure does, after publishing the fences the threads issued.
func (r *Runtime) resetThreads() {
	for _, th := range r.threads {
		th.publish()
		th.txDepth = 0
		th.epochLineTouches = 0 // the open epoch never closed; don't record it
	}
}

// Thread is a logical hardware-thread context. All persistent operations
// are methods on Thread so that every event carries its thread ID, which
// the epoch analysis needs for the self-/cross-dependency study (Fig. 5).
//
// A thread counts its fences and the sizes of the epochs they close in
// plain fields and publishes them to the runtime's instruments at TxEnd,
// at a fence outside a transaction, and at the runtime's Crash, Reboot and
// AbortAt exit: a fence inside a transaction costs no atomic instruction,
// and the registry is exact whenever no transaction is open. A run that
// panics out of an open transaction (redis at its pool ceiling) leaves
// that transaction's fences out of the registry.
type Thread struct {
	rt      *Runtime
	id      pmem.ThreadID
	txDepth int

	// epochLineTouches counts cache-line touches by PM stores in the
	// current epoch; tallied into epochs at the fence that closes the
	// epoch.
	epochLineTouches uint64
	// fences counts the thread's fences (the paper's ordering points,
	// §5.1) and epochs the sizes of the epochs they closed, both since the
	// last publish, which adds them to orderingPoints and the runtime's
	// persist_epoch_lines histogram.
	fences         uint64
	epochs         obs.Tally
	orderingPoints *obs.Counter

	// flushHook, when set, observes every non-empty flush this thread
	// issues. Transaction engines that defer data flushes to commit use
	// it to learn which deferred-dirty lines an inline flush (an undo
	// record, a neighbouring allocation's header) has already covered, so
	// commit does not re-flush clean lines — the redundant-flush smell
	// the pmsan sanitizer reports.
	flushHook func(a mem.Addr, size int)
}

// ID returns the thread's index.
func (t *Thread) ID() int { return int(t.id) }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// emit records one event and shows it to the event hook. The clock has
// already ticked for the operation and emit never touches it, which is why
// a NoTrace runtime — nothing recorded, and without a hook no event built —
// keeps simulated time to the nanosecond. The event is spelled out in each
// arm: built by a shared helper it is assembled in a temporary and copied,
// which costs the recording path a store-forwarding stall per event.
func (t *Thread) emit(k trace.Kind, a mem.Addr, size int) {
	rt := t.rt
	if rt.cfg.NoTrace {
		if rt.onEvent != nil {
			rt.onEvent(trace.Event{Time: rt.Clock.Now(), Addr: a, Size: uint32(size), TID: uint16(t.id), Kind: k})
		}
		return
	}
	ev := trace.Event{Time: rt.Clock.Now(), Addr: a, Size: uint32(size), TID: uint16(t.id), Kind: k}
	rt.Trace.Append(ev)
	if rt.onEvent != nil {
		rt.onEvent(ev)
	}
}

func (t *Thread) tick(c mem.Cycles) { t.rt.Clock.AdvanceCycles(c) }

// Store performs a cacheable store of data at a.
func (t *Thread) Store(a mem.Addr, data []byte) {
	t.rt.Dev.Store(t.id, a, data)
	t.tick(trace.Charge(trace.KStore, 0))
	t.emit(trace.KStore, a, len(data))
	t.epochLineTouches += uint64(mem.LinesSpanned(a, len(data)))
}

// StoreNT performs a non-temporal store of data at a (PM_MOVNTI).
func (t *Thread) StoreNT(a mem.Addr, data []byte) {
	t.rt.Dev.StoreNT(t.id, a, data)
	t.tick(trace.Charge(trace.KStoreNT, 0))
	t.emit(trace.KStoreNT, a, len(data))
	t.epochLineTouches += uint64(mem.LinesSpanned(a, len(data)))
}

// Load reads size bytes at a into a fresh slice.
func (t *Thread) Load(a mem.Addr, size int) []byte {
	out := make([]byte, size)
	t.LoadInto(a, out)
	return out
}

// LoadInto reads len(out) bytes at a into out without allocating — the load
// for callers that do not keep the bytes past their next load.
func (t *Thread) LoadInto(a mem.Addr, out []byte) {
	t.rt.Dev.LoadInto(t.id, a, out)
	t.tick(trace.Charge(trace.KLoad, 0))
	t.emit(trace.KLoad, a, len(out))
}

// Flush issues CLWB for the lines overlapping [a, a+size) (PM_FLUSH).
// A size <= 0 flush covers no lines and is a complete no-op: no device
// call, no simulated time, no event. (It used to emit a zero-length
// KFlush that downstream consumers counted as a flushed line.)
func (t *Thread) Flush(a mem.Addr, size int) {
	if size <= 0 {
		return
	}
	t.rt.Dev.Flush(t.id, a, size)
	t.tick(trace.Charge(trace.KFlush, 0))
	t.emit(trace.KFlush, a, size)
	if t.flushHook != nil {
		t.flushHook(a, size)
	}
}

// SetFlushHook installs (or, with nil, removes) the thread's flush
// observer. At most one hook is active per thread; the typical owner is
// an open transaction, installed at begin and removed at commit/abort.
func (t *Thread) SetFlushHook(h func(a mem.Addr, size int)) { t.flushHook = h }

// Fence issues SFENCE (PM_FENCE): all outstanding flushes and NT stores of
// this thread become durable, and the thread's current epoch ends.
func (t *Thread) Fence() {
	pending := t.rt.Dev.PendingFlushes(t.id)
	t.rt.Dev.Fence(t.id)
	// Execution-time model: the fence stalls for the drain of whatever was
	// outstanding. The HOPS replay (internal/hops) substitutes its own
	// models; this charge only shapes the trace's wall-clock (Table 1).
	t.tick(trace.Charge(trace.KFence, pending))
	t.emit(trace.KFence, 0, 0)
	t.fences++
	if t.epochLineTouches > 0 {
		t.epochs.Observe(t.epochLineTouches)
		t.epochLineTouches = 0
	}
	if t.txDepth == 0 {
		t.publish()
	}
}

// publish adds the fences and epoch sizes the thread has counted since the
// last publish to the runtime's instruments and zeroes its counts.
func (t *Thread) publish() {
	if t.fences != 0 {
		t.orderingPoints.Add(t.fences)
		t.fences = 0
	}
	t.epochs.Flush()
}

// TxBegin marks the start of a durable transaction. Transactions may not
// nest in WHISPER applications; nesting panics to catch layering bugs.
func (t *Thread) TxBegin() {
	if t.txDepth != 0 {
		panic(fmt.Sprintf("persist: nested TxBegin on thread %d", t.id))
	}
	t.txDepth = 1
	t.emit(trace.KTxBegin, 0, 0)
}

// TxEnd marks transaction commit.
func (t *Thread) TxEnd() {
	if t.txDepth != 1 {
		panic(fmt.Sprintf("persist: TxEnd without TxBegin on thread %d", t.id))
	}
	t.txDepth = 0
	t.publish()
	t.emit(trace.KTxEnd, 0, 0)
}

// UserData declares that n bytes of the current transaction's PM writes are
// application payload (not log/allocator metadata); input to the write
// amplification analysis (§5.2).
func (t *Thread) UserData(n int) {
	t.emit(trace.KUserData, 0, n)
}

// Compute advances the simulated clock by c cycles of pure computation.
func (t *Thread) Compute(c mem.Cycles) { t.tick(c) }

// VLoad accounts for n volatile loads: a cycle each, counted in the trace's
// aggregates.
func (t *Thread) VLoad(n int) {
	t.rt.Trace.VolatileLoads += uint64(n)
	t.tick(mem.Cycles(n))
}

// VStore accounts for n volatile stores.
func (t *Thread) VStore(n int) {
	t.rt.Trace.VolatileStores += uint64(n)
	t.tick(mem.Cycles(n))
}

// --- Typed helpers -------------------------------------------------------

// StoreU64 stores v little-endian at a (cacheable).
func (t *Thread) StoreU64(a mem.Addr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	t.Store(a, buf[:])
}

// StoreU64NT stores v little-endian at a with a non-temporal store.
func (t *Thread) StoreU64NT(a mem.Addr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	t.StoreNT(a, buf[:])
}

// LoadU64 loads a little-endian uint64 from a.
func (t *Thread) LoadU64(a mem.Addr) uint64 {
	var buf [8]byte
	t.LoadInto(a, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// StoreU32 stores v little-endian at a.
func (t *Thread) StoreU32(a mem.Addr, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	t.Store(a, buf[:])
}

// LoadU32 loads a little-endian uint32 from a.
func (t *Thread) LoadU32(a mem.Addr) uint32 {
	var buf [4]byte
	t.LoadInto(a, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// Memset stores n copies of b starting at a.
func (t *Thread) Memset(a mem.Addr, b byte, n int) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	t.Store(a, buf)
}

// FlushFence flushes [a, a+size) and fences — the clwb;sfence idiom of
// native persistence (Figure 1a). Like Flush, size <= 0 is a complete
// no-op: there is nothing to make durable, so no fence is issued either
// (an unconditional fence here would order nothing — the exact smell
// the sanitizer flags as fence-without-work).
func (t *Thread) FlushFence(a mem.Addr, size int) {
	if size <= 0 {
		return
	}
	t.Flush(a, size)
	t.Fence()
}
