package hops

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
)

// The functional HOPS model of §6, kept as the tests' oracle for the
// Buffered Epoch Persistency rules: per-thread persist buffers with
// multi-versioning, conservative cross-thread dependency pointers with
// epoch splitting, the global timestamp vector at the LLC, and a durable
// image. Figure 10 does not run it — the timing replay (timing.go) is the
// model the tools use — but driving it with a recorded trace and the
// replay's own dfence decisions checks that those ordering points keep the
// §6.2 invariants.

// Entry is one persist-buffer record: the front end holds (line, epoch TS,
// dependency pointer), the back end holds the data. Sequence numbers give
// tests a global arrival order to check invariants against.
type Entry struct {
	Thread  int
	Line    mem.Line
	Data    uint64 // modelled payload (a version token)
	EpochTS uint64
	Dep     *DepPointer
	Seq     uint64 // global arrival sequence
}

// DepPointer conservatively names the source epoch a buffered update must
// follow: the paper uses (thread ID, current epoch TS at the source).
type DepPointer struct {
	Thread  int
	EpochTS uint64
}

// lineOwner tracks which thread most recently held the line exclusively —
// the sticky-M information HOPS gleans from coherence (§6.3). Epoch TSs
// start at 1, so the zero entry of a line no thread has written names no
// buffered epoch: no drained TS is below its epochTS of 0.
type lineOwner struct {
	thread  int
	epochTS uint64
}

// durableLine is a line's modelled PM image: the last drained version,
// and whether any version has drained.
type durableLine struct {
	data    uint64
	drained bool
}

// threadState is the per-hardware-thread HOPS state.
type threadState struct {
	ts uint64  // thread TS register (current, in-flight epoch)
	pb []Entry // persist buffer FIFO
}

// Machine is the functional HOPS model across all hardware threads.
type Machine struct {
	cfg     Config
	threads []*threadState

	// globalTS is the LLC's vector of the most recently drained epoch TS
	// per thread (0 = nothing drained yet).
	globalTS []uint64

	// owners is the sticky-M table: last exclusive holder per line.
	owners mem.LineTable[lineOwner]

	// durable is the modelled PM image.
	durable mem.LineTable[durableLine]

	// drained records the global drain order for invariant checking.
	drained []Entry

	seq   uint64
	stats Stats
}

// NewMachine creates a HOPS model with nthreads hardware threads.
func NewMachine(nthreads int, cfg Config) *Machine {
	if cfg.PBEntries <= 0 {
		panic("hops: invalid config")
	}
	m := &Machine{
		cfg:      cfg,
		globalTS: make([]uint64, nthreads),
	}
	for i := 0; i < nthreads; i++ {
		m.threads = append(m.threads, &threadState{ts: 1})
	}
	return m
}

// Store buffers a PM store of value data to line by thread tid. It models
// the L1-write-hit row of Table 2: create a PB entry with the thread's
// current epoch TS and a dependency pointer if another thread's buffered
// epoch last wrote the line. If the PB is full, head entries are drained
// to make room (the only stall HOPS pays on the store path).
func (m *Machine) Store(tid int, line mem.Line, data uint64) {
	t := m.threads[tid]
	if len(t.pb) >= m.cfg.PBEntries {
		m.drainEntries(tid, len(t.pb)-m.cfg.PBEntries+1)
	}
	var dep *DepPointer
	own := m.owners.Get(line)
	if own.thread != tid {
		// A dependency exists only while the writing epoch is still
		// buffered; the pointer conservatively names the source thread's
		// CURRENT epoch TS, not the exact epoch that wrote the line
		// (§6.3). Taking exclusive permissions also splits the source's
		// in-flight epoch ("epoch deadlocks are prevented by splitting
		// epochs"): every dependency then points to a closed epoch, and
		// since an epoch can only depend on epochs closed before it, the
		// dependency graph is acyclic by construction.
		if m.globalTS[own.thread] < own.epochTS {
			srcTS := m.threads[own.thread].ts
			dep = &DepPointer{Thread: own.thread, EpochTS: srcTS}
			m.threads[own.thread].ts = srcTS + 1
			m.stats.CrossDeps++
		}
	}
	for _, e := range t.pb {
		if e.Line == line && e.EpochTS != t.ts {
			m.stats.MultiVersions++ // multi-versioning in action (Consequence 6)
			break
		}
	}
	m.seq++
	t.pb = append(t.pb, Entry{
		Thread: tid, Line: line, Data: data, EpochTS: t.ts, Dep: dep, Seq: m.seq,
	})
	*own = lineOwner{thread: tid, epochTS: t.ts}
	m.stats.Stores++
}

// OFence ends the thread's current epoch: a purely local TS increment.
func (m *Machine) OFence(tid int) {
	m.threads[tid].ts++
	m.stats.OFences++
}

// DFence ends the epoch and stalls until the thread's PB is clean,
// recursively draining source threads when cross-dependencies require it.
func (m *Machine) DFence(tid int) {
	m.OFence(tid)
	m.stats.DFences++
	m.drainEntries(tid, len(m.threads[tid].pb))
}

// DrainAll flushes every thread's PB (simulated orderly power-down).
func (m *Machine) DrainAll() {
	for tid := range m.threads {
		m.drainEntries(tid, len(m.threads[tid].pb))
	}
}

// drainEntries drains n entries from the head of tid's PB, honouring
// dependency pointers by first draining the source thread's epochs.
func (m *Machine) drainEntries(tid int, n int) {
	t := m.threads[tid]
	for i := 0; i < n && len(t.pb) > 0; i++ {
		// Dependencies on tid's own earlier closed epochs are legal and
		// the recursion never revisits the entry being drained (the
		// dependency graph over entries is acyclic because every pointer
		// names an epoch closed before the dependent store), so the
		// in-flight set starts empty.
		m.satisfyDep(t.pb[0], map[int]bool{})
		e := t.pb[0]
		t.pb = t.pb[1:]
		m.commitEntry(e)
	}
}

// satisfyDep makes e's dependency durable. inFlight guards against
// dependency cycles: when draining the source would recurse into a thread
// already being drained, the hardware splits the epoch (§6.2 "Epoch
// deadlocks are prevented by splitting epochs") — modelled by dissolving
// the pointer on the affected entry.
func (m *Machine) satisfyDep(e Entry, inFlight map[int]bool) {
	if e.Dep == nil || m.globalTS[e.Dep.Thread] >= e.Dep.EpochTS {
		return
	}
	src := e.Dep.Thread
	if inFlight[src] {
		m.stats.DepSplits++
		return
	}
	inFlight[src] = true
	t := m.threads[src]
	// If the source's named epoch is still open, close it first: the
	// hardware delays the dependent until the source epoch is completely
	// flushed, and no later store may join an epoch another thread already
	// waits on (source-side epoch split).
	if t.ts <= e.Dep.EpochTS {
		t.ts = e.Dep.EpochTS + 1
	}
	for len(t.pb) > 0 && t.pb[0].EpochTS <= e.Dep.EpochTS {
		m.satisfyDep(t.pb[0], inFlight)
		head := t.pb[0]
		t.pb = t.pb[1:]
		m.commitEntry(head)
	}
	if m.globalTS[src] < e.Dep.EpochTS {
		// Nothing buffered at or below the needed TS remains; the
		// source's drained TS catches up so dependents may proceed.
		m.globalTS[src] = e.Dep.EpochTS
	}
	delete(inFlight, src)
}

func (m *Machine) commitEntry(e Entry) {
	*m.durable.Get(e.Line) = durableLine{data: e.Data, drained: true}
	// globalTS means "epochs <= TS completely drained". The entry's epoch
	// is complete only when no buffered entry of that epoch remains AND
	// the epoch is closed (the thread's TS register moved past it);
	// otherwise only the preceding epochs are known complete.
	t := m.threads[e.Thread]
	complete := t.ts > e.EpochTS && (len(t.pb) == 0 || t.pb[0].EpochTS > e.EpochTS)
	ts := e.EpochTS
	if !complete {
		ts = e.EpochTS - 1
	}
	if ts > m.globalTS[e.Thread] {
		m.globalTS[e.Thread] = ts
	}
	m.drained = append(m.drained, e)
}

// Durable returns the durable (post-crash) value of line and whether the
// line was ever drained.
func (m *Machine) Durable(line mem.Line) (uint64, bool) {
	d := m.durable.Get(line)
	return d.data, d.drained
}

// Buffered returns the number of buffered entries in tid's PB.
func (m *Machine) Buffered(tid int) int { return len(m.threads[tid].pb) }

// BufferedVersions returns how many buffered entries in tid's PB target
// line — HOPS's multi-versioning support (Consequence 6).
func (m *Machine) BufferedVersions(tid int, line mem.Line) int {
	n := 0
	for _, e := range m.threads[tid].pb {
		if e.Line == line {
			n++
		}
	}
	return n
}

// Stats summarises machine activity.
type Stats struct {
	Stores        uint64
	OFences       uint64
	DFences       uint64
	CrossDeps     uint64
	MultiVersions uint64 // same line buffered from more than one epoch
	DepSplits     uint64 // dependency cycles broken by epoch splitting
}

// CheckInvariants verifies the BEP ordering rules over the drain history:
//
//  1. per-thread epochs drain in nondecreasing TS order;
//  2. within a thread, arrival (program) order is preserved;
//  3. no source-thread entry from an epoch at or below a dependency's TS
//     drains AFTER the dependent entry — i.e. the durable prefix never
//     shows a dependent write without its source epoch. Dependencies the
//     hardware dissolved by epoch splitting are exempt, bounded by the
//     recorded split count.
//
// It returns an error describing the first violation.
func (m *Machine) CheckInvariants() error {
	lastTS := make(map[int]uint64)
	lastSeq := make(map[int]uint64)
	for _, e := range m.drained {
		if e.EpochTS < lastTS[e.Thread] {
			return fmt.Errorf("hops: thread %d drained epoch %d after %d",
				e.Thread, e.EpochTS, lastTS[e.Thread])
		}
		lastTS[e.Thread] = e.EpochTS
		if e.Seq < lastSeq[e.Thread] {
			return fmt.Errorf("hops: thread %d drained out of arrival order", e.Thread)
		}
		lastSeq[e.Thread] = e.Seq
	}
	// Rule 3: scan in reverse, tracking the minimum epoch TS drained
	// strictly after each position, per thread.
	minLater := make(map[int]uint64)
	splitBudget := m.stats.DepSplits
	for i := len(m.drained) - 1; i >= 0; i-- {
		e := m.drained[i]
		if e.Dep != nil {
			if later, ok := minLater[e.Dep.Thread]; ok && later <= e.Dep.EpochTS {
				if splitBudget > 0 {
					splitBudget--
				} else {
					return fmt.Errorf("hops: source thread %d epoch <=%d drained after its dependent (line %d)",
						e.Dep.Thread, e.Dep.EpochTS, e.Line)
				}
			}
		}
		if cur, ok := minLater[e.Thread]; !ok || e.EpochTS < cur {
			minLater[e.Thread] = e.EpochTS
		}
	}
	return nil
}
