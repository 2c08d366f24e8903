// Package pmsan is a durability-ordering sanitizer for WHISPER traces.
//
// It consumes the same event stream the epoch analysis does (any
// trace.EventSource — the live streaming pipeline or a stored trace
// file) and runs a small per-thread, per-cache-line state machine over
// the store→flush→fence→commit lifecycle that the paper's §5 flush and
// fence accounting assumes. Px86-style ordering semantics (Bila et al.)
// drive the transitions: a cacheable store is durable only after a
// covering flush *and* a subsequent fence on the same thread; a
// non-temporal store skips the flush but still needs the fence.
//
// Five classes are reported. Three are ordering errors — state that a
// transaction publishes at TxEnd without the covering flush/fence — and
// two are performance smells (Bentō's dominant findings in real PM
// code): flushing a clean line, and fencing with nothing in flight.
// Reports are deterministic and byte-stable: violations are aggregated
// per (class, thread, line) and sorted before rendering, so serial,
// parallel, and streaming runs of the same app render identically.
package pmsan

import (
	"io"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Class identifies one violation/smell class.
type Class uint8

const (
	// DirtyAtCommit: a line stored inside a TxBegin/TxEnd window reached
	// TxEnd with no covering flush at all. On a crash after the commit
	// point the line's durable image is stale — this is the bug class
	// crashcheck catches only when injection lands in the window.
	DirtyAtCommit Class = iota
	// UnfencedFlush: the line was flushed but no fence ordered the flush
	// before TxEnd; the flush may still be in flight at the commit point.
	UnfencedFlush
	// UnfencedNTStore: a non-temporal store reached TxEnd with no fence
	// to drain the write-combining buffer.
	UnfencedNTStore
	// RedundantFlush: the same line flushed twice with no intervening
	// store. Correct but wasted work — a diagnostic, not an error.
	RedundantFlush
	// FenceNoWork: a fence issued with no flush or NT store in flight on
	// that thread since the previous fence. Also a diagnostic.
	FenceNoWork

	numClasses
)

var classNames = [numClasses]string{
	"dirty-at-commit",
	"unfenced-flush",
	"unfenced-nt-store",
	"redundant-flush",
	"fence-without-work",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// IsError reports whether the class is an ordering error (as opposed to
// a performance diagnostic).
func (c Class) IsError() bool { return c <= UnfencedNTStore }

// ClassByName maps a class name, as a report prints it, back to its Class.
func ClassByName(name string) (Class, bool) {
	for i, n := range classNames {
		if n == name {
			return Class(i), true
		}
	}
	return 0, false
}

// Per-line durability states.
type lineStatus uint8

const (
	stClean     lineStatus = iota // no un-persisted data
	stDirty                       // cacheable store, not yet flushed
	stFlushed                     // flushed, fence still pending
	stNTPending                   // NT store, fence still pending
)

type lineState struct {
	st lineStatus
	// flushedSinceStore is set by a flush and cleared by any store; a
	// second flush while set is a RedundantFlush.
	flushedSinceStore bool
	// inTx marks the line as already recorded in txLines for the open
	// transaction (cleared at TxEnd).
	inTx bool
}

type threadState struct {
	lines mem.LineTable[lineState]
	// txLines lists PM lines stored to inside the open tx window, in
	// first-touch order.
	txLines []mem.Line
	txOpen  bool
	// pending lists lines with a flush or NT store awaiting a fence
	// (may contain duplicates; transitions are idempotent).
	pending []mem.Line
	// pendingWork counts flushes/NT stores since the last fence; a fence
	// finding zero is a FenceNoWork.
	pendingWork int
}

// vkey aggregates violations per (class, thread, line).
type vkey struct {
	class Class
	tid   uint16
	line  mem.Line
}

// Sanitizer runs the durability-ordering state machine over one trace.
// It is not safe for concurrent use; feed it events in trace order via
// Observe and call Finish exactly once.
type Sanitizer struct {
	meta     trace.Meta
	threads  trace.TIDTable[threadState]
	viol     map[vkey]*Violation
	events   uint64
	fences   uint64
	flushes  uint64
	finished bool
}

// New returns a Sanitizer for a trace with the given metadata (used
// only for report labeling).
func New(meta trace.Meta) *Sanitizer {
	return &Sanitizer{meta: meta, viol: make(map[vkey]*Violation)}
}

func (s *Sanitizer) record(c Class, tid uint16, l mem.Line, at mem.Time) {
	k := vkey{class: c, tid: tid, line: l}
	v := s.viol[k]
	if v == nil {
		v = &Violation{Class: c, TID: tid, Line: l, First: at}
		s.viol[k] = v
	}
	v.Count++
}

// Observe feeds one event to the state machine.
func (s *Sanitizer) Observe(e trace.Event) {
	s.events++
	switch e.Kind {
	case trace.KStore:
		s.store(e, false)
	case trace.KStoreNT:
		s.store(e, true)
	case trace.KFlush:
		s.flushes++
		s.flush(e)
	case trace.KFence:
		s.fences++
		s.fence(e)
	case trace.KTxBegin:
		t := s.threads.Get(e.TID)
		t.txOpen = true
	case trace.KTxEnd:
		s.txEnd(e)
	case trace.KCrash:
		s.crash()
	case trace.KReleased:
		panic("pmsan: an event read after its chunk was released")
	}
	// Loads, vloads/vstores, and userdata records don't move the
	// durability state machine.
}

func (s *Sanitizer) store(e trace.Event, nt bool) {
	t := s.threads.Get(e.TID)
	touchedPM := false
	for ln, n := e.Lines(); n > 0; ln, n = ln+1, n-1 {
		if !mem.LineIsPM(ln) {
			continue
		}
		touchedPM = true
		ls := t.lines.Get(ln)
		if nt {
			// An NT store over still-dirty cacheable data leaves the
			// line needing flush+fence, which dominates fence-only.
			if ls.st != stDirty {
				ls.st = stNTPending
			}
		} else {
			ls.st = stDirty
		}
		ls.flushedSinceStore = false
		if t.txOpen && !ls.inTx {
			ls.inTx = true
			t.txLines = append(t.txLines, ln)
		}
		if nt {
			t.pending = append(t.pending, ln)
		}
	}
	if nt && touchedPM {
		t.pendingWork++
	}
}

func (s *Sanitizer) flush(e trace.Event) {
	t := s.threads.Get(e.TID)
	touchedPM := false
	for ln, n := e.Lines(); n > 0; ln, n = ln+1, n-1 {
		if !mem.LineIsPM(ln) {
			continue
		}
		touchedPM = true
		ls := t.lines.Get(ln)
		if ls.flushedSinceStore {
			s.record(RedundantFlush, e.TID, ln, e.Time)
		}
		ls.flushedSinceStore = true
		if ls.st == stDirty {
			ls.st = stFlushed
		}
		t.pending = append(t.pending, ln)
	}
	if touchedPM {
		t.pendingWork++
	}
}

func (s *Sanitizer) fence(e trace.Event) {
	t := s.threads.Get(e.TID)
	if t.pendingWork == 0 {
		s.record(FenceNoWork, e.TID, 0, e.Time)
	}
	t.pendingWork = 0
	for _, ln := range t.pending {
		if ls := t.lines.Get(ln); ls.st == stFlushed || ls.st == stNTPending {
			ls.st = stClean
		}
	}
	t.pending = t.pending[:0]
}

func (s *Sanitizer) txEnd(e trace.Event) {
	t := s.threads.Get(e.TID)
	for _, ln := range t.txLines {
		ls := t.lines.Get(ln)
		ls.inTx = false
		switch ls.st {
		case stDirty:
			s.record(DirtyAtCommit, e.TID, ln, e.Time)
		case stFlushed:
			s.record(UnfencedFlush, e.TID, ln, e.Time)
		case stNTPending:
			s.record(UnfencedNTStore, e.TID, ln, e.Time)
		}
	}
	t.txLines = t.txLines[:0]
	t.txOpen = false
}

// crash resets every thread's durability state: a power failure empties
// all CPU caches (nothing stays dirty — it is simply lost) and abandons
// all open transactions, so carrying pre-crash state into the recovery
// path would report ordering errors no hardware can observe.
func (s *Sanitizer) crash() {
	s.threads = trace.TIDTable[threadState]{}
}

// Finish seals the sanitizer and returns its report. It also publishes
// the per-class obs counters (pmsan_violations_total{app,class}); calling
// it more than once returns the same report without re-publishing.
func (s *Sanitizer) Finish() *Report {
	r := newReport(s.meta, s.events, s.viol)
	r.Fences, r.Flushes = s.fences, s.flushes
	if !s.finished {
		s.finished = true
		for _, c := range r.classTotals() {
			if c.hits > 0 {
				obs.Default().Counter("pmsan_violations_total", obs.Labels{
					"app":   s.meta.App,
					"class": c.class.String(),
				}).Add(c.hits)
			}
		}
	}
	return r
}

// Run drains an event source through a fresh Sanitizer and returns the
// report.
func Run(src trace.EventSource) (*Report, error) {
	s := New(src.Meta())
	for {
		chunk, err := src.NextChunk()
		if err == io.EOF {
			return s.Finish(), nil
		}
		if err != nil {
			return nil, err
		}
		for _, e := range chunk {
			s.Observe(e)
		}
	}
}
