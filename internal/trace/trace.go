// Package trace records persistent-memory activity. It is the Go
// counterpart of the paper's PM_* macro instrumentation (Figure 2): every
// store, flush, fence and transaction boundary an application performs is
// appended to a Trace, stamped with the simulated global clock, and later
// consumed by the epoch analysis (internal/epoch), the cache simulation
// (internal/cachesim) and the HOPS timing replay (internal/hops).
package trace

import (
	"fmt"
	"slices"

	"github.com/whisper-pm/whisper/internal/mem"
)

// Kind discriminates trace events.
type Kind uint8

const (
	// KStore is a cacheable store to PM (PM_SET / PM_MEMCPY ...).
	KStore Kind = iota
	// KStoreNT is a non-temporal store to PM (PM_MOVNTI).
	KStoreNT
	// KLoad is a load from PM.
	KLoad
	// KFlush is a CLWB of one or more lines (PM_FLUSH).
	KFlush
	// KFence is an SFENCE (PM_FENCE); it ends the thread's current epoch.
	KFence
	// KTxBegin marks the start of a durable transaction.
	KTxBegin
	// KTxEnd marks the end (commit) of a durable transaction.
	KTxEnd
	// KVLoad is a volatile (DRAM) load; recorded only when the runtime is
	// configured to trace volatile traffic (Figure 6 studies).
	KVLoad
	// KVStore is a volatile (DRAM) store.
	KVStore
	// KUserData marks size bytes of the enclosing transaction's payload as
	// user data, as opposed to log/allocator/metadata bytes. The write
	// amplification analysis (§5.2) divides total PM bytes by user bytes.
	KUserData
	// KCrash marks a power failure. Every CPU cache empties and every
	// in-flight transaction is abandoned, so durability-state analyses
	// (pmsan) reset at this point; events after it are the recovery path.
	KCrash
)

var kindNames = [...]string{
	KStore: "store", KStoreNT: "store.nt", KLoad: "load", KFlush: "flush",
	KFence: "fence", KTxBegin: "tx.begin", KTxEnd: "tx.end",
	KVLoad: "vload", KVStore: "vstore", KUserData: "userdata",
	KCrash: "crash",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName maps a kind's String name ("store", "flush", "tx.end", ...)
// back to the Kind, so text front-ends (the litmus DSL in internal/pmodel)
// share one set of spellings with trace rendering.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one trace record. Addr/Size are meaningful for memory events;
// for KFence, KTxBegin and KTxEnd they are zero. For KUserData, Size holds
// the payload byte count.
type Event struct {
	Time mem.Time
	Addr mem.Addr
	Size uint32
	TID  int32
	Kind Kind
}

func (e Event) String() string {
	switch e.Kind {
	case KFence, KTxBegin, KTxEnd, KCrash:
		return fmt.Sprintf("%d t%d %s", e.Time, e.TID, e.Kind)
	default:
		return fmt.Sprintf("%d t%d %s %v+%d", e.Time, e.TID, e.Kind, e.Addr, e.Size)
	}
}

// IsPMWrite reports whether e writes persistent memory.
func (e Event) IsPMWrite() bool { return e.Kind == KStore || e.Kind == KStoreNT }

// maxChunkEvents caps one chunk of a Trace's event store (1 MiB of
// events): the slack a long trace carries is at most one part-filled
// chunk, whatever its length.
const maxChunkEvents = 1 << 15

// firstChunkEvents sizes the first chunk, so a litmus-sized trace holds a
// few hundred bytes.
const firstChunkEvents = 16

// Trace is an in-memory sequence of events plus run metadata. Events live
// in append-only chunks that never move once written: recording costs a
// bounds check and a store per event, never a re-copy of the history, and
// a chunk handed to a reader (Chunks, SliceSource.NextChunk) stays valid
// while recording continues.
type Trace struct {
	App     string // application name ("echo", "ycsb", ...)
	Layer   string // access layer ("native", "mnemosyne", "nvml", "pmfs")
	Threads int    // number of logical client threads

	// chunks holds the events in recorded order. Every chunk is non-empty;
	// Append writes only into the last one and opens a new chunk when that
	// one is full, each as large as everything before it, up to
	// maxChunkEvents. Chunks adopted whole (FromEvents, Decode's blocks)
	// are clipped to their length, so Append never writes into them.
	chunks [][]Event
	n      int

	// tail, when set, is handed every chunk as Append seals it (tail.go).
	tail *Tail

	// VolatileLoads/VolatileStores aggregate DRAM traffic when per-event
	// volatile tracing is off (the common case; see persist.Config).
	VolatileLoads  uint64
	VolatileStores uint64
}

// FromEvents returns a trace whose first chunk is events itself: the slice
// is adopted, not copied, and must not be written by the caller afterwards.
// Later Appends go to fresh chunks, never into events' spare capacity.
func FromEvents(m Meta, events []Event) *Trace {
	t := &Trace{App: m.App, Layer: m.Layer, Threads: m.Threads}
	if len(events) > 0 {
		t.chunks = [][]Event{events[:len(events):len(events)]}
		t.n = len(events)
	}
	return t
}

// Append adds an event.
func (t *Trace) Append(e Event) {
	k := len(t.chunks) - 1
	if k < 0 || len(t.chunks[k]) == cap(t.chunks[k]) {
		k = t.openChunk()
	}
	t.chunks[k] = append(t.chunks[k], e)
	t.n++
}

// openChunk seals the full last chunk — it is never written again, so a
// tail's reader may have it now — and starts the next, returning its index.
func (t *Trace) openChunk() int {
	limit := maxChunkEvents
	if tl := t.tail; tl != nil {
		if k := len(t.chunks) - 1; k >= 0 {
			tl.ch <- t.chunks[k]
		}
		if !tl.keep {
			t.chunks, limit = t.chunks[:0], droppedChunkEvents
		}
	}
	t.chunks = append(t.chunks, make([]Event, 0, min(max(t.n, firstChunkEvents), limit)))
	return len(t.chunks) - 1
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return t.n }

// Chunks returns the recorded events in order as a sequence of non-empty
// slices. Both levels are the trace's own storage: read-only for the
// caller.
func (t *Trace) Chunks() [][]Event { return t.chunks }

// Equal reports whether a and b hold the same run metadata, volatile
// counters and event sequence. Chunk boundaries are storage, not content:
// a decoded trace is chunked by the stream's blocks, a recorded one by
// Append's geometry, and the two are Equal when their events are.
func Equal(a, b *Trace) bool {
	if a.App != b.App || a.Layer != b.Layer || a.Threads != b.Threads ||
		a.VolatileLoads != b.VolatileLoads || a.VolatileStores != b.VolatileStores || a.n != b.n {
		return false
	}
	return slices.Equal(slices.Concat(a.chunks...), slices.Concat(b.chunks...))
}

// Duration returns the simulated time spanned by the trace.
func (t *Trace) Duration() mem.Time {
	if t.n == 0 {
		return 0
	}
	last := t.chunks[len(t.chunks)-1]
	return last[len(last)-1].Time - t.chunks[0][0].Time
}

// CountKind returns the number of events of kind k.
func (t *Trace) CountKind(k Kind) int {
	n := 0
	for _, c := range t.chunks {
		for _, e := range c {
			if e.Kind == k {
				n++
			}
		}
	}
	return n
}

// PMAccesses returns the number of PM loads+stores (cacheable and NTI).
func (t *Trace) PMAccesses() uint64 {
	var n uint64
	for _, c := range t.chunks {
		for _, e := range c {
			switch e.Kind {
			case KStore, KStoreNT, KLoad:
				n++
			}
		}
	}
	return n
}

// DRAMAccesses returns the number of volatile loads+stores, combining
// per-event records with the aggregate counters.
func (t *Trace) DRAMAccesses() uint64 {
	n := t.VolatileLoads + t.VolatileStores
	for _, c := range t.chunks {
		for _, e := range c {
			switch e.Kind {
			case KVLoad, KVStore:
				n++
			}
		}
	}
	return n
}

// Filter returns the events satisfying keep, in order.
func (t *Trace) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, c := range t.chunks {
		for _, e := range c {
			if keep(e) {
				out = append(out, e)
			}
		}
	}
	return out
}
