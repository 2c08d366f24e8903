// Package trace records persistent-memory activity. It is the Go
// counterpart of the paper's PM_* macro instrumentation (Figure 2): every
// store, flush, fence and transaction boundary an application performs is
// appended to a Trace, stamped with the simulated global clock, and later
// consumed by the epoch analysis (internal/epoch), the cache simulation
// (internal/cachesim) and the HOPS timing replay (internal/hops).
package trace

import (
	"fmt"
	"io"
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
	// KVLoad is a volatile (DRAM) load. persist aggregates volatile
	// traffic into Trace.VolatileLoads/VolatileStores and records no such
	// event, but the format and every consumer accept one.
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

// Charge is the cycles the recording machine charges an event of kind k:
// what persist.Thread advances the clock by for the instruction before it
// stamps the event, and so what the HOPS replay takes off the gap ending at
// the event to recover the application's compute. pendingFlushes matters
// to a KFence alone: the distinct lines the thread CLWB'd since its
// previous fence, whose drain the fence stalls for. They drain
// concurrently through the memory controllers, so each line past the
// first adds a modest serialization tail. Every other kind is free.
func Charge(k Kind, pendingFlushes int) mem.Cycles {
	switch k {
	case KStore:
		return mem.StoreCycles
	case KStoreNT:
		return mem.StoreCycles + 1
	case KLoad:
		return mem.L1Cycles
	case KFlush:
		return 2 // clwb issue
	case KFence:
		if pendingFlushes > 1 {
			return mem.PMCycles + mem.Cycles(pendingFlushes-1)*(mem.PMCycles/8)
		}
		return mem.PMCycles
	}
	return 0
}

// Event is one trace record. Addr/Size are meaningful for memory events;
// for KFence, KTxBegin and KTxEnd they are zero. For KUserData, Size holds
// the payload byte count. It is 24 bytes, but only the open block of a
// trace and the chunks in flight to its readers hold events as Events: a
// retained trace holds them packed (pack.go).
type Event struct {
	Time mem.Time
	Addr mem.Addr
	Size uint32
	TID  uint16
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

// firstChunkEvents sizes a trace's first open block, which doubles up to
// its limit, so a litmus-sized trace holds a few hundred bytes.
const firstChunkEvents = 16

// arenaBytes sizes the arenas sealed payloads are carved from once a trace
// has sealed that much. A payload of one block is about 30 KiB: allocated
// on its own it would take a 32 KiB size class, a tenth more than its
// bytes, while an arena wastes less than a payload at its end.
const arenaBytes = 1 << 20

// Trace is an in-memory sequence of events plus run metadata. A recorded
// trace is held the way a file holds it: sealed blocks of
// DefaultBlockEvents events, each packed into its v2 payload, then one open
// block of at most DefaultBlockEvents events that Append writes into.
// Recording costs a bounds check and a store per event and, once a block,
// packing the block, which under a tail Collect does on a reader's
// goroutine instead (tail.go); a retained recording costs what its file
// does, about 7 bytes an event. A decoded trace keeps the events Decode
// unpacked, ahead of anything appended to it since. Every reader goes
// through a SliceSource.
type Trace struct {
	App     string // application name ("echo", "ycsb", ...)
	Layer   string // access layer ("native", "mnemosyne", "nvml", "pmfs")
	Threads int    // number of logical client threads

	// decoded holds the blocks Decode read, unpacked: Decode has checked
	// every event, and its readers read every event again, so unpacking
	// them once is cheaper than keeping their payloads. No one writes to
	// them once decoded.
	decoded [][]Event
	sealed  blockStore
	// open holds the events after the sealed ones. Append seals it when
	// it is full at DefaultBlockEvents; a smaller full one moves to a
	// buffer twice its size. Under a tail it is the chunk the recorder
	// hands over next (tail.go), and never sealed here.
	open []Event
	n    int

	// tail, when set, is handed the open block each time it fills, and
	// sealed stays empty (tail.go).
	tail *Tail

	// VolatileLoads/VolatileStores count the DRAM loads and stores the
	// recorder charged (persist.Thread.VLoad/VStore). They are the only
	// record of volatile traffic: no recorder emits KVLoad/KVStore events.
	VolatileLoads  uint64
	VolatileStores uint64
}

// blockStore holds sealed blocks: each the v2 payload of DefaultBlockEvents
// events. The first arenaBytes of them are allocated one by one, so a
// short trace holds no empty arena, and the rest are carved from arenas,
// so a long one costs its bytes. A payload never changes once kept, and a
// later one is carved past it, so a copy of blocks stays valid while the
// store grows.
type blockStore struct {
	blocks  [][]byte
	arena   []byte
	inArena int    // index of the first block carved from arena
	carved  int    // bytes kept so far
	scratch []byte // seal's pack buffer
}

// seal packs a full block and keeps its payload.
func (s *blockStore) seal(block []Event) {
	s.scratch = pack(s.scratch[:0], block)
	s.keep(s.scratch)
}

// keep carves a copy of the payload p, which must be a full block's.
func (s *blockStore) keep(p []byte) {
	if cap(s.arena)-len(s.arena) < len(p) {
		size := len(p)
		if s.carved >= arenaBytes {
			size = arenaBytes
		}
		s.arena = make([]byte, 0, size)
		s.inArena = len(s.blocks)
	}
	at := len(s.arena)
	s.arena = append(s.arena, p...)
	s.blocks = append(s.blocks, s.arena[at:len(s.arena):len(s.arena)])
	s.carved += len(p)
}

// trim moves the blocks carved from the last arena into an allocation of
// their size, so a store that is done growing holds no arena's empty end,
// and drops the pack buffer. The bytes are the same, so a copy of blocks
// still reads them.
func (s *blockStore) trim() {
	if len(s.arena) < cap(s.arena) {
		exact := slices.Clone(s.arena)
		for i, at := s.inArena, 0; i < len(s.blocks); i++ {
			end := at + len(s.blocks[i])
			s.blocks[i] = exact[at:end:end]
			at = end
		}
		s.arena = exact[:len(exact):len(exact)]
	}
	s.scratch = nil
}

// Append adds an event, which must be of a known Kind: a sealed block
// holding any other fails to unpack.
func (t *Trace) Append(e Event) {
	if len(t.open) == cap(t.open) {
		t.openChunk()
	}
	t.open = append(t.open, e)
	t.n++
}

// openChunk makes room in the full open block. Short of DefaultBlockEvents
// it moves to a buffer twice its size. A full block is sealed: packed into
// the trace's sealed blocks and reused or, under a tail, handed to the
// tail's reader, the next block being a buffer the reader has released
// when there is one (tail.go).
func (t *Trace) openChunk() {
	switch n := len(t.open); {
	case n == 0:
		t.open = make([]Event, 0, firstChunkEvents)
	case n < DefaultBlockEvents:
		grown := make([]Event, n, min(2*n, DefaultBlockEvents))
		copy(grown, t.open)
		t.open = grown
	case t.tail == nil:
		t.sealed.seal(t.open)
		t.open = t.open[:0]
	default:
		t.tail.ch <- t.open
		select {
		case buf := <-t.tail.free:
			t.open = buf[:0]
		default:
			t.open = make([]Event, 0, DefaultBlockEvents)
		}
	}
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return t.n }

// Snapshot returns a trace holding t's events so far, for a reader while
// another goroutine records on into t: the decoded and sealed blocks are
// shared, as they never change, and the open ones copied. The caller must
// hold off t's recorder while it runs.
func (t *Trace) Snapshot() *Trace {
	s := &Trace{App: t.App, Layer: t.Layer, Threads: t.Threads, n: t.n,
		VolatileLoads: t.VolatileLoads, VolatileStores: t.VolatileStores}
	s.decoded = slices.Clip(t.decoded)
	s.sealed.blocks = slices.Clip(t.sealed.blocks)
	s.open = slices.Clone(t.open)
	return s
}

// Events returns a copy of t's events in one slice, at 24 bytes an event:
// for tests and small traces. It panics if a sealed block fails to unpack,
// which only an Append of an unknown Kind can make happen.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, t.n)
	for src := NewSliceSource(t); ; {
		c, err := src.NextChunk()
		if err == io.EOF {
			return out
		}
		if err != nil {
			panic(err)
		}
		out = append(out, c...)
	}
}

// Collect drains src into a packed trace, sealing each whole block as it
// arrives; at io.EOF it takes src's volatile counters and trims the last
// arena. It keeps no chunk, so it may read a Fanout branch.
func Collect(src EventSource) (*Trace, error) {
	m := src.Meta()
	t := &Trace{App: m.App, Layer: m.Layer, Threads: m.Threads}
	for {
		c, err := src.NextChunk()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(t.open) == 0 && len(c) == DefaultBlockEvents {
			t.sealed.seal(c)
			t.n += len(c)
			continue
		}
		for _, e := range c {
			t.Append(e)
		}
	}
	t.sealed.trim()
	t.VolatileLoads, t.VolatileStores = src.Volatile()
	return t, nil
}
