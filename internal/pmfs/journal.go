package pmfs

import (
	"errors"
	"slices"

	"github.com/whisper-pm/whisper/internal/alloc"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// journal is the PMFS metadata undo journal. Its descriptor carries the
// UNCOMMITTED → COMMITTED → FREE state machine the paper identifies as a
// self-dependency source (§5.1: "PMFS alters the status in the log
// descriptor from UNCOMMITTED to COMMITTED after a successful commit").
//
// Entries are fixed 64-byte records:
//
//	target addr u64 | length u32 | generation u32 | old data (<= 48 B)
//
// The generation tag makes recovery immune to stale records: only entries
// whose generation matches the descriptor's are trusted, so partially
// cleared logs from earlier transactions can never be replayed. Entries
// are flushed and fenced before the in-place metadata update, fragmenting
// every metadata transaction into alternating epochs exactly as the paper
// describes for undo logging; each entry is cleared in its own epoch at
// commit (singleton epochs).
type journal struct {
	desc    mem.Addr // status u64 | generation u64 | start slot u64
	entries mem.Addr // jrnlMaxEntries * 64 bytes, used as a circular log
	gen     uint64   // volatile copy of the current generation
	next    int      // next free slot (circular) — long reuse distance, so
	// journal slots do not manufacture self-dependencies the way a
	// fixed-slot log would (real PMFS uses a circular journal too)
}

const (
	jrnlFree        = uint64(0)
	jrnlUncommitted = uint64(1)
	jrnlCommitted   = uint64(2)

	jrnlMaxEntries = 512
	jrnlEntrySize  = 64
	jrnlMaxData    = 48
)

func newJournal(rt *persist.Runtime) *journal {
	return &journal{
		desc:    rt.Dev.Map(64),
		entries: rt.Dev.Map(jrnlMaxEntries * jrnlEntrySize),
	}
}

// errJournalFull is a metadata transaction that needs more undo entries
// than the journal holds: a write of more than 254 new blocks, or an
// unlink of a file that large.
var errJournalFull = errors.New("pmfs: metadata transaction exceeds the journal")

// mdTx is one metadata transaction: a set of journaled in-place updates
// applied under the undo journal.
type mdTx struct {
	j     *journal
	th    *persist.Thread
	start int // first slot of this transaction
	n     int // entries appended
	dirty persist.Group
	// err is sticky: the first entry the journal could not hold. Every
	// write after it is dropped, and commit aborts instead.
	err error

	// What abort gives back to the volatile allocation state, which the
	// journal's undo does not reach. The free-block index's entries below
	// keep are untouched since begin, and taken holds the ones above it
	// as they were at begin, a pop having since worn them down (newest
	// last); whatever freeBlock pushed sits above keep. ino is an inode
	// taken off the free list, or 0.
	fs    *FS
	keep  int
	taken alloc.FreeWords
	ino   uint32
}

// begin opens the journal for a metadata transaction: bump the generation
// and mark the descriptor UNCOMMITTED. The descriptor flush shares the
// first entry's fence (entries are invalid without the matching
// generation, so this ordering is safe), saving an epoch per system call.
func (fs *FS) begin(th *persist.Thread) *mdTx {
	j := fs.jrnl
	j.gen++
	th.StoreU64(j.desc, jrnlUncommitted)
	th.StoreU64(j.desc+8, j.gen)
	th.StoreU64(j.desc+16, uint64(j.next))
	th.Flush(j.desc, 24)
	return &mdTx{j: j, th: th, start: j.next, dirty: *persist.NewGroup(th), fs: fs, keep: len(fs.freeBlocks)}
}

// popBlock takes a block off the free index, first keeping the index
// entry the pop wears down if it predates the transaction.
func (mt *mdTx) popBlock() (int, bool) {
	f := &mt.fs.freeBlocks
	if top := len(*f) - 1; top >= 0 && top < mt.keep {
		mt.taken = append(mt.taken, (*f)[top])
		mt.keep = top
	}
	return f.Pop()
}

func (j *journal) slotAddr(slot int) mem.Addr {
	return j.entries + mem.Addr((slot%jrnlMaxEntries)*jrnlEntrySize)
}

// write journals the old contents of [a, a+len(data)) and then updates the
// range in place with a cacheable store. The undo entry is fenced before
// the data write (undo ordering); the data flush is deferred to commit.
func (mt *mdTx) write(a mem.Addr, data []byte) {
	if len(data) > jrnlMaxData {
		// Metadata fields are small; chunk defensively.
		mt.write(a, data[:jrnlMaxData])
		mt.write(a+jrnlMaxData, data[jrnlMaxData:])
		return
	}
	if mt.err != nil {
		return
	}
	if mt.n >= jrnlMaxEntries {
		mt.err = errJournalFull
		return
	}
	th := mt.th
	entry := mt.j.slotAddr(mt.start + mt.n)
	var buf [jrnlMaxData]byte
	old := buf[:len(data)]
	th.LoadInto(a, old)
	// The old image goes in before the header. An entry is one line, and
	// a crash can persist that line mid-write: a valid target and
	// generation must never sit beside the slot's previous old image,
	// which recovery would replay into the metadata.
	th.Store(entry+16, old)
	th.StoreU64(entry, uint64(a))
	th.StoreU32(entry+8, uint32(len(data)))
	th.StoreU32(entry+12, uint32(mt.j.gen))
	th.Flush(entry, jrnlEntrySize)
	th.Fence()
	mt.n++

	th.Store(a, data)
	mt.dirty.Add(a, len(data))
}

// writeU64 journals and updates a single metadata word.
func (mt *mdTx) writeU64(a mem.Addr, v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	mt.write(a, buf[:])
}

// commit flushes the in-place metadata updates, marks the journal
// COMMITTED, clears the entries one epoch each, and frees the descriptor.
// A transaction the journal could not hold is aborted instead, and its
// error returned.
func (mt *mdTx) commit() error {
	if mt.err != nil {
		mt.abort()
		return mt.err
	}
	th := mt.th
	// One flush per distinct dirty line. Metadata words cluster: an
	// inode's size and mtime live in the same 64-byte line, so flushing
	// the raw per-write ranges re-flushes clean lines on every commit.
	mt.dirty.Commit()
	th.StoreU64(mt.j.desc, jrnlCommitted)
	th.Flush(mt.j.desc, 8)
	th.Fence()
	mt.j.clear(th, mt.start, mt.n)
	return nil
}

// clear zeroes n journal entries starting at slot start, frees the
// descriptor, and advances the circular position.
func (j *journal) clear(th *persist.Thread, start, n int) {
	for i := 0; i < n; i++ {
		e := j.slotAddr(start + i)
		th.StoreU64(e, 0)
		th.StoreU64(e+8, 0)
		th.Flush(e, 16)
		th.Fence()
	}
	th.StoreU64(j.desc, jrnlFree)
	th.Flush(j.desc, 8)
	th.Fence()
	j.next = (start + n) % jrnlMaxEntries
}

// abort undoes the applied updates from the journal (reverse order),
// frees the descriptor, and puts the free-block index and the inode free
// list back as they were at begin. Used by operations that fail mid-way.
func (mt *mdTx) abort() {
	mt.j.undo(mt.th, mt.j.gen, mt.start)
	mt.j.clear(mt.th, mt.start, mt.n)
	fs := mt.fs
	slices.Reverse(mt.taken)
	fs.freeBlocks = append(fs.freeBlocks[:mt.keep], mt.taken...)
	if mt.ino != 0 {
		fs.freeInodes = append(fs.freeInodes, mt.ino)
	}
}

// undo restores old images for the valid run of entries carrying gen,
// starting at slot start, newest first. Entries are fenced in order during
// the transaction, so a durable entry implies all earlier entries are
// durable: the valid run is exactly the set of updates that may have
// reached metadata.
func (j *journal) undo(th *persist.Thread, gen uint64, start int) {
	n := 0
	for n < jrnlMaxEntries {
		e := j.slotAddr(start + n)
		a := mem.Addr(th.LoadU64(e))
		g := th.LoadU32(e + 12)
		if a == 0 || uint64(g) != gen&0xffffffff {
			break
		}
		n++
	}
	for i := n - 1; i >= 0; i-- {
		e := j.slotAddr(start + i)
		a := mem.Addr(th.LoadU64(e))
		size := int(th.LoadU32(e + 8))
		if size == 0 || size > jrnlMaxData {
			continue
		}
		old := th.Load(e+16, size)
		th.Store(a, old)
		th.Flush(a, size)
		th.Fence()
	}
}

// recover handles the journal after a crash: an UNCOMMITTED journal is
// rolled back; a COMMITTED one only needs its entries discarded. The
// volatile generation resumes past the persisted one.
func (j *journal) recover(th *persist.Thread) {
	status := th.LoadU64(j.desc)
	gen := th.LoadU64(j.desc + 8)
	start := int(th.LoadU64(j.desc+16)) % jrnlMaxEntries
	j.gen = gen
	if status == jrnlUncommitted {
		j.undo(th, gen, start)
	}
	j.clear(th, 0, jrnlMaxEntries)
	j.next = start
}
