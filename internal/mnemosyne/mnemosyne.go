// Package mnemosyne implements a Mnemosyne-style persistent heap with
// redo-log durable transactions (Volos et al., ASPLOS 2011), one of the two
// transactional access layers of WHISPER.
//
// The persistence discipline follows §3.1 of the WHISPER paper exactly:
//
//   - During a transaction every write is appended to a per-thread redo
//     log using non-temporal stores, parked in a volatile shadow, and
//     ordered by a single sfence at commit — redo logging permits batching
//     all log entries into one epoch (§5.1).
//   - At commit, the commit record is persisted (NTI + fence), the shadow
//     is applied in place with cacheable stores, the modified lines are
//     flushed, and a fence makes them durable: the paper's ~4-epoch
//     Mnemosyne transaction.
//   - Log truncation happens asynchronously after commit, clearing each
//     log entry in its own epoch — the behaviour the paper singles out as
//     a major source of singleton epochs ("Mnemosyne, NVML and PMFS
//     process or clear each log entry in its own epoch"). BatchClear
//     switches to the batched alternative the paper recommends.
//
// Allocation uses the multi-slab bitmap allocator (alloc.MultiSlab), which
// can leak blocks on a crash — Mnemosyne's documented trade-off.
package mnemosyne

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/alloc"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// Log geometry. Each record is a 16-byte header (addr, len) followed by the
// payload rounded up to 8 bytes. A zero header terminates the log.
const (
	logBytes     = 1 << 16
	recHeader    = 16
	maxRecData   = 48 // larger writes are chunked into multiple records
	stateOffset  = 0  // log state word: idle/committed
	entryOffset  = 64 // first record (own line, avoids false sharing)
	logIdle      = uint64(0)
	logCommitted = uint64(1)
)

// Options tune the library's persistence behaviour for ablation studies.
type Options struct {
	// BatchClear clears all log entries of a transaction in one epoch
	// instead of one epoch per entry (§5.1: "this could be avoided ...
	// by processing or clearing log entries in a batch").
	BatchClear bool
}

// Heap is a Mnemosyne persistent heap: a segment allocator plus per-thread
// redo logs and a small array of persistent root pointers.
type Heap struct {
	rt    *persist.Runtime
	opts  Options
	alloc *alloc.MultiSlab
	logs  []mem.Addr // one redo log region per thread
	roots mem.Addr   // 16 persistent root slots
}

// New creates a heap with blocksPerClass blocks per allocator size class.
func New(rt *persist.Runtime, blocksPerClass int, opts Options) *Heap {
	h := &Heap{
		rt:    rt,
		opts:  opts,
		alloc: alloc.NewMultiSlab(rt, blocksPerClass),
		roots: rt.Dev.Map(16 * 8),
	}
	for i := 0; i < rt.Threads(); i++ {
		h.logs = append(h.logs, rt.Dev.Map(logBytes))
	}
	return h
}

// PMalloc allocates size bytes of persistent memory (pmalloc of the paper).
// Must be called inside a transaction in application code; the allocator
// write is its own epoch either way.
func (h *Heap) PMalloc(th *persist.Thread, size int) mem.Addr {
	a := h.alloc.Alloc(th, size)
	if a == 0 {
		panic(fmt.Sprintf("mnemosyne: heap exhausted allocating %d bytes", size))
	}
	return a
}

// PFree frees a persistent allocation (pfree).
func (h *Heap) PFree(th *persist.Thread, a mem.Addr) { h.alloc.Free(th, a) }

// SetRoot durably stores a root pointer in slot (0..15).
func (h *Heap) SetRoot(th *persist.Thread, slot int, a mem.Addr) {
	th.StoreU64(h.roots+mem.Addr(slot*8), uint64(a))
	th.FlushFence(h.roots+mem.Addr(slot*8), 8)
}

// Root reads the root pointer in slot.
func (h *Heap) Root(th *persist.Thread, slot int) mem.Addr {
	return mem.Addr(th.LoadU64(h.roots + mem.Addr(slot*8)))
}

// Tx is an open durable transaction on one thread.
type Tx struct {
	h      *Heap
	th     *persist.Thread
	logPos mem.Addr // next free byte in the redo log
	// writes holds the uncommitted new values in program order; reads
	// inside the transaction overlay them newest-last, and commit applies
	// them in the same order, so overlapping writes resolve identically.
	writes []shadowWrite
	// byLine finds the writes a read must overlay without walking the whole
	// write set: for each cache line any write put a byte in, the chain
	// through links of those writes, oldest first. Reads build it, and only
	// once the write set is indexAfter long; writes[:indexed] are in it.
	byLine  map[mem.Line]lineChain
	links   []writeLink
	indexed int
}

// indexAfter is the write-set length from which a read goes through the
// line index. Below it walking the writes costs less than the index does:
// most transactions (a Memcached SET, a Vacation reservation) make a few
// writes, and the ones that make a thousand (table population) are the
// ones whose reads the walk made quadratic.
const indexAfter = 16

type shadowWrite struct {
	addr mem.Addr
	data []byte
}

// lineChain is one line's chain of writes: positions in Tx.links.
type lineChain struct{ head, tail int32 }

// writeLink is one (write, line) incidence: the write's position in
// Tx.writes and the next link of the same line's chain, -1 at its end.
type writeLink struct{ write, next int32 }

// Run executes body inside a durable transaction on th. If body returns an
// error, the transaction's writes never reach the data
// structures and the log is discarded; otherwise commit makes them durable
// atomically.
func (h *Heap) Run(th *persist.Thread, body func(*Tx) error) error {
	tx := &Tx{
		h:      h,
		th:     th,
		logPos: h.logs[th.ID()] + entryOffset,
	}
	th.TxBegin()
	err := body(tx)
	if err != nil {
		tx.abort()
		th.TxEnd()
		tx.truncateLog()
		return err
	}
	tx.commit()
	th.TxEnd()
	// Log truncation is logically asynchronous: it happens after the
	// transaction's durability point, outside the TxBegin/TxEnd bracket.
	tx.truncateLog()
	return nil
}

// Write records a transactional write of data at a. Mnemosyne detects and
// logs all updates to persistent objects within a transaction (§3.1), so
// there is no AddRange step. Each record costs one NTI epoch.
func (tx *Tx) Write(a mem.Addr, data []byte) {
	for len(data) > 0 {
		n := len(data)
		if n > maxRecData {
			n = maxRecData
		}
		tx.appendRecord(a, data[:n])
		a += mem.Addr(n)
		data = data[n:]
	}
}

// WriteU64 is Write for a little-endian uint64.
func (tx *Tx) WriteU64(a mem.Addr, v uint64) {
	var buf [8]byte
	putU64(buf[:], v)
	tx.Write(a, buf[:])
}

func (tx *Tx) appendRecord(a mem.Addr, data []byte) {
	rec := tx.logPos
	padded := (len(data) + 7) &^ 7
	// Reserve room for the commit-time zero terminator after the last record.
	if rec+mem.Addr(recHeader+padded) > tx.h.logs[tx.th.ID()]+logBytes-recHeader {
		panic("mnemosyne: redo log overflow (transaction too large)")
	}
	var hdr [recHeader]byte
	putU64(hdr[0:], uint64(a))
	putU64(hdr[8:], uint64(len(data)))
	buf := make([]byte, recHeader+padded)
	copy(buf, hdr[:])
	copy(buf[recHeader:], data)
	// Log entries are written with non-temporal stores; a single sfence
	// at commit orders the whole batch (redo logging allows this, §5.1).
	tx.th.StoreNT(rec, buf)
	tx.logPos = rec + mem.Addr(len(buf))

	// Park the new value in the volatile shadow for commit-time apply.
	cp := make([]byte, len(data))
	copy(cp, data)
	tx.writes = append(tx.writes, shadowWrite{addr: a, data: cp})
	tx.th.VStore(1)
}

// indexWrites brings the line index up to date: every write not yet in it
// is linked onto the chain of each line it touches.
func (tx *Tx) indexWrites() {
	if tx.byLine == nil {
		tx.byLine = make(map[mem.Line]lineChain)
	}
	for ; tx.indexed < len(tx.writes); tx.indexed++ {
		w := tx.writes[tx.indexed] // never empty: Write appends no empty record
		for l := mem.LineOf(w.addr); l <= mem.LineOf(w.addr+mem.Addr(len(w.data))-1); l++ {
			at := int32(len(tx.links))
			tx.links = append(tx.links, writeLink{write: int32(tx.indexed), next: -1})
			c, ok := tx.byLine[l]
			if ok {
				tx.links[c.tail].next = at
			} else {
				c.head = at
			}
			c.tail = at
			tx.byLine[l] = c
		}
	}
}

// Read returns size bytes at a as observed inside the transaction: the
// transaction's own writes take precedence over memory.
func (tx *Tx) Read(a mem.Addr, size int) []byte {
	out := make([]byte, size)
	tx.readInto(a, out)
	return out
}

// readInto is Read into the caller's buffer: one load of len(out) bytes,
// then the transaction's own writes on top, in program order, so a later
// small write to a range inside an earlier large write wins — exactly what
// commit-time application produces.
func (tx *Tx) readInto(a mem.Addr, out []byte) {
	tx.th.LoadInto(a, out)
	end := a + mem.Addr(len(out))
	if len(tx.writes) < indexAfter {
		for _, w := range tx.writes {
			w.overlay(a, out, a, end)
		}
		return
	}
	// Line by line: a byte lies in one line and that line's chain holds
	// every write to it, oldest first, so each line's part of out sees its
	// writes in program order and no other write could have touched it.
	tx.indexWrites()
	for l := mem.LineOf(a); mem.LineAddr(l) < end; l++ {
		c, ok := tx.byLine[l]
		if !ok {
			continue
		}
		lo, hi := max(a, mem.LineAddr(l)), min(end, mem.LineAddr(l+1))
		for i := c.head; i >= 0; i = tx.links[i].next {
			tx.writes[tx.links[i].write].overlay(a, out, lo, hi)
		}
	}
}

// overlay copies the part of w inside [lo, hi) over out, which holds the
// bytes at a.
func (w shadowWrite) overlay(a mem.Addr, out []byte, lo, hi mem.Addr) {
	from, to := max(lo, w.addr), min(hi, w.addr+mem.Addr(len(w.data)))
	if from < to {
		copy(out[from-a:to-a], w.data[from-w.addr:])
	}
}

// ReadU64 is Read for a little-endian uint64, without the slice.
func (tx *Tx) ReadU64(a mem.Addr) uint64 {
	var buf [8]byte
	tx.readInto(a, buf[:])
	return getU64(buf[:])
}

// Alloc allocates inside the transaction (pmalloc).
func (tx *Tx) Alloc(size int) mem.Addr { return tx.h.PMalloc(tx.th, size) }

// Free frees inside the transaction (pfree).
func (tx *Tx) Free(a mem.Addr) { tx.h.PFree(tx.th, a) }

func (tx *Tx) commit() {
	th := tx.th
	logBase := tx.h.logs[th.ID()]

	// Read-only fast path: no log records means nothing to persist — no
	// commit record, no clears. Lock-replacing transactions (Memcached
	// GETs, Vacation queries) take this path.
	if len(tx.writes) == 0 && tx.logPos == logBase+entryOffset {
		return
	}

	// Terminate the record stream with an explicit zero header. Log
	// truncation only zeroes the headers of the previous transaction at
	// *its* record boundaries, so when record sizes differ across
	// transactions the bytes at this transaction's logPos may be stale
	// payload from an earlier, longer transaction — recovery replay would
	// run past the end of the batch and apply garbage. The terminator
	// rides in the same drained epoch as the records: no extra fence.
	th.StoreNT(tx.logPos, make([]byte, recHeader))
	// Drain the batched log records (one epoch for the whole write set).
	th.Fence()
	// Persist the commit record: the atomic commit point.
	th.StoreU64NT(logBase+stateOffset, logCommitted)
	th.Fence()

	// Apply the shadow in place with cacheable stores, flush the modified
	// lines, and fence once: one epoch for all data updates.
	for _, w := range tx.writes {
		th.Store(w.addr, w.data)
		th.Flush(w.addr, len(w.data))
	}
	if len(tx.writes) > 0 {
		th.Fence()
	}
}

func (tx *Tx) abort() {
	// Without a commit record the log entries are invalid; shadow values
	// are dropped. Truncation happens in Run, after the bracket. Only
	// drain the write-combining buffers when log records were actually
	// appended: an aborted read-only transaction has nothing in flight,
	// and an unconditional sfence here orders nothing (the exact smell
	// pmsan reports as fence-without-work).
	if tx.logPos > tx.h.logs[tx.th.ID()]+entryOffset {
		tx.th.Fence() // drain the buffered NT log records
	}
}

// truncateLog resets the log state and clears the entries (asynchronous
// log truncation).
func (tx *Tx) truncateLog() {
	tx.clearLog(tx.h.logs[tx.th.ID()])
}

func (tx *Tx) clearLog(logBase mem.Addr) {
	th := tx.th
	if tx.logPos == logBase+entryOffset {
		return // nothing was logged
	}
	// Reset the state word first so a crash mid-clear is harmless (the log
	// is already invalid).
	th.StoreU64NT(logBase+stateOffset, logIdle)
	th.Fence()
	if tx.h.opts.BatchClear {
		// One epoch for the whole log tail.
		if tx.logPos > logBase+entryOffset {
			n := int(tx.logPos - (logBase + entryOffset))
			th.StoreNT(logBase+entryOffset, make([]byte, n))
			th.Fence()
		}
		return
	}
	// Per-entry clear: one epoch per record header — the paper's observed
	// singleton-epoch source.
	pos := logBase + entryOffset
	for pos < tx.logPos {
		length := th.LoadU64(pos + 8)
		th.StoreU64NT(pos, 0)
		th.StoreU64NT(pos+8, 0)
		th.Fence()
		pos += mem.Addr(recHeader + int((length+7)&^7))
	}
}

// Recover replays any committed-but-uncleared transaction logs after a
// crash, resets the logs and rebuilds the allocator's volatile indexes. It
// must be called before the heap is used again.
func (h *Heap) Recover(th *persist.Thread) {
	for _, logBase := range h.logs {
		if th.LoadU64(logBase+stateOffset) == logCommitted {
			// Replay: apply each record in order.
			pos := logBase + entryOffset
			for {
				addr := mem.Addr(th.LoadU64(pos))
				length := int(th.LoadU64(pos + 8))
				if addr == 0 && length == 0 {
					break
				}
				data := th.Load(pos+recHeader, length)
				th.Store(addr, data)
				th.Flush(addr, length)
				th.Fence()
				pos += mem.Addr(recHeader + ((length + 7) &^ 7))
			}
		}
		// Reset the log unconditionally.
		th.StoreU64NT(logBase+stateOffset, logIdle)
		th.Fence()
		h.zeroLog(th, logBase)
	}
	h.alloc.Recover(th)
}

func (h *Heap) zeroLog(th *persist.Thread, logBase mem.Addr) {
	pos := logBase + entryOffset
	for {
		addr := mem.Addr(th.LoadU64(pos))
		length := int(th.LoadU64(pos + 8))
		if addr == 0 && length == 0 {
			return
		}
		th.StoreU64NT(pos, 0)
		th.StoreU64NT(pos+8, 0)
		th.Fence()
		pos += mem.Addr(recHeader + ((length + 7) &^ 7))
	}
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
