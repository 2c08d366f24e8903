package kvservice

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// Per-shard durable layout: a superblock publishing a log head, and a
// slot table mapping logical segment numbers to physical segment bases.
//
//	superblock   +0  head   u64  — bytes of log that are durably published
//	             +8  nslots u64  — slot-table entries in use (high-water)
//	             +16 slots, 16 bytes each: [base u64][seqno u64]
//	segment      append-only records, padded at the tail
//	record       [klen u32][vlen u32][key][value]
//	tombstone    [klen u32][tombMarker ][key]            (vlen slot)
//
// Log offsets are logical and grow forever; offset→address goes through
// the slot table (seq = off/segBytes). A slot whose base is zero is free.
// Physical bases of retired segments move to a volatile free-list that
// ensureSeg reuses, so steady-state space stays bounded instead of growing
// one segment per segment's worth of dead records.
//
// The head is the commit point. A batch appends records (and possibly new
// slot entries), makes them durable under one group-commit fence, and only
// then publishes the new head with its own store+flush+fence. Recovery
// trusts nothing past the durable head, so a crash between the two fences
// loses the batch cleanly instead of exposing torn records.
//
// Compaction rides that commit instead of owning one. A pass drains one
// sealed victim segment by copying its live records (and the tombstones
// that still shadow something) to the head, but it does so a step at a
// time: compactStep runs inside a batch, before the batch's commit, and
// copies no more bytes than the batch appended itself, so the copies are
// flushed by the batch's group fence and published by the batch's head
// store. The pass costs no fence of its own until the victim is drained;
// then, after the commit that published its last copy, finishPass zeroes
// the victim's slot base with one flush+fence. Pacing by appended bytes
// keeps reclaim level with the writes that make the garbage: a victim at
// or under compactFrac of a segment is drained by no more appended bytes
// than retiring it frees. The step's walk is bounded the same way (see
// scanPerCopy), so its time under the shard lock scales with the batch
// that carries it, never with how dead the victim is.
//
// Crash ordering: at every event the durable image is the old layout plus
// a published prefix of the pass's copies. A copy sits at a higher offset
// than its original and carried the key's newest record when it was made,
// so replaying both in log order lands on the copy, and anything written
// to the key afterwards lies higher still. The retire stays strictly
// behind the publish that makes it safe; a crash that loses the zeroing
// store leaves the victim mapped and shadowed. The pass's position
// {victim, cursor} is volatile on purpose: recovery rebuilds the key and
// segment tables from the scan — originals whose copies were published
// count as dead — and the next step simply picks a fresh victim, so
// nothing about a half-finished pass has to be durable or trusted. A slot
// entry's two words share a cache line but are two stores, and the line
// can reach PM between them: ensureSeg writes the segment number before
// the base, so the half-written entry still reads as a free slot.
const (
	defaultSegBytes = 1 << 20
	maxSegs         = 512
	recHeader       = 8
	superHeadOff    = 0
	superNSlotsOff  = 8
	superSlotTable  = 16
	slotBytes       = 16
	superBytes      = superSlotTable + slotBytes*maxSegs

	// padMarker in a record's klen slot means "rest of this segment is
	// padding"; tails shorter than the marker itself are implicit padding.
	padMarker = ^uint32(0)
	// tombMarker in a record's vlen slot marks a tombstone: the key was
	// deleted, and the record carries no value bytes.
	tombMarker = ^uint32(0)

	// scanPerCopy is how many victim bytes a compaction step may examine
	// per byte of quota. Dead records cost loads too, so the walk needs a
	// bound of its own. Reclaim keeps level with the appends only from 2
	// up (1/(1-compactFrac): a victim drained over 1/k of a
	// segment of appends plus its copies, under half a segment, must not
	// outgrow the segment its retirement frees), and records keep dying
	// while a pass is in flight, so the typical walk already runs past 2×
	// its copies. At 4 the bound leaves such a pass alone and only the
	// nearly-dead victim feels it: that one drains over a quarter segment
	// of appends instead of under one batch.
	scanPerCopy = 4
)

// keyState is a key's entry in the key table. The key's newest record is
// located by its logical log offset — the device address is derived
// through the slot table on demand, so a compaction that moves the record
// only has to update the offset.
type keyState struct {
	off  uint64 // log offset of the key's newest record; noRec if none is
	vlen uint32 // that record's vlen slot: tombMarker for a tombstone
	// recs counts the records bearing the key that will still be mapped
	// once the pass in flight retires its victim: the records the cursor
	// has passed are already counted out, a copy stands in for its
	// original. A key is in the table exactly while recs is positive.
	recs int32
}

// noRec is the offset of a key with mapped records but no current one: a
// pass dropped its sole tombstone, then was abandoned, so the tombstone
// and the records it shadowed are mapped again but shadow nothing (see
// abandonPass). Such a key reads as deleted.
const noRec = math.MaxUint64

// segment is a mapped log segment: its number, its slot-table entry, its
// physical base and the bytes of its records that are current (values
// and tombstones).
type segment struct {
	seq  uint64
	slot int
	base mem.Addr
	live int64
}

// store is one shard's durable log plus its volatile key and segment
// tables. All methods run on the shard's single persist.Thread; the
// service layer serializes access with the shard lock.
type store struct {
	th       *persist.Thread
	group    *persist.Group
	super    mem.Addr
	segBytes int
	head     uint64 // volatile head: includes appends not yet published

	segs      map[uint64]*segment // seq -> mapped segment
	slots     []*segment          // per slot, nil = free; len is the high-water mark
	freeSlots []int               // zeroed slots available for reuse
	freeBases []mem.Addr          // retired physical segments available for reuse

	keys map[string]keyState

	// liveBytes is the sum of the mapped segments' live bytes, kept by
	// addLive beside every change to one.
	liveBytes int64

	pass        pass
	scratch     []byte // compactStep's record buffer
	rec         []byte // appendRec's record image; th.Store copies it into the device
	compactions uint64 // compaction passes completed (victims retired)
	copiedBytes uint64 // record bytes copied forward by compaction
}

// pass is the compactor's position between two steps: the sealed segment
// being drained and the log offset of the next record to examine. It is
// volatile (see the crash-ordering note above).
type pass struct {
	active bool
	victim uint64
	cursor uint64
}

// emptyStore builds the volatile half of a store; keys sizes the key
// table (a capacity, not a claim about contents).
func emptyStore(th *persist.Thread, super mem.Addr, segBytes, keys int) *store {
	return &store{
		th:       th,
		group:    persist.NewGroup(th),
		super:    super,
		segBytes: segBytes,
		segs:     make(map[uint64]*segment),
		keys:     make(map[string]keyState, keys),
	}
}

// newStore formats a fresh shard: maps the superblock and first segment
// and persists the empty-log superblock in its own transaction.
func newStore(th *persist.Thread, segBytes int) *store {
	rt := th.Runtime()
	s := emptyStore(th, rt.Dev.Map(superBytes), segBytes, 0)
	seg0 := rt.Dev.Map(segBytes)
	s.slots = []*segment{{base: seg0}}
	s.segs[0] = s.slots[0]
	th.TxBegin()
	th.StoreU64(s.super+superHeadOff, 0)
	th.StoreU64(s.super+superNSlotsOff, 1)
	th.StoreU64(s.super+superSlotTable, uint64(seg0))
	th.StoreU64(s.super+superSlotTable+8, 0)
	th.FlushFence(s.super, superSlotTable+slotBytes)
	th.TxEnd()
	return s
}

// openStore recovers a shard from its durable superblock after a crash:
// it rebuilds the volatile key and segment tables by scanning the mapped
// segments up to the published head, and returns the store with the
// number of records it scanned. Records appended but never head-published
// are dead space the next append overwrites. Slots whose segment lies
// entirely past the head (allocated by a batch whose head publish never
// landed) are adopted as mapped-but-empty, so a re-run of the batch reuses
// them instead of claiming a second slot for the same segment number.
// Lengths inside the published head are validated against their segment's
// remainder — a corrupt klen/vlen fails recovery loudly instead of
// silently aliasing into a neighboring segment — and so does a mapped slot
// whose segment is not inside the device's mapped persistent range, or
// whose segment number puts log offsets past 2^64. keys is how many keys
// to size the key table for (what the shard held before the crash, 0 for
// a cold open): recovery still takes every key from the scan, it only
// stops growing the table from empty.
//
// The scan takes each segment in two passes. The first walks the
// segment's records in log order — every device load, every charge and
// every length check — and appends each key's bytes to one buffer and
// (offset, vlen, key end) to a record list. The second converts the buffer
// into one string and applies the records, in log order, to the key and
// segment tables, each key a slice of that string. The device walk runs
// apart from the key-table probes, which would evict its pages from the
// cache, and a segment's keys cost one allocation. Both buffers are reused
// from segment to segment and die with the scan, so the transient memory
// is one segment's worth. A segment's key string stays alive while any key
// recovered from it is still in the table; a put, a compaction copy or a
// delete of that key stores a new key string in the map, so what the
// strings retain never exceeds the recovered key bytes.
func openStore(th *persist.Thread, super mem.Addr, segBytes, keys int) (*store, int, error) {
	s := emptyStore(th, super, segBytes, keys)
	s.head = th.LoadU64(super + superHeadOff)
	n := th.LoadU64(super + superNSlotsOff)
	if n > maxSegs {
		return nil, 0, fmt.Errorf("kvservice: corrupt superblock: %d slots exceeds table size %d", n, maxSegs)
	}
	s.slots = make([]*segment, n)
	sb := uint64(segBytes)
	mapped := th.Runtime().Dev.Mapped()
	for i := range s.slots {
		a := super + superSlotTable + mem.Addr(slotBytes*i)
		base := mem.Addr(th.LoadU64(a))
		seq := th.LoadU64(a + 8)
		if base == 0 {
			s.freeSlots = append(s.freeSlots, i)
			continue
		}
		// The scan loads [base, base+segBytes) and computes log offsets up to
		// (seq+1)*segBytes: a base outside the device's mapped persistent
		// range would panic the load or read unwritten memory as a segment,
		// and an offset that wraps would alias the start of the log.
		if end := base + mem.Addr(sb); !mem.IsPM(base) || end < base || end > mapped {
			return nil, 0, fmt.Errorf("kvservice: corrupt slot table: slot %d maps segment %d at %v, outside the mapped range [%v, %v)", i, seq, base, mem.PMBase, mapped)
		}
		if seq >= math.MaxUint64/sb {
			return nil, 0, fmt.Errorf("kvservice: corrupt slot table: slot %d maps segment %d, whose log offsets overflow", i, seq)
		}
		if dup, ok := s.segs[seq]; ok {
			return nil, 0, fmt.Errorf("kvservice: corrupt slot table: slots %d and %d both map segment %d", dup.slot, i, seq)
		}
		s.slots[i] = &segment{seq: seq, slot: i, base: base}
		s.segs[seq] = s.slots[i]
	}
	// A head inside a segment needs that segment mapped. A head exactly on
	// a boundary needs nothing: the segment before it may have been retired
	// by compaction, and the next append maps the one after.
	if s.head%sb != 0 {
		if _, ok := s.segs[s.head/sb]; !ok {
			return nil, 0, fmt.Errorf("kvservice: corrupt superblock: head %d lies in an unmapped segment", s.head)
		}
	}
	// Scan mapped segments below the head in log order.
	var seqs []uint64
	for seq := range s.segs {
		if seq*sb < s.head {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	type scanned struct {
		off    uint64
		vlen   uint32
		keyEnd int // the key is keyBytes[previous record's keyEnd:keyEnd]
	}
	var recs []scanned
	var keyBytes []byte
	records := 0
	for _, seq := range seqs {
		recs, keyBytes = recs[:0], keyBytes[:0]
		end := min((seq+1)*sb, s.head)
		for off := seq * sb; off < end; {
			a, rem := s.addr(off), end-off
			klen, vlen, ok := s.recAt(a, rem)
			if !ok {
				break
			}
			size := uint64(footprint(klen, vlen))
			if size > rem {
				return nil, 0, fmt.Errorf("kvservice: corrupt record at log offset %d: klen=%d vlen=%d exceeds segment remainder %d", off, klen, vlen, rem)
			}
			k := len(keyBytes)
			keyBytes = slices.Grow(keyBytes, klen)[:k+klen]
			th.LoadInto(a+recHeader, keyBytes[k:])
			th.VStore(2)
			recs = append(recs, scanned{off: off, vlen: vlen, keyEnd: k + klen})
			off += size
		}
		segKeys := string(keyBytes)
		k := 0
		for _, r := range recs {
			s.index(segKeys[k:r.keyEnd], r.off, r.vlen)
			k = r.keyEnd
		}
		records += len(recs)
	}
	return s, records, nil
}

// recAt loads the header of the record at device address a, rem bytes
// short of where the scan of its segment stops: its key length and its
// vlen slot (tombMarker for a tombstone). ok is false when the rest of the
// segment is padding: an explicit marker, or a tail too short to hold one.
func (s *store) recAt(a mem.Addr, rem uint64) (klen int, vlen uint32, ok bool) {
	if rem < recHeader {
		return 0, 0, false
	}
	k := s.th.LoadU32(a)
	if k == padMarker {
		return 0, 0, false
	}
	return int(k), s.th.LoadU32(a + 4), true
}

// addr maps a logical log offset to its device address through the slot
// table. The segment must be mapped.
func (s *store) addr(off uint64) mem.Addr {
	sb := uint64(s.segBytes)
	return s.segs[off/sb].base + mem.Addr(off%sb)
}

func (s *store) slotAddr(slot int) mem.Addr {
	return s.super + superSlotTable + mem.Addr(slotBytes*slot)
}

// errShardFull is returned when a shard's slot table is exhausted and
// compaction cannot reclaim space (everything is live).
func (s *store) errShardFull() error {
	return fmt.Errorf("kvservice: shard log full (%d segments of %d bytes, %d bytes live)", maxSegs, s.segBytes, s.liveBytes)
}

// ensureSeg maps a segment for the current head if it lacks one, reusing a
// retired slot and base when available. The slot entry rides the batch's
// group commit, which fences before the head that needs it is published.
// A full slot table is an error, not a panic: the caller degrades the one
// request instead of killing the process.
func (s *store) ensureSeg() error {
	seq := s.head / uint64(s.segBytes)
	if _, ok := s.segs[seq]; ok {
		return nil
	}
	var slot int
	switch {
	case len(s.freeSlots) > 0:
		slot = s.freeSlots[len(s.freeSlots)-1]
		s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	case len(s.slots) < maxSegs:
		slot = len(s.slots)
		s.slots = append(s.slots, nil)
		s.th.StoreU64(s.super+superNSlotsOff, uint64(len(s.slots)))
		s.group.Add(s.super+superNSlotsOff, 8)
	default:
		return s.errShardFull()
	}
	var base mem.Addr
	if n := len(s.freeBases); n > 0 {
		base = s.freeBases[n-1]
		s.freeBases = s.freeBases[:n-1]
	} else {
		base = s.th.Runtime().Dev.Map(s.segBytes)
	}
	// Segment number first, base second: the entry's line can reach PM
	// between the two stores, and a slot reads as free until its base is
	// set, so the half-written entry is a free slot — never the new base
	// under the slot's previous segment number.
	a := s.slotAddr(slot)
	s.th.StoreU64(a+8, seq)
	s.th.StoreU64(a, uint64(base))
	s.group.Add(a, slotBytes)
	s.slots[slot] = &segment{seq: seq, slot: slot, base: base}
	s.segs[seq] = s.slots[slot]
	return nil
}

// appendRec appends one record (or tombstone) at the head and returns its
// log offset. The bytes are volatile until the next commit. The record is
// built in the store's own buffer, not in val, so val may be any caller's
// slice: a value Run cuts from its shared pattern, compactStep's scratch.
func (s *store) appendRec(key string, val []byte, tomb bool) (uint64, error) {
	need := recHeader + len(key) + len(val)
	if need > s.segBytes {
		return 0, fmt.Errorf("kvservice: record of %d bytes exceeds segment size %d", need, s.segBytes)
	}
	if rem := s.segBytes - int(s.head%uint64(s.segBytes)); need > rem {
		if rem >= 4 {
			a := s.addr(s.head)
			s.th.StoreU32(a, padMarker)
			s.group.Add(a, 4)
		}
		s.head += uint64(rem)
	}
	if err := s.ensureSeg(); err != nil {
		return 0, err
	}
	off := s.head
	a := s.addr(off)
	buf := slices.Grow(s.rec[:0], need)[:need]
	s.rec = buf
	binary.LittleEndian.PutUint32(buf, uint32(len(key)))
	if tomb {
		binary.LittleEndian.PutUint32(buf[4:], tombMarker)
	} else {
		binary.LittleEndian.PutUint32(buf[4:], uint32(len(val)))
	}
	copy(buf[recHeader:], key)
	copy(buf[recHeader+len(key):], val)
	s.th.Store(a, buf)
	if !tomb {
		s.th.UserData(len(val))
	}
	s.group.Add(a, need)
	s.head += uint64(need)
	return off, nil
}

// footprint is the log bytes a record occupies, given its vlen slot: a
// tombstone carries no value bytes.
func footprint(klen int, vlen uint32) int64 {
	if vlen == tombMarker {
		vlen = 0
	}
	return int64(recHeader+klen) + int64(vlen)
}

// index applies a record to the key and segment tables: the record at
// off, the key's newest, is live in its segment, and whatever it
// supersedes — the key's previous value or tombstone — goes dead in its.
// put and del charge the probe and the store it costs; recovery charges
// them in its scan, at the record's place in the log.
func (s *store) index(key string, off uint64, vlen uint32) {
	sb := uint64(s.segBytes)
	k, ok := s.keys[key]
	s.addLive(s.segs[off/sb], footprint(len(key), vlen))
	if ok && k.off != noRec {
		s.addLive(s.segs[k.off/sb], -footprint(len(key), k.vlen))
	}
	s.keys[key] = keyState{off: off, vlen: vlen, recs: k.recs + 1}
}

// put appends one record and indexes it. The record is volatile until the
// next commit; the index is updated eagerly because it is rebuilt from
// the durable log anyway on recovery.
func (s *store) put(key string, val []byte) error {
	off, err := s.appendRec(key, val, false)
	if err != nil {
		return err
	}
	s.th.VStore(2)
	s.index(key, off, uint32(len(val)))
	return nil
}

// del appends a tombstone for key if it is currently live. Deleting an
// absent (or already deleted) key writes nothing — recovery would replay
// nothing either way.
func (s *store) del(key string) (bool, error) {
	if k, ok := s.keys[key]; !ok || k.vlen == tombMarker {
		return false, nil
	}
	off, err := s.appendRec(key, nil, true)
	if err != nil {
		return false, err
	}
	s.th.VStore(2)
	s.index(key, off, tombMarker)
	return true, nil
}

// read returns the committed value for key (records pending in the current
// batch are already visible: put indexes eagerly). The value is loaded into
// buf when it fits its capacity, so a caller that discards the bytes passes
// the same buffer again and pays no allocation; a nil buf yields a fresh
// slice the caller may keep.
func (s *store) read(key string, buf []byte) ([]byte, bool) {
	s.th.VLoad(2)
	k, ok := s.keys[key]
	if !ok || k.vlen == tombMarker {
		return nil, false
	}
	if cap(buf) < int(k.vlen) {
		buf = make([]byte, k.vlen)
	}
	buf = buf[:k.vlen]
	s.th.LoadInto(s.addr(k.off)+mem.Addr(recHeader+len(key)), buf)
	return buf, true
}

// commit publishes everything appended since the last commit: one
// coalesced flush+fence over the batch's records and slot-table growth
// (group commit), then the head store with its own flush+fence. With no
// appends it is a complete no-op — a read-only batch costs no fences.
func (s *store) commit() {
	if s.group.Pending() == 0 {
		return
	}
	s.group.Commit()
	s.th.StoreU64(s.super+superHeadOff, s.head)
	s.th.FlushFence(s.super+superHeadOff, 8)
}

// addLive changes g's live bytes, and the shard's total with them, by n.
func (s *store) addLive(g *segment, n int64) {
	g.live += n
	s.liveBytes += n
}

// logBytes is the shard's physical log footprint: mapped segments times
// segment size. Retired (free-listed) bases are reused, not counted.
func (s *store) logBytes() uint64 {
	return uint64(len(s.segs)) * uint64(s.segBytes)
}

// victim picks the compaction victim: the sealed (fully written, not
// head) mapped segment with the fewest live bytes, lowest segment number
// on ties. Slot order is scanned, so the choice is deterministic.
func (s *store) victim() (uint64, bool) {
	headSeq := s.head / uint64(s.segBytes)
	var best uint64
	bestLive := int64(-1)
	for _, g := range s.slots {
		if g == nil || g.seq >= headSeq {
			continue
		}
		if bestLive < 0 || g.live < bestLive || (g.live == bestLive && g.seq < best) {
			best, bestLive = g.seq, g.live
		}
	}
	return best, bestLive >= 0
}

// headroom is the number of slot-table entries still free to map a segment.
func (s *store) headroom() int { return maxSegs - len(s.slots) + len(s.freeSlots) }

// needsCompact reports whether the victim is worth compacting under the
// live-fraction threshold, or must be compacted because the slot table is
// nearly exhausted. Pressure compaction skips victims that are almost
// fully live — copying them forward would consume what it frees.
func (s *store) needsCompact(liveFrac float64) (uint64, bool) {
	seq, ok := s.victim()
	if !ok {
		return 0, false
	}
	l := s.segs[seq].live
	if float64(l) <= liveFrac*float64(s.segBytes) {
		return seq, true
	}
	if s.headroom() <= 2 && l <= int64(s.segBytes)*3/4 {
		return seq, true
	}
	return 0, false
}

// compactionDue reports whether a step would have work: a pass is in
// flight, or a sealed segment qualifies as a victim.
func (s *store) compactionDue(liveFrac float64) bool {
	if s.pass.active {
		return true
	}
	_, ok := s.needsCompact(liveFrac)
	return ok
}

// compactStep advances copy-forward compaction by one step inside the
// caller's batch, before the batch's commit: it resumes the pass in flight
// (or picks a victim when idle) and copies live records, and tombstones
// that still shadow an older record, from the cursor to the head until it
// has copied quota bytes or drained the victim. The copies join the
// batch's group, so the batch's commit flushes and publishes them; the
// caller runs finishPass after that commit. quota is the bytes the batch
// appended itself — a read-only batch copies nothing — except under
// slot-table pressure (headroom <= 2), which takes a whole segment.
//
// The walk is paced as well as the copies: a step examines fewer than
// scanPerCopy×quota bytes of the victim (plus the record it stops on), so
// a victim that is nearly all garbage cannot be walked end to end under
// the shard lock behind one small batch.
//
// A record the cursor passes is counted out of its key's recs as it goes
// (a copy takes its original's count), so when a tombstone comes up,
// recs == 1 says no other record of the key stays mapped once the victim
// retires and the tombstone is dropped instead of copied. One pass runs at
// a time and its victim retires before the next is picked, so nothing else
// reads recs in between.
//
// A copy that finds the shard full aborts the pass: what was copied stays
// in the group and is published, the victim stays mapped, the cursor is
// cleared, and the records it had passed are counted back into recs.
func (s *store) compactStep(liveFrac float64, quota int) error {
	if s.headroom() <= 2 {
		quota = s.segBytes
	}
	if quota <= 0 {
		return nil
	}
	sb := uint64(s.segBytes)
	if !s.pass.active {
		seq, ok := s.needsCompact(liveFrac)
		if !ok {
			return nil
		}
		s.pass = pass{active: true, victim: seq, cursor: seq * sb}
	}
	victim := s.segs[s.pass.victim]
	end := (victim.seq + 1) * sb
	off := s.pass.cursor
	// buf holds the key, then (converted to a string, the key is done with)
	// the value of the record under the cursor; it grows to the largest and
	// is kept across steps.
	buf := s.scratch
	for copied, scanned := 0, 0; off < end && copied < quota && scanned < scanPerCopy*quota; {
		a := s.addr(off)
		klen, vlen, ok := s.recAt(a, end-off)
		if !ok {
			off = end
			break
		}
		size := footprint(klen, vlen)
		tomb := vlen == tombMarker
		buf = slices.Grow(buf[:0], klen)[:klen]
		s.th.LoadInto(a+recHeader, buf)
		key := string(buf)
		k := s.keys[key]
		switch {
		case k.off != off:
			// Dead record (superseded value, stale tombstone): it leaves
			// the log when the segment retires.
			if k.recs--; k.recs == 0 {
				delete(s.keys, key)
			} else {
				s.keys[key] = k
			}
		case tomb && k.recs == 1:
			// Sole record for the key anywhere in the log: nothing left
			// to shadow, so the tombstone itself can go.
			delete(s.keys, key)
			s.addLive(victim, -size)
			s.th.VStore(2)
		default:
			n := int(size) - recHeader - klen // value bytes, none for a tombstone
			buf = slices.Grow(buf[:0], n)[:n]
			s.th.LoadInto(a+recHeader+mem.Addr(klen), buf)
			noff, err := s.appendRec(key, buf, tomb)
			if err != nil {
				s.abandonPass(off)
				return err
			}
			s.addLive(victim, -size)
			s.addLive(s.segs[noff/sb], size)
			k.off = noff
			s.keys[key] = k
			s.th.VStore(2)
			s.copiedBytes += uint64(size)
			copied += int(size)
		}
		off += uint64(size)
		scanned += int(size)
	}
	s.pass.cursor = off
	s.scratch = buf
	return nil
}

// abandonPass gives up the pass in flight with its cursor at upto: the
// victim stays mapped, so every record the cursor had passed — dead, or
// copied and now shadowed by its copy — is a mapped record again and is
// counted back into its key's recs by walking the prefix once more. (A
// tombstone the pass had dropped comes back as a stale one: it shadows
// nothing and leaves with the segment. Its key is counted back without a
// current record, at noRec.)
func (s *store) abandonPass(upto uint64) {
	sb := uint64(s.segBytes)
	var buf []byte
	for off := s.pass.victim * sb; off < upto; {
		a := s.addr(off)
		klen, vlen, _ := s.recAt(a, upto-off)
		buf = slices.Grow(buf[:0], klen)[:klen]
		s.th.LoadInto(a+recHeader, buf)
		k, ok := s.keys[string(buf)]
		if !ok {
			k = keyState{off: noRec, vlen: tombMarker}
		}
		k.recs++
		s.keys[string(buf)] = k
		off += uint64(footprint(klen, vlen))
	}
	s.pass = pass{}
}

// finishPass retires the victim once its pass has drained it. Callers run
// it after the commit that followed the draining step: every copy is then
// behind a durable head, and so is every newer record that made one of the
// victim's records dead.
func (s *store) finishPass() {
	if !s.pass.active || s.pass.cursor < (s.pass.victim+1)*uint64(s.segBytes) {
		return
	}
	s.retire(s.pass.victim)
	s.pass = pass{}
	s.compactions++
}

// retire durably frees seq's slot after its live records have been
// published at the head: the slot base is zeroed with its own flush+fence,
// and the slot and physical base move to the volatile free-lists. A crash
// that loses the zeroing store leaves the victim mapped — its records
// replay and are shadowed by the published copies at higher offsets.
func (s *store) retire(seq uint64) {
	g := s.segs[seq]
	a := s.slotAddr(g.slot)
	s.th.StoreU64(a, 0)
	s.th.FlushFence(a, 8)
	s.liveBytes -= g.live
	delete(s.segs, seq)
	s.slots[g.slot] = nil
	s.freeSlots = append(s.freeSlots, g.slot)
	s.freeBases = append(s.freeBases, g.base)
}

// drain steps compaction with whole-segment quotas, committing after each
// step, until no pass is in flight and no sealed segment qualifies: what a
// quiesced shard runs so that it is left fully compacted. Every step
// retires its victim, and a new sealed segment takes a full segment of
// head advance to form, so the mapped-segment count bounds the loop.
func (s *store) drain(liveFrac float64) error {
	for limit := len(s.segs); limit > 0 && s.compactionDue(liveFrac); limit-- {
		err := s.compactStep(liveFrac, s.segBytes)
		s.commit()
		s.finishPass() // nothing to finish after an abort: the pass is gone
		if err != nil {
			return err
		}
	}
	return nil
}
