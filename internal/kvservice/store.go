package kvservice

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

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
// the slot table (seq = off/segBytes). A slot whose base is zero is free:
// compaction retires a segment by copying its live records to the head,
// publishing them, and then zeroing the slot's base with its own
// flush+fence. Physical bases move to a volatile free-list that ensureSeg
// reuses, so steady-state space stays bounded instead of growing one
// segment per segment's worth of dead records.
//
// The head is the commit point. A batch appends records (and possibly new
// slot entries), makes them durable under one group-commit fence, and only
// then publishes the new head with its own store+flush+fence. Recovery
// trusts nothing past the durable head, so a crash between the two fences
// loses the batch cleanly instead of exposing torn records. Compaction
// keeps the same discipline: copies ride a group commit and the victim's
// slot is zeroed only after the new head is durable, so a crash
// mid-compaction replays either the old layout or the new one, never a
// torn mix. Slot entries are 16 bytes on a 16-byte boundary inside a
// line-aligned superblock, so the device's line-granular crash model
// persists each {base, seqno} pair atomically.
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
)

// valRef locates a committed value by its record's logical log offset.
// The device address is derived through the slot table on demand, so a
// compaction that moves the record only has to update the offset.
type valRef struct {
	off  uint64
	vlen int
}

// store is one shard's durable log plus its volatile index. All methods
// run on the shard's single persist.Thread; the service layer serializes
// access with the shard lock.
type store struct {
	th       *persist.Thread
	group    *persist.Group
	super    mem.Addr
	segBytes int
	head     uint64 // volatile head: includes appends not yet published

	nslots    int            // slot-table high-water mark
	slotBase  []mem.Addr     // per-slot physical base; 0 = free
	slotSeq   []uint64       // per-slot segment number (valid when base != 0)
	slotOf    map[uint64]int // seq -> slot index
	freeSlots []int          // zeroed slots available for reuse
	freeBases []mem.Addr     // retired physical segments available for reuse

	index map[string]valRef
	tombs map[string]uint64 // key -> offset of its current tombstone
	nrecs map[string]int    // key -> records bearing key in mapped segments
	live  map[uint64]int64  // seq -> live record bytes (incl. tombstones)

	compactions uint64 // compaction passes completed
	copiedBytes uint64 // record bytes copied forward by compaction
	vbase       mem.Addr
}

func emptyStore(th *persist.Thread, super mem.Addr, segBytes int) *store {
	return &store{
		th:       th,
		group:    persist.NewGroup(th),
		super:    super,
		segBytes: segBytes,
		slotOf:   make(map[uint64]int),
		index:    make(map[string]valRef),
		tombs:    make(map[string]uint64),
		nrecs:    make(map[string]int),
		live:     make(map[uint64]int64),
		vbase:    th.Runtime().VMap(1 << 20),
	}
}

// newStore formats a fresh shard: maps the superblock and first segment
// and persists the empty-log superblock in its own transaction.
func newStore(th *persist.Thread, segBytes int) *store {
	rt := th.Runtime()
	s := emptyStore(th, rt.Dev.Map(superBytes), segBytes)
	seg0 := rt.Dev.Map(segBytes)
	s.nslots = 1
	s.slotBase = []mem.Addr{seg0}
	s.slotSeq = []uint64{0}
	s.slotOf[0] = 0
	s.live[0] = 0
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
// it rebuilds the volatile index by scanning the mapped segments up to the
// published head. Records appended but never head-published are dead space
// the next append overwrites. Slots whose segment lies entirely past the
// head (allocated by a batch whose head publish never landed) are adopted
// as mapped-but-empty, so a re-run of the batch reuses them instead of
// claiming a second slot for the same segment number. Lengths inside the
// published head are validated against their segment's remainder — a
// corrupt klen/vlen fails recovery loudly instead of silently aliasing
// into a neighboring segment.
func openStore(th *persist.Thread, super mem.Addr, segBytes int) (*store, error) {
	s := emptyStore(th, super, segBytes)
	s.head = th.LoadU64(super + superHeadOff)
	n := th.LoadU64(super + superNSlotsOff)
	if n > maxSegs {
		return nil, fmt.Errorf("kvservice: corrupt superblock: %d slots exceeds table size %d", n, maxSegs)
	}
	s.nslots = int(n)
	s.slotBase = make([]mem.Addr, s.nslots)
	s.slotSeq = make([]uint64, s.nslots)
	sb := uint64(segBytes)
	for i := 0; i < s.nslots; i++ {
		a := super + superSlotTable + mem.Addr(slotBytes*i)
		base := mem.Addr(th.LoadU64(a))
		seq := th.LoadU64(a + 8)
		if base == 0 {
			s.freeSlots = append(s.freeSlots, i)
			continue
		}
		if dup, ok := s.slotOf[seq]; ok {
			return nil, fmt.Errorf("kvservice: corrupt slot table: slots %d and %d both map segment %d", dup, i, seq)
		}
		s.slotBase[i] = base
		s.slotSeq[i] = seq
		s.slotOf[seq] = i
		s.live[seq] = 0
	}
	// A head inside a segment needs that segment mapped. A head exactly on
	// a boundary needs nothing: the segment before it may have been retired
	// by compaction, and the next append maps the one after.
	if s.head%sb != 0 {
		if _, ok := s.slotOf[s.head/sb]; !ok {
			return nil, fmt.Errorf("kvservice: corrupt superblock: head %d lies in an unmapped segment", s.head)
		}
	}
	// Scan mapped segments below the head in log order.
	var seqs []uint64
	for seq := range s.slotOf {
		if seq*sb < s.head {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	var buf []byte // key of the record under the cursor; grows to the longest
	for _, seq := range seqs {
		end := min((seq+1)*sb, s.head)
		for off := seq * sb; off < end; {
			rem := end - off
			if rem < recHeader {
				break // implicit tail padding
			}
			a := s.addr(off)
			klen := th.LoadU32(a)
			if klen == padMarker {
				break // explicit tail padding
			}
			vraw := th.LoadU32(a + 4)
			tomb := vraw == tombMarker
			vlen := 0
			if !tomb {
				vlen = int(vraw)
			}
			size := recHeader + uint64(klen) + uint64(vlen)
			if size > rem {
				return nil, fmt.Errorf("kvservice: corrupt record at log offset %d: klen=%d vlen=%#x exceeds segment remainder %d", off, klen, vraw, rem)
			}
			buf = slices.Grow(buf[:0], int(klen))[:klen]
			th.LoadInto(a+recHeader, buf)
			s.noteAppend(string(buf), off, vlen, tomb)
			off += size
		}
	}
	return s, nil
}

// addr maps a logical log offset to its device address through the slot
// table. The segment must be mapped.
func (s *store) addr(off uint64) mem.Addr {
	sb := uint64(s.segBytes)
	return s.slotBase[s.slotOf[off/sb]] + mem.Addr(off%sb)
}

func (s *store) slotAddr(slot int) mem.Addr {
	return s.super + superSlotTable + mem.Addr(slotBytes*slot)
}

// errShardFull is returned when a shard's slot table is exhausted and
// compaction cannot reclaim space (everything is live).
func (s *store) errShardFull() error {
	return fmt.Errorf("kvservice: shard log full (%d segments of %d bytes, %d bytes live)", maxSegs, s.segBytes, s.liveTotal())
}

// ensureSeg maps a segment for the current head if it lacks one, reusing a
// retired slot and base when available. The slot entry rides the batch's
// group commit, which fences before the head that needs it is published.
// A full slot table is an error, not a panic: the caller degrades the one
// request instead of killing the process.
func (s *store) ensureSeg() error {
	seq := s.head / uint64(s.segBytes)
	if _, ok := s.slotOf[seq]; ok {
		return nil
	}
	var slot int
	switch {
	case len(s.freeSlots) > 0:
		slot = s.freeSlots[len(s.freeSlots)-1]
		s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	case s.nslots < maxSegs:
		slot = s.nslots
		s.nslots++
		s.slotBase = append(s.slotBase, 0)
		s.slotSeq = append(s.slotSeq, 0)
		s.th.StoreU64(s.super+superNSlotsOff, uint64(s.nslots))
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
	a := s.slotAddr(slot)
	s.th.StoreU64(a, uint64(base))
	s.th.StoreU64(a+8, seq)
	s.group.Add(a, slotBytes)
	s.slotBase[slot] = base
	s.slotSeq[slot] = seq
	s.slotOf[seq] = slot
	s.live[seq] = 0
	return nil
}

// appendRec appends one record (or tombstone) at the head and returns its
// log offset. The bytes are volatile until the next commit.
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
	buf := make([]byte, need)
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

// footprint is the log bytes a record occupies.
func footprint(klen, vlen int) int64 { return int64(recHeader + klen + vlen) }

// noteAppend records the index/accounting effect of a freshly appended (or
// replayed) record: the new record is live in its segment, and whatever it
// supersedes — the key's previous value or tombstone — goes dead in its.
func (s *store) noteAppend(key string, off uint64, vlen int, tomb bool) {
	sb := uint64(s.segBytes)
	s.nrecs[key]++
	s.live[off/sb] += footprint(len(key), vlen)
	if old, ok := s.index[key]; ok {
		s.live[old.off/sb] -= footprint(len(key), old.vlen)
	} else if toff, ok := s.tombs[key]; ok {
		s.live[toff/sb] -= footprint(len(key), 0)
	}
	s.th.VStore(s.vbase, 2)
	if tomb {
		delete(s.index, key)
		s.tombs[key] = off
	} else {
		s.index[key] = valRef{off: off, vlen: vlen}
		delete(s.tombs, key)
	}
}

// put appends one record and indexes it. The record is volatile until the
// next commit; the index is updated eagerly because it is rebuilt from
// the durable log anyway on recovery.
func (s *store) put(key string, val []byte) error {
	off, err := s.appendRec(key, val, false)
	if err != nil {
		return err
	}
	s.noteAppend(key, off, len(val), false)
	return nil
}

// del appends a tombstone for key if it is currently live. Deleting an
// absent (or already deleted) key writes nothing — recovery would replay
// nothing either way.
func (s *store) del(key string) (bool, error) {
	if _, ok := s.index[key]; !ok {
		return false, nil
	}
	off, err := s.appendRec(key, nil, true)
	if err != nil {
		return false, err
	}
	s.noteAppend(key, off, 0, true)
	return true, nil
}

// read returns the committed value for key (records pending in the current
// batch are already visible: put indexes eagerly). The value is loaded into
// buf when it fits its capacity, so a caller that discards the bytes passes
// the same buffer again and pays no allocation; a nil buf yields a fresh
// slice the caller may keep.
func (s *store) read(key string, buf []byte) ([]byte, bool) {
	s.th.VLoad(s.vbase, 2)
	r, ok := s.index[key]
	if !ok {
		return nil, false
	}
	if cap(buf) < r.vlen {
		buf = make([]byte, r.vlen)
	}
	buf = buf[:r.vlen]
	s.th.LoadInto(s.addr(r.off)+mem.Addr(recHeader+len(key)), buf)
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

// liveTotal is the shard's live record bytes across mapped segments.
func (s *store) liveTotal() int64 {
	var t int64
	for _, v := range s.live {
		t += v
	}
	return t
}

// logBytes is the shard's physical log footprint: mapped segments times
// segment size. Retired (free-listed) bases are reused, not counted.
func (s *store) logBytes() uint64 {
	return uint64(len(s.slotOf)) * uint64(s.segBytes)
}

// victim picks the compaction victim: the sealed (fully written, not
// head) mapped segment with the fewest live bytes, lowest segment number
// on ties. Slot order is scanned, so the choice is deterministic.
func (s *store) victim() (uint64, bool) {
	headSeq := s.head / uint64(s.segBytes)
	var best uint64
	bestLive := int64(-1)
	for slot := 0; slot < s.nslots; slot++ {
		if s.slotBase[slot] == 0 {
			continue
		}
		seq := s.slotSeq[slot]
		if seq >= headSeq {
			continue
		}
		l := s.live[seq]
		if bestLive < 0 || l < bestLive || (l == bestLive && seq < best) {
			best, bestLive = seq, l
		}
	}
	return best, bestLive >= 0
}

// needsCompact reports whether the victim is worth compacting under the
// live-fraction threshold, or must be compacted because the slot table is
// nearly exhausted. Pressure compaction skips victims that are almost
// fully live — copying them forward would consume what it frees.
func (s *store) needsCompact(liveFrac float64) (uint64, bool) {
	seq, ok := s.victim()
	if !ok {
		return 0, false
	}
	l := s.live[seq]
	if float64(l) <= liveFrac*float64(s.segBytes) {
		return seq, true
	}
	headroom := maxSegs - s.nslots + len(s.freeSlots)
	if headroom <= 2 && l <= int64(s.segBytes)*3/4 {
		return seq, true
	}
	return 0, false
}

// compactOnce copies seq's live records (and still-needed tombstones) to
// the head, publishes them with a group commit + head publish, and then
// durably retires the slot. Crash ordering: before the head publish the
// old layout recovers untouched; between the publish and the retire both
// the originals and the copies replay, copies last (higher offsets win);
// after the retire only the copies remain. A tombstone whose key has no
// other record in any mapped segment is dropped instead of copied.
func (s *store) compactOnce(seq uint64) error {
	sb := uint64(s.segBytes)
	end := min((seq+1)*sb, s.head)
	// buf holds the key, then (converted to a string, the key is done with)
	// the value of the record under the cursor; it grows to the largest.
	var buf []byte
	for off := seq * sb; off < end; {
		rem := end - off
		if rem < recHeader {
			break
		}
		a := s.addr(off)
		klen := s.th.LoadU32(a)
		if klen == padMarker {
			break
		}
		vraw := s.th.LoadU32(a + 4)
		tomb := vraw == tombMarker
		vlen := 0
		if !tomb {
			vlen = int(vraw)
		}
		size := recHeader + uint64(klen) + uint64(vlen)
		buf = slices.Grow(buf[:0], int(klen))[:klen]
		s.th.LoadInto(a+recHeader, buf)
		key := string(buf)
		cur, isLive := s.index[key]
		switch {
		case !tomb && isLive && cur.off == off:
			buf = slices.Grow(buf[:0], vlen)[:vlen]
			s.th.LoadInto(a+recHeader+mem.Addr(klen), buf)
			noff, err := s.appendRec(key, buf, false)
			if err != nil {
				return err
			}
			s.live[seq] -= footprint(int(klen), vlen)
			s.live[noff/sb] += footprint(int(klen), vlen)
			s.index[key] = valRef{off: noff, vlen: vlen}
			s.th.VStore(s.vbase, 2)
			s.copiedBytes += size
		case tomb && s.tombs[key] == off:
			if s.nrecs[key] == 1 {
				// Sole record for the key anywhere in the log: nothing
				// left to shadow, so the tombstone itself can go.
				delete(s.tombs, key)
				delete(s.nrecs, key)
				s.live[seq] -= footprint(int(klen), 0)
				s.th.VStore(s.vbase, 2)
			} else {
				noff, err := s.appendRec(key, nil, true)
				if err != nil {
					return err
				}
				s.live[seq] -= footprint(int(klen), 0)
				s.live[noff/sb] += footprint(int(klen), 0)
				s.tombs[key] = noff
				s.th.VStore(s.vbase, 2)
			}
		default:
			// Dead record (superseded value, stale tombstone): it leaves
			// the log when the segment retires.
			s.nrecs[key]--
			if s.nrecs[key] == 0 {
				delete(s.nrecs, key)
			}
		}
		off += size
	}
	s.commit()
	s.retire(seq)
	s.compactions++
	return nil
}

// retire durably frees seq's slot after its live records have been
// published at the head: the slot base is zeroed with its own flush+fence,
// and the slot and physical base move to the volatile free-lists. A crash
// that loses the zeroing store leaves the victim mapped — its records
// replay and are shadowed by the published copies at higher offsets.
func (s *store) retire(seq uint64) {
	slot := s.slotOf[seq]
	base := s.slotBase[slot]
	a := s.slotAddr(slot)
	s.th.StoreU64(a, 0)
	s.th.FlushFence(a, 8)
	delete(s.slotOf, seq)
	delete(s.live, seq)
	s.slotBase[slot] = 0
	s.freeSlots = append(s.freeSlots, slot)
	s.freeBases = append(s.freeBases, base)
}

// compact runs copy-forward compaction until no sealed segment is at or
// below the live-fraction threshold. Each pass retires one whole segment;
// the pass count is bounded by the mapped-segment count because a new
// sealed segment takes a full segment of head advance to form while every
// pass removes one.
func (s *store) compact(liveFrac float64) error {
	if liveFrac < 0 {
		return nil
	}
	for limit := len(s.slotOf); limit > 0; limit-- {
		seq, ok := s.needsCompact(liveFrac)
		if !ok {
			return nil
		}
		if err := s.compactOnce(seq); err != nil {
			return err
		}
	}
	return nil
}
