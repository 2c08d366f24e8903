package kvservice

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
)

// requireTablesMatchLog is the oracle for the store's two volatile tables.
// It rebuilds both from the log — every mapped segment up to the head, in
// log order, read from the durable image so the check charges nothing —
// and compares them with keys and segs:
//
//   - a key's entry is its newest record's offset and vlen slot, and recs
//     counts its records outside the pass's passed prefix (the victim's
//     offsets below the cursor); a key with no such record has no entry;
//   - a segment's live bytes are the bytes of the current records in it,
//     and the shard's running total is their sum;
//   - slots and segs name the same segments, each at its own slot.
//
// One difference is legal: a key that abandonPass counted back after the
// pass had dropped its tombstone sits at noRec with the same count, and
// that tombstone's bytes are out of its segment's live bytes.
//
// The store must be at a commit boundary (its head published), where the
// durable image holds every record below the head.
func requireTablesMatchLog(t *testing.T, st *store) {
	t.Helper()
	dev := st.th.Runtime().Dev
	if d := binary.LittleEndian.Uint64(dev.Durable(st.super+superHeadOff, 8)); d != st.head {
		t.Fatalf("tables oracle: durable head %d, volatile %d; check at a commit boundary", d, st.head)
	}
	mapped := 0
	for i, g := range st.slots {
		if g == nil {
			continue
		}
		if g.slot != i || st.segs[g.seq] != g {
			t.Fatalf("tables oracle: slot %d holds segment %d (slot %d), segs maps it to %+v", i, g.seq, g.slot, st.segs[g.seq])
		}
		mapped++
	}
	if mapped != len(st.segs) {
		t.Fatalf("tables oracle: %d segments in the slots, %d in segs", mapped, len(st.segs))
	}

	sb := uint64(st.segBytes)
	passed := func(off uint64) bool {
		return st.pass.active && off/sb == st.pass.victim && off < st.pass.cursor
	}
	newest := map[string]keyState{} // recs counted outside the passed prefix
	live := map[uint64]int64{}
	for seq := range st.segs {
		live[seq] = 0
	}
	for _, r := range durableLog(st) {
		k := newest[r.key]
		k.off, k.vlen = r.off, r.vlen
		if !passed(r.off) {
			k.recs++
		}
		newest[r.key] = k
	}

	entries := 0
	for key, want := range newest {
		got, ok := st.keys[key]
		if want.recs == 0 {
			// Every record of the key lies in the passed prefix: the newest
			// was its sole tombstone, which the pass dropped.
			if ok || want.vlen != tombMarker {
				t.Fatalf("tables oracle: key %q has no record outside the passed prefix, newest at %d (vlen %#x), table entry %+v (present %v)", key, want.off, want.vlen, got, ok)
			}
			continue
		}
		entries++
		if passed(want.off) {
			t.Fatalf("tables oracle: key %q's newest record at %d lies in the passed prefix, yet %d of its records stay mapped", key, want.off, want.recs)
		}
		if got.off == noRec && want.vlen == tombMarker {
			want.off = noRec // the legal difference: a dropped tombstone counted back
		} else {
			live[want.off/sb] += footprint(len(key), want.vlen)
		}
		if !ok || got != want {
			t.Fatalf("tables oracle: key %q has entry %+v (present %v), the log says %+v", key, got, ok, want)
		}
	}
	if len(st.keys) != entries {
		t.Fatalf("tables oracle: %d keys in the table, %d in the log", len(st.keys), entries)
	}
	var total int64
	for seq, want := range live {
		if got := st.segs[seq].live; got != want {
			t.Fatalf("tables oracle: segment %d has %d live bytes, its current records hold %d", seq, got, want)
		}
		total += want
	}
	if st.liveBytes != total {
		t.Fatalf("tables oracle: the shard's running total is %d live bytes, its segments hold %d", st.liveBytes, total)
	}
}

// logRec is one record of a store's durable log.
type logRec struct {
	off  uint64
	key  string
	vlen uint32
}

// durableLog reads st's records below the published head, in log order,
// from the durable image, so reading charges nothing. st must be at a
// commit boundary with an intact log.
func durableLog(st *store) []logRec {
	dev := st.th.Runtime().Dev
	sb := uint64(st.segBytes)
	var seqs []uint64
	for seq := range st.segs {
		if seq*sb < st.head {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	var out []logRec
	for _, seq := range seqs {
		img := dev.Durable(st.segs[seq].base, st.segBytes)
		end := min(sb, st.head-seq*sb)
		for o := uint64(0); o+recHeader <= end; {
			klen := binary.LittleEndian.Uint32(img[o:])
			if klen == padMarker {
				break
			}
			vlen := binary.LittleEndian.Uint32(img[o+4:])
			out = append(out, logRec{off: seq*sb + o, key: string(img[o+recHeader : o+recHeader+uint64(klen)]), vlen: vlen})
			o += uint64(footprint(int(klen), vlen))
		}
	}
	return out
}

// TestAbandonAfterDroppedTombstone builds the one state the oracle forgives:
// a pass drops a tombstone that shadows nothing, then finds the shard full
// on its next copy and is abandoned. The victim stays mapped, so the
// tombstone is back in the log with no current record for its key; the key
// must read as deleted, a fresh put of it must land cleanly, and recovery
// must agree.
func TestAbandonAfterDroppedTombstone(t *testing.T) {
	rt := persist.NewRuntime("abandon-dropped-tomb", "native", 1, persist.Config{})
	th := rt.Thread(0)
	const seg = 256
	s := newStore(th, seg)
	put := func(k, v string) {
		t.Helper()
		if err := s.put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	th.TxBegin()
	// 16-byte records (8-byte keys, empty values): segment 0 holds the
	// key's put and 15 others, its tombstone opens segment 1 and a live
	// record follows it.
	put("doomed00", "")
	for i := 0; i < 15; i++ {
		put(fmt.Sprintf("fill%04d", i), "")
	}
	if _, err := s.del("doomed00"); err != nil {
		t.Fatal(err)
	}
	put("after000", "")
	s.commit()
	// Retiring segment 0 kills the put: the tombstone is the key's sole
	// record. Then fill the head segment to its end.
	compactSeg(t, s, 0)
	if k := s.keys["doomed00"]; k.off != seg || k.vlen != tombMarker || k.recs != 1 {
		t.Fatalf("set-up drifted: doomed00 is %+v, want a sole tombstone at %d", k, seg)
	}
	for s.head%seg != 0 {
		put("spacer00", "")
	}
	s.commit()
	requireTablesMatchLog(t, s)

	// No slot left for the segment the next copy needs: the pass over
	// segment 1 drops the tombstone, then fails to copy after000.
	slots, free := s.slots, s.freeSlots
	s.slots = append(slices.Clip(s.slots), make([]*segment, maxSegs-len(s.slots))...)
	s.freeSlots = nil
	s.pass = pass{active: true, victim: 1, cursor: seg}
	if err := s.compactStep(1.0, seg); err == nil || s.pass.active {
		t.Fatalf("compactStep on a full slot table: err %v, pass %+v; want the pass abandoned", err, s.pass)
	}
	s.commit()
	s.slots, s.freeSlots = slots, free
	if k := s.keys["doomed00"]; k != (keyState{off: noRec, vlen: tombMarker, recs: 1}) {
		t.Fatalf("doomed00 after the abandon: %+v, want recs 1 at noRec", k)
	}
	requireTablesMatchLog(t, s)
	if _, ok := s.read("doomed00", nil); ok {
		t.Fatal("a dropped tombstone's key reads as present after the abandon")
	}
	if wrote, err := s.del("doomed00"); wrote || err != nil {
		t.Fatalf("deleting the key again wrote %v (%v); it is already deleted", wrote, err)
	}

	put("doomed00", "back")
	s.commit()
	th.TxEnd()
	requireTablesMatchLog(t, s)
	rt.Crash(pmem.Strict, 1)
	s, _, err := openStore(th, s.super, seg, len(s.keys))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	requireTablesMatchLog(t, s)
	if got, ok := s.read("doomed00", nil); !ok || string(got) != "back" {
		t.Fatalf("doomed00 recovered as %q, %v; want the put after the abandon", got, ok)
	}
}
