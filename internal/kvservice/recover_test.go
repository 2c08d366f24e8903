package kvservice

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// recovery is one scan's outcome on a runtime of its own.
type recovery struct {
	rt      *persist.Runtime
	st      *store
	records int
	err     error
}

// recoverTwins runs openStore and referenceOpenStore on two clones of the
// crashed device dev, each in a recording runtime of its own whose clock
// starts at now, and fails t on any difference between them: the error
// text, the records scanned, the key table, every segment and slot, the
// free slots, the head, the clock, the device counters and the trace
// bytes. It returns openStore's side.
func recoverTwins(t *testing.T, dev *pmem.Device, now mem.Time, super mem.Addr, segBytes, keys int) recovery {
	t.Helper()
	var got, want recovery
	for _, side := range []struct {
		r    *recovery
		scan func(*persist.Thread, mem.Addr, int, int) (*store, int, error)
	}{{&got, openStore}, {&want, referenceOpenStore}} {
		rt := persist.NewRuntime("recover-twin", "native", 1, persist.Config{})
		rt.Reboot(dev.Clone())
		rt.Clock.Set(now)
		st, n, err := side.scan(rt.Thread(0), super, segBytes, keys)
		*side.r = recovery{rt: rt, st: st, records: n, err: err}
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("openStore returned %v, the single-pass scan %v", got.err, want.err)
	}
	if got.err == nil {
		g, w := got.st, want.st
		if got.records != want.records {
			t.Fatalf("openStore scanned %d records, the single-pass scan %d", got.records, want.records)
		}
		if !reflect.DeepEqual(g.keys, w.keys) {
			t.Fatalf("openStore recovered a different key table (%d keys, the single-pass scan %d)", len(g.keys), len(w.keys))
		}
		if !reflect.DeepEqual(g.segs, w.segs) || !reflect.DeepEqual(g.slots, w.slots) || g.liveBytes != w.liveBytes {
			t.Fatalf("openStore recovered a different segment table (%d live bytes, the single-pass scan %d)", g.liveBytes, w.liveBytes)
		}
		if !slices.Equal(g.freeSlots, w.freeSlots) || g.head != w.head {
			t.Fatalf("openStore: free slots %v, head %d; the single-pass scan %v, %d", g.freeSlots, g.head, w.freeSlots, w.head)
		}
	}
	if g, w := got.rt.Clock.Now(), want.rt.Clock.Now(); g != w {
		t.Fatalf("openStore left the clock at %d, the single-pass scan at %d", g, w)
	}
	if g, w := got.rt.Dev.Stats(), want.rt.Dev.Stats(); g != w {
		t.Fatalf("openStore: device stats %+v, the single-pass scan %+v", g, w)
	}
	var gb, wb bytes.Buffer
	if err := trace.EncodeSource(&gb, trace.NewSliceSource(got.rt.Trace)); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeSource(&wb, trace.NewSliceSource(want.rt.Trace)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("openStore's trace differs from the single-pass scan's (%d vs %d events)", got.rt.Trace.Len(), want.rt.Trace.Len())
	}
	if got.err == nil {
		requireTablesMatchLog(t, got.st)
		requireTablesMatchLog(t, want.st)
	}
	return got
}

// TestOpenStoreMatchesReference drives a store through random sequences
// of puts, overwrites, deletes, batches with their compaction steps,
// drains, passes abandoned on a full slot table and crashes — at a batch
// boundary, inside a batch, or partway through a commit — with segments
// of 512 B to 4 KiB, and recovers each crash image with both scans (see
// recoverTwins). The sequences must reach what the scan treats apart: a
// key with records in two segments, a tombstone, a key that abandonPass
// left at noRec, and a head on a segment boundary.
func TestOpenStoreMatchesReference(t *testing.T) {
	reached := map[string]int{}
	recoveries := 0
	for seed := int64(1); seed <= 48; seed++ {
		segBytes := 512 << (seed % 4)
		t.Run(fmt.Sprintf("seed=%d/seg=%d", seed, segBytes), func(t *testing.T) {
			recoveries += differentialRun(t, rand.New(rand.NewSource(seed)), segBytes, reached)
		})
	}
	t.Logf("%d recoveries; reached %v", recoveries, reached)
	for _, what := range []string{"key in two segments", "tombstone", "noRec key", "boundary head"} {
		if reached[what] == 0 {
			t.Errorf("no sequence recovered an image with a %s", what)
		}
	}
}

// differentialRun is one random sequence of TestOpenStoreMatchesReference;
// it returns how many recoveries it compared.
func differentialRun(t *testing.T, rng *rand.Rand, segBytes int, reached map[string]int) int {
	rt := persist.NewRuntime("recover-diff", "native", 1, persist.Config{})
	st := newStore(rt.Thread(0), segBytes)
	key := func() string { return fmt.Sprintf("key%02d", rng.Intn(24)) }
	frac := []float64{compactFrac, 1.0}[rng.Intn(2)]
	inBatch := false
	appended := 0
	begin := func() {
		if !inBatch {
			st.th.TxBegin()
			inBatch, appended = true, 0
		}
	}
	// commitBatch closes the batch as commitLocked does: the compaction
	// step, the commit, the retire.
	commitBatch := func() {
		if inBatch {
			st.compactStep(frac, appended) // a shard-full abort is legal
			st.commit()
			st.finishPass()
			st.th.TxEnd()
			inBatch = false
		}
	}
	// seal fills the head segment to its end, so the head lands on a
	// boundary.
	seal := func() {
		k := key()
		rem := segBytes - int(st.head%uint64(segBytes))
		if n := rem - recHeader - len(k); n >= 0 && st.put(k, make([]byte, n)) == nil {
			appended += rem
		}
	}
	recoveries := 0
	for step := 0; step < 400; step++ {
		switch p := rng.Intn(100); {
		case p < 40:
			begin()
			k := key()
			val := make([]byte, rng.Intn(min(segBytes/4, 120)))
			if st.put(k, val) == nil {
				appended += int(footprint(len(k), uint32(len(val))))
			}
		case p < 55:
			begin()
			k := key()
			if wrote, err := st.del(k); wrote && err == nil {
				appended += int(footprint(len(k), 0))
			}
		case p < 60:
			begin()
			seal()
		case p < 80:
			commitBatch()
		case p < 84:
			commitBatch()
			st.th.TxBegin()
			st.drain(frac) // a shard-full abort is legal
			st.th.TxEnd()
		case p < 88:
			// A step whose first copy finds the head segment sealed and no
			// free slot: the pass is abandoned, and a tombstone it dropped
			// on the way comes back at noRec.
			commitBatch()
			if !st.pass.active {
				break
			}
			begin()
			seal()
			slots, free := st.slots, st.freeSlots
			st.slots = append(slices.Clip(st.slots), make([]*segment, maxSegs-len(st.slots))...)
			st.freeSlots = nil
			st.compactStep(frac, segBytes)
			st.commit()
			st.th.TxEnd()
			inBatch = false
			st.slots, st.freeSlots = slots, free
		default:
			for _, k := range st.keys {
				if k.off == noRec {
					reached["noRec key"]++
					break
				}
			}
			switch rng.Intn(3) {
			case 0:
				commitBatch()
			case 1:
				// Crash partway through the batch's commit.
				if inBatch {
					rt.AbortAt(1+rng.Intn(8), nil, commitBatch)
				}
			}
			mode := []pmem.CrashMode{pmem.Strict, pmem.Adversarial}[rng.Intn(2)]
			keys := len(st.keys)
			rt.Crash(mode, rng.Int63())
			r := recoverTwins(t, rt.Dev, rt.Clock.Now(), st.super, segBytes, keys)
			if r.err != nil {
				t.Fatalf("step %d: recovery of an intact log: %v", step, r.err)
			}
			recoveries++
			rt, st, inBatch = r.rt, r.st, false
			if st.head > 0 && st.head%uint64(segBytes) == 0 {
				reached["boundary head"]++
			}
			seg := map[string]uint64{}
			for _, rec := range durableLog(st) {
				if rec.vlen == tombMarker {
					reached["tombstone"]++
				}
				if s, ok := seg[rec.key]; ok && s != rec.off/uint64(segBytes) {
					reached["key in two segments"]++
				}
				seg[rec.key] = rec.off / uint64(segBytes)
			}
		}
	}
	return recoveries
}

// fuzzFixture builds the store FuzzOpenStore corrupts, at a commit
// boundary: 512-byte segments holding puts, overwrites and tombstones, and
// a free slot left by a retired segment.
func fuzzFixture(t *testing.T) *store {
	rt := persist.NewRuntime("recover-fuzz", "native", 1, persist.Config{NoTrace: true})
	st := newStore(rt.Thread(0), 512)
	st.th.TxBegin()
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key%02d", i%12)
		if i%7 == 6 {
			if _, err := st.del(k); err != nil {
				t.Fatal(err)
			}
		} else if err := st.put(k, bytes.Repeat([]byte{byte('a' + i%26)}, 8+i%24)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			st.commit()
		}
	}
	st.commit()
	compactSeg(t, st, 0)
	st.th.TxEnd()
	return st
}

// The fuzz input is a list of corruptions, corruptionBytes each: a target,
// an index and a little-endian value.
const corruptionBytes = 10

// corruption encodes one FuzzOpenStore corruption.
func corruption(target, idx byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{target, idx}, v)
}

// FuzzOpenStore writes fuzzer-chosen words into the durable image of a
// small store — the superblock's head or slot count, a slot's base or
// segment number, a record's klen or vlen, a record's key bytes — each
// durably, the way corruptSlot does, then crashes it and recovers the
// image with openStore and the single-pass scan. They must agree on the
// error or on the tables (see recoverTwins), and neither may panic.
func FuzzOpenStore(f *testing.F) {
	// TestRecoveryRejectsCorruptLength's vlen past the segment, and
	// TestRecoveryRejectsCorruptSlotBase's slot-0 words.
	f.Add(corruption(2, 1, 2*512))
	f.Add(corruption(1, 0, 0x40))
	f.Add(corruption(1, 0, 0xffffffffffffffc0))
	f.Add(corruption(1, 0, 1<<62))
	f.Add(corruption(1, 1, 1<<55))
	f.Add(append(corruption(0, 0, 512), corruption(3, 5, 0x30303030)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzFixture(t)
		th := st.th
		recs := durableLog(st)
		for len(data) >= corruptionBytes {
			target, idx := data[0], int(data[1])
			v := binary.LittleEndian.Uint64(data[2:])
			data = data[corruptionBytes:]
			var a mem.Addr
			wide := true
			switch target % 4 {
			case 0: // head or slot count
				a = st.super + mem.Addr(8*(idx%2))
			case 1: // a slot's base or segment number
				a = st.slotAddr(idx/2%8) + mem.Addr(8*(idx%2))
			case 2: // a record's klen or vlen
				a, wide = st.addr(recs[idx/2%len(recs)].off)+mem.Addr(4*(idx%2)), false
			case 3: // the first key bytes of a record
				a, wide = st.addr(recs[idx%len(recs)].off)+recHeader, false
			}
			if wide {
				th.StoreU64(a, v)
				th.FlushFence(a, 8)
			} else {
				th.StoreU32(a, uint32(v))
				th.FlushFence(a, 4)
			}
		}
		rt := th.Runtime()
		rt.Crash(pmem.Strict, 1)
		recoverTwins(t, rt.Dev, rt.Clock.Now(), st.super, st.segBytes, len(st.keys))
	})
}

// TestRecoveryCounters: a two-shard service's kvservice_recovery_*_total
// counters sum to the simulated ns, device line loads and records its
// recoveries cost, as the test counts them from the clocks, the device
// counters and the puts and deletes it made, and a rerun repeats every
// shard's numbers exactly.
func TestRecoveryCounters(t *testing.T) {
	run := func() map[string]uint64 {
		reg := obs.NewRegistry()
		svc := New(Config{Shards: 2, Batch: 4, Metrics: reg})
		var wantNS, wantLines, wantRecords uint64
		records := 0
		for crash := int64(1); crash <= 3; crash++ {
			for i := 0; i < 300; i++ {
				k := keyName(uint64(i % 170))
				if i%9 == 8 {
					if _, ok := svc.Get(k); ok {
						records++ // a delete of a live key writes a tombstone
					}
					svc.Delete(k)
				} else {
					if err := svc.Put(k, []byte("value")); err != nil {
						t.Fatal(err)
					}
					records++
				}
			}
			svc.Flush()
			var clocks [2]mem.Time
			var loads [2]uint64
			for i := range clocks {
				clocks[i], loads[i] = svc.Runtime(i).Clock.Now(), svc.Runtime(i).Dev.Stats().Loads
			}
			if err := svc.Crash(pmem.Strict, crash); err != nil {
				t.Fatal(err)
			}
			for i := range clocks {
				wantNS += uint64(svc.Runtime(i).Clock.Now() - clocks[i])
				wantLines += svc.Runtime(i).Dev.Stats().Loads - loads[i]
			}
			// Every record written so far is mapped: the log never seals a
			// 1 MiB segment, so nothing compacts.
			wantRecords += uint64(records)
		}
		got := map[string]uint64{}
		var sums [3]uint64
		for i := 0; i < 2; i++ {
			lbl := obs.Labels{"shards": "2", "batch": "4", "shard": fmt.Sprint(i)}
			for j, name := range []string{"kvservice_recovery_ns_total", "kvservice_recovery_lines_total", "kvservice_recovery_records_total"} {
				v := reg.Counter(name, lbl).Value()
				got[obs.Key(name, lbl)] = v
				sums[j] += v
			}
		}
		if want := [3]uint64{wantNS, wantLines, wantRecords}; sums != want {
			t.Fatalf("recovery counters sum to ns, lines, records %v; the recoveries cost %v", sums, want)
		}
		if sums[0] == 0 || sums[1] == 0 || sums[2] == 0 {
			t.Fatalf("a recovery counter stayed at zero: %v", sums)
		}
		return got
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("a rerun moved the recovery counters:\n first %v\nsecond %v", first, second)
	}
}
