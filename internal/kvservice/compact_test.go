package kvservice

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// churnOp is one scripted request of the deterministic delete/overwrite
// workloads the compaction tests share.
type churnOp struct {
	key string
	val string // "" = delete
}

// churnScript builds n ops cycling over a small keyspace: overwrites with
// growing values, every fifth op a delete. Small keys + small segments
// force frequent segment turnover and compaction passes.
func churnScript(n int) []churnOp {
	ops := make([]churnOp, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i%13)
		if i%5 == 4 {
			ops = append(ops, churnOp{key: k})
			continue
		}
		ops = append(ops, churnOp{key: k, val: fmt.Sprintf("v%03d-%s", i, "xxxxxxxxxxxxxxxxxxxx"[:i%20])})
	}
	return ops
}

// applyOp drives one scripted op through the service and mirrors it into
// the model map. The model is updated first: the op joins the batch
// before the commit it may trigger, so a crash unwinding out of that
// commit must find the op already in the post-batch model.
func applyOp(svc *Service, model map[string]string, op churnOp) {
	if op.val == "" {
		delete(model, op.key)
		svc.Delete(op.key)
		return
	}
	model[op.key] = op.val
	if err := svc.Put(op.key, []byte(op.val)); err != nil {
		panic("scripted put rejected: " + err.Error())
	}
}

// checkState asserts the recovered service matches exactly one of the
// candidate models and returns its index (-1 on mismatch).
func matchState(svc *Service, candidates []map[string]string) int {
	got := map[string]string{}
	for _, sh := range svc.shards {
		for k := range sh.st.index {
			v, ok := svc.Get(k)
			if !ok {
				return -1
			}
			got[k] = string(v)
		}
	}
	for i, want := range candidates {
		if len(got) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if got[k] != v {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// TestDeleteBasics covers the Delete API surface: read-your-deletes in
// the pending batch, durable absence across a crash, no-op deletes of
// absent keys, and re-insert after delete.
func TestDeleteBasics(t *testing.T) {
	svc := New(Config{Shards: 2, Batch: 4})
	svc.Put("a", []byte("1"))
	svc.Put("b", []byte("2"))
	svc.Flush()
	svc.Delete("a")
	if _, ok := svc.Get("a"); ok {
		t.Fatal("pending delete still readable")
	}
	svc.Flush()
	if _, ok := svc.Get("a"); ok {
		t.Fatal("committed delete still readable")
	}
	h0, _ := svc.LogHeads(svc.ShardFor("zzz-absent"))
	svc.Delete("zzz-absent") // absent: durable no-op
	svc.Flush()
	if d, _ := svc.LogHeads(svc.ShardFor("zzz-absent")); d != h0 {
		t.Fatalf("no-op delete moved the log head %d -> %d", h0, d)
	}
	if err := svc.Crash(pmem.Strict, 11); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if _, ok := svc.Get("a"); ok {
		t.Fatal("delete did not survive the crash")
	}
	if got, _ := svc.Get("b"); string(got) != "2" {
		t.Fatalf("unrelated key lost: %q", got)
	}
	svc.Put("a", []byte("again"))
	svc.Flush()
	if got, _ := svc.Get("a"); string(got) != "again" {
		t.Fatalf("re-insert after delete: %q", got)
	}
}

// TestCompactionBoundsSegments is the acceptance check for the tentpole:
// a sustained overwrite+delete workload whose appended bytes overflow the
// 512-slot table several times over must complete (it previously
// panicked "shard log full"), with the mapped segment count bounded and
// space amplification at or under 2x.
func TestCompactionBoundsSegments(t *testing.T) {
	const segBytes = 1 << 10
	svc := New(Config{Shards: 1, Batch: 4, SegBytes: segBytes})
	model := map[string]string{}
	var appended uint64
	for i := 0; i < 60000; i++ {
		k := fmt.Sprintf("key%02d", i%40)
		if i%7 == 6 {
			svc.Delete(k)
			delete(model, k)
			appended += recHeader + 5
			continue
		}
		v := fmt.Sprintf("val%04d-%s", i, "yyyyyyyyyyyyyyyyyyyyyyyy"[:i%24])
		if err := svc.Put(k, []byte(v)); err != nil {
			t.Fatalf("op %d rejected: %v", i, err)
		}
		model[k] = v
		appended += uint64(recHeader + len(k) + len(v))
	}
	svc.Flush()
	if appended < 3*maxSegs*segBytes {
		t.Fatalf("workload too small to overflow the slot table: %d bytes appended", appended)
	}
	sp := svc.Space()
	if sp.Compactions == 0 {
		t.Fatal("no compaction passes ran")
	}
	if sp.Segments > 64 {
		t.Fatalf("mapped segments unbounded: %d", sp.Segments)
	}
	if amp := sp.Amplification(); amp > 2.0 {
		t.Fatalf("space amplification %.3f exceeds 2x (live=%d log=%d)", amp, sp.LiveBytes, sp.LogBytes)
	}
	if idx := matchState(svc, []map[string]string{model}); idx != 0 {
		t.Fatal("compacted store diverged from the model")
	}
	// The compacted log must also recover to the same state.
	if err := svc.Crash(pmem.Adversarial, 5); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if idx := matchState(svc, []map[string]string{model}); idx != 0 {
		t.Fatal("recovered compacted store diverged from the model")
	}
}

// TestTombstoneRules pins the compactor's tombstone retention logic on a
// hand-built store: a tombstone is copied forward while any older record
// of its key is still mapped (dropping it would resurrect that record on
// recovery), and dropped once it is the key's sole record.
func TestTombstoneRules(t *testing.T) {
	svc := New(Config{Shards: 1, Batch: 1, SegBytes: 256})
	st := svc.shards[0].st
	// Segment 0: a put of "doomed" plus filler; then delete it from a
	// later segment so the tombstone lands away from the put.
	svc.Put("doomed", []byte("payload-one"))
	for i := 0; i < 12; i++ {
		svc.Put(fmt.Sprintf("fill%02d", i), []byte("ffffffffffffffffffff"))
	}
	svc.Delete("doomed")
	if _, ok := st.tombs["doomed"]; !ok {
		t.Fatal("tombstone not tracked")
	}
	if st.nrecs["doomed"] != 2 {
		t.Fatalf("nrecs[doomed] = %d, want 2 (put + tombstone)", st.nrecs["doomed"])
	}
	// Compact the tombstone's segment while the put is still mapped: the
	// tombstone must survive the pass (copied forward, not dropped).
	tombSeq := st.tombs["doomed"] / uint64(st.segBytes)
	putSeq := uint64(0)
	if _, ok := st.slotOf[putSeq]; !ok {
		t.Fatal("put segment already unmapped; test geometry broken")
	}
	svc.shards[0].th.TxBegin()
	if err := st.compactOnce(tombSeq); err != nil {
		t.Fatalf("compactOnce: %v", err)
	}
	svc.shards[0].th.TxEnd()
	if _, ok := st.tombs["doomed"]; !ok {
		t.Fatal("tombstone dropped while its put was still mapped")
	}
	// Now compact the put's segment: the put is dead (superseded by the
	// tombstone), so afterwards the tombstone is the key's sole record and
	// the next pass over its segment may drop it.
	svc.shards[0].th.TxBegin()
	if err := st.compactOnce(putSeq); err != nil {
		t.Fatalf("compactOnce: %v", err)
	}
	if st.nrecs["doomed"] != 1 {
		t.Fatalf("nrecs[doomed] = %d after the put's segment retired, want 1", st.nrecs["doomed"])
	}
	tombSeq = st.tombs["doomed"] / uint64(st.segBytes)
	if err := st.compactOnce(tombSeq); err != nil {
		t.Fatalf("compactOnce: %v", err)
	}
	svc.shards[0].th.TxEnd()
	if _, ok := st.tombs["doomed"]; ok {
		t.Fatal("sole-record tombstone not dropped")
	}
	if st.nrecs["doomed"] != 0 {
		t.Fatalf("nrecs[doomed] = %d, want 0", st.nrecs["doomed"])
	}
	// Either way the key must stay absent across recovery.
	if err := svc.Crash(pmem.Strict, 3); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if _, ok := svc.Get("doomed"); ok {
		t.Fatal("deleted key resurrected after compaction + crash")
	}
}

// TestDeleteOverwriteCompactCrashPinned is the pinned end-to-end
// regression from the issue: delete, overwrite, force compaction, crash,
// recover — the recovered index must be exactly the committed model.
func TestDeleteOverwriteCompactCrashPinned(t *testing.T) {
	svc := New(Config{Shards: 1, Batch: 2, SegBytes: 512})
	model := map[string]string{}
	put := func(k, v string) {
		if err := svc.Put(k, []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
		model[k] = v
	}
	del := func(k string) {
		svc.Delete(k)
		delete(model, k)
	}
	put("alpha", "one")
	put("beta", "two")
	del("alpha")
	put("beta", "two-rewritten")
	put("gamma", "three")
	put("alpha", "one-after-delete")
	for i := 0; i < 60; i++ { // churn until well past several segments
		put(fmt.Sprintf("churn%d", i%9), fmt.Sprintf("cv%02d-%s", i, "zzzzzzzzzzzzzzzz"[:i%16]))
	}
	del("gamma")
	svc.Flush()
	if svc.Space().Compactions == 0 {
		t.Fatal("workload did not force a compaction pass")
	}
	for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
		if err := svc.Crash(mode, 17); err != nil {
			t.Fatalf("recovery (%v): %v", mode, err)
		}
		if idx := matchState(svc, []map[string]string{model}); idx != 0 {
			t.Fatalf("recovered state diverged from the model after %v crash", mode)
		}
	}
}

// crashAt panics out of the service at the k-th persistent trace event.
type crashAt struct{ remaining int }

func (c *crashAt) hook(trace.Event) {
	c.remaining--
	if c.remaining == 0 {
		panic(c)
	}
}

// runScripted drives the churn script against a fresh small-segment
// service, arming an event-hook crash after skipping the format
// transaction. It returns the service, the two oracle maps bracketing
// the batch that was executing when the panic fired (nil if the run
// completed), and whether the panic fired.
func runScripted(t *testing.T, ops []churnOp, crashAfter int) (svc *Service, prev, next map[string]string, crashed bool) {
	t.Helper()
	svc = New(Config{Shards: 1, Batch: 4, SegBytes: 512})
	var c *crashAt
	if crashAfter > 0 {
		c = &crashAt{remaining: crashAfter}
		svc.Runtime(0).SetEventHook(c.hook)
	}
	prev = map[string]string{}
	next = map[string]string{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if r != c {
					panic(r)
				}
				crashed = true
			}
		}()
		for i, op := range ops {
			applyOp(svc, next, op)
			if (i+1)%4 == 0 { // batch committed inside the last apply
				prev = map[string]string{}
				for k, v := range next {
					prev[k] = v
				}
			}
		}
		svc.Flush()
	}()
	svc.Runtime(0).SetEventHook(nil)
	return svc, prev, next, crashed
}

// TestCrashSweepThroughCompaction crashes at every persistent trace
// event of a compaction-heavy scripted run — strict and adversarial —
// and requires recovery to land on exactly the committed state before or
// after the interrupted batch. Compaction runs inside batch commits, so
// the sweep necessarily lands crash points before, inside, and after
// compaction passes: mid-copy, between a pass's head publish and its
// retire, and inside the retire's own flush+fence.
func TestCrashSweepThroughCompaction(t *testing.T) {
	ops := churnScript(96)
	base, _, final, crashed := runScripted(t, ops, 0)
	if crashed {
		t.Fatal("baseline run crashed")
	}
	if base.Space().Compactions == 0 {
		t.Fatal("baseline run never compacted; sweep would not cover compaction")
	}
	if idx := matchState(base, []map[string]string{final}); idx != 0 {
		t.Fatal("baseline final state diverged from the model")
	}
	total := base.Runtime(0).Trace.CountKind(trace.KStore) +
		base.Runtime(0).Trace.CountKind(trace.KStoreNT) +
		base.Runtime(0).Trace.CountKind(trace.KFlush) +
		base.Runtime(0).Trace.CountKind(trace.KFence)
	if total < 200 {
		t.Fatalf("suspiciously small event budget %d", total)
	}
	outcomes := [2]int{} // lost batch, kept batch
	for k := 1; ; k++ {
		svc, prev, next, crashedHere := runScripted(t, ops, k)
		if !crashedHere {
			break // k exceeded the run's event count: sweep complete
		}
		for mi, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
			if mi > 0 {
				// Re-execute to re-arm: a crashed device cannot be rewound.
				svc, prev, next, crashedHere = runScripted(t, ops, k)
				if !crashedHere {
					t.Fatalf("crash point %d did not reproduce", k)
				}
			}
			if err := svc.Crash(mode, int64(k)); err != nil {
				t.Fatalf("crash point %d (%v): recovery failed: %v", k, mode, err)
			}
			idx := matchState(svc, []map[string]string{prev, next})
			if idx < 0 {
				t.Fatalf("crash point %d (%v): recovered state matches neither the pre- nor post-batch model", k, mode)
			}
			outcomes[idx]++
		}
	}
	if outcomes[0] == 0 || outcomes[1] == 0 {
		t.Fatalf("sweep did not exercise both fates: lost=%d kept=%d", outcomes[0], outcomes[1])
	}
}

// TestOversizedAndShardFullDegrade pins the panic-to-error conversion:
// an oversized record is rejected at the API edge, and slot-table
// exhaustion under an all-live workload degrades the offending request
// while the shard keeps serving reads and the service stays crashable.
func TestOversizedAndShardFullDegrade(t *testing.T) {
	const segBytes = 256
	svc := New(Config{Shards: 1, Batch: 1, SegBytes: segBytes})
	if err := svc.Put("big", make([]byte, segBytes)); err == nil {
		t.Fatal("oversized put accepted")
	}
	if st := svc.Stats(); st.Rejects != 0 {
		t.Fatal("API-edge rejection counted as a shard reject")
	}
	// Fill with unique (all-live) records until the slot table exhausts.
	// Compaction cannot help — no segment has enough dead bytes to make a
	// pass worthwhile. Batch-path failures degrade the request into the
	// rejects counter rather than erroring the API, so watch the counter.
	sh := svc.shards[0]
	var fullAt int
	for i := 0; ; i++ {
		if err := svc.Put(fmt.Sprintf("unique-%06d", i), []byte("vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv")); err != nil {
			t.Fatalf("put %d errored at the API edge: %v", i, err)
		}
		if sh.rejects > 0 {
			fullAt = i
			break
		}
		if i > 4*maxSegs*segBytes/53 { // ~4x the records that fit
			t.Fatal("shard never reported full")
		}
	}
	if fullAt == 0 {
		t.Fatal("first put already rejected")
	}
	// The shard must still serve reads and survive a crash cycle.
	if got, ok := svc.Get("unique-000000"); !ok || string(got) == "" {
		t.Fatal("full shard stopped serving reads")
	}
	if err := svc.Crash(pmem.Strict, 23); err != nil {
		t.Fatalf("full shard failed recovery: %v", err)
	}
	if got, ok := svc.Get(fmt.Sprintf("unique-%06d", fullAt-1)); !ok || len(got) == 0 {
		t.Fatal("last accepted record lost across recovery")
	}
	if _, ok := svc.Get(fmt.Sprintf("unique-%06d", fullAt)); ok {
		t.Fatal("rejected record visible after recovery")
	}
}

// TestRecoveryRejectsCorruptLength pins the recovery validation: a
// length field pointing past its segment's remainder must fail recovery
// loudly (Crash returns the error) and leave the service reformatted but
// serviceable.
func TestRecoveryRejectsCorruptLength(t *testing.T) {
	svc := New(Config{Shards: 1, Batch: 1, SegBytes: 512})
	svc.Put("victim", []byte("value"))
	svc.Flush()
	st := svc.shards[0].st
	ref := st.index["victim"]
	// Corrupt the record's vlen in place, durably, outside any batch.
	th := svc.shards[0].th
	a := st.addr(ref.off) + 4
	th.StoreU32(a, uint32(st.segBytes)*2)
	th.FlushFence(a, 4)
	err := svc.Crash(pmem.Strict, 31)
	if err == nil {
		t.Fatal("recovery accepted a corrupt vlen")
	}
	// Reformatted: empty but alive.
	if _, ok := svc.Get("victim"); ok {
		t.Fatal("corrupt shard still serving the poisoned key")
	}
	svc.Put("fresh", []byte("start"))
	svc.Flush()
	if got, _ := svc.Get("fresh"); string(got) != "start" {
		t.Fatalf("reformatted shard not serviceable: %q", got)
	}
	if err := svc.Crash(pmem.Strict, 32); err != nil {
		t.Fatalf("reformatted shard failed a clean recovery: %v", err)
	}
}

// TestRecoverBoundaryAlignedHeadAfterRetire pins a legal image recovery
// used to reject: the published head sits exactly on a segment boundary
// and compaction has retired the segment holding byte head-1 (all
// tombstones, nothing copied). A boundary-aligned head needs no mapped
// segment — the next append maps one — so recovery must accept it, and
// the log must keep working across a second crash.
func TestRecoverBoundaryAlignedHeadAfterRetire(t *testing.T) {
	rt := persist.NewRuntime("boundary-retire", "native", 1, persist.Config{})
	th := rt.Thread(0)
	const seg = 1024
	s := newStore(th, seg)
	th.TxBegin()
	// 64 puts of 8-byte keys with empty values: 16-byte records fill
	// segment 0 exactly.
	for i := 0; i < 64; i++ {
		if err := s.put(fmt.Sprintf("key%05d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.commit()
	// 64 tombstones fill segment 1 exactly; the head lands on 2048.
	for i := 0; i < 64; i++ {
		if _, err := s.del(fmt.Sprintf("key%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.commit()
	// Pass 1 retires segment 0 (all dead); pass 2 drops the now-sole
	// tombstones and retires segment 1 with nothing copied.
	if err := s.compact(1.0); err != nil {
		t.Fatal(err)
	}
	th.TxEnd()
	if s.head != 2*seg || len(s.slotOf) != 0 {
		t.Fatalf("set-up drifted: head=%d with %d mapped segments, want %d with 0", s.head, len(s.slotOf), 2*seg)
	}

	rt.Crash(pmem.Strict, 1)
	s, err := openStore(th, s.super, seg)
	if err != nil {
		t.Fatalf("recovery rejected a legal image: %v", err)
	}
	if s.head != 2*seg || len(s.index) != 0 {
		t.Fatalf("recovered head=%d with %d keys, want %d with 0", s.head, len(s.index), 2*seg)
	}

	// The next append must map a fresh segment for the boundary head.
	th.TxBegin()
	if err := s.put("after", []byte("retire")); err != nil {
		t.Fatal(err)
	}
	s.commit()
	th.TxEnd()
	rt.Crash(pmem.Strict, 2)
	s, err = openStore(th, s.super, seg)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if got, ok := s.read("after", nil); !ok || string(got) != "retire" {
		t.Fatalf("post-recovery put lost: %q, %v", got, ok)
	}
}
