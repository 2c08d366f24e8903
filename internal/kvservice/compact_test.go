package kvservice

import (
	"fmt"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
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
// force frequent segment turnover and compaction passes. (23 keys, up from
// 13 while a pass ran whole between two batches: a sealed segment then
// still holds enough live records that a paced pass takes three batches
// to copy them, which is the state the crash sweep has to cover.)
func churnScript(n int) []churnOp {
	ops := make([]churnOp, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%02d", i%23)
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
		for k, e := range sh.st.keys {
			if e.vlen == tombMarker {
				continue
			}
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
	requireTablesMatchLog(t, svc.shards[0].st)
	// The compacted log must also recover to the same state.
	if err := svc.Crash(pmem.Adversarial, 5); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if idx := matchState(svc, []map[string]string{model}); idx != 0 {
		t.Fatal("recovered compacted store diverged from the model")
	}
	requireTablesMatchLog(t, svc.shards[0].st)
}

// TestStepWalkIsPaced covers the victim a hot, small keyspace makes: a
// sealed segment that is all garbage the moment it seals. Dead records
// cost the step loads but no copies, so a quota on copied bytes alone let
// such a victim be walked end to end under the shard lock behind one
// small batch. The step's walk has its own bound: behind a batch of one
// record the cursor moves at most scanPerCopy records' worth (plus the
// record it stops on and a padded tail), a victim takes many batches to
// drain, and reclaim still keeps the log bounded.
func TestStepWalkIsPaced(t *testing.T) {
	const segBytes = 1 << 12
	svc := New(Config{Shards: 1, Batch: 1, SegBytes: segBytes, Metrics: obs.NewRegistry()})
	st := svc.shards[0].st
	val := []byte("0123456789abcdef")
	const rec = recHeader + 2 + 16
	const maxWalk = (scanPerCopy + 2) * rec
	var steps, maxSteps int
	for i := 0; i < 6000; i++ {
		p0, c0 := st.pass, st.compactions
		if err := svc.Put(fmt.Sprintf("k%d", i%2), val); err != nil {
			t.Fatal(err)
		}
		p1 := st.pass
		from, to := p0.cursor, p1.cursor
		switch {
		case !p0.active && !p1.active:
			if st.compactions != c0 {
				t.Fatalf("put %d: a whole pass ran behind one %d-byte batch", i, rec)
			}
			continue
		case !p0.active:
			from = p1.victim * segBytes
		case !p1.active:
			to = (p0.victim + 1) * segBytes
			maxSteps = max(maxSteps, steps+1)
			steps = -1
		}
		steps++
		if to-from > maxWalk {
			t.Fatalf("put %d: the step walked %d bytes of segment %d behind a %d-byte batch, want at most %d", i, to-from, p0.victim, rec, maxWalk)
		}
	}
	if want := segBytes / maxWalk; maxSteps < want {
		t.Fatalf("the longest pass took %d steps; an all-dead %d-byte victim needs at least %d", maxSteps, segBytes, want)
	}
	svc.Flush()
	if sp := svc.Space(); sp.Compactions < 20 || sp.Segments > 2 {
		t.Fatalf("paced walk fell behind: %d passes, %d segments mapped for 2 live records", sp.Compactions, sp.Segments)
	}
}

// compactSeg aims a pass at a segment of the test's choosing and runs it to
// the end in one whole-segment step: copy, commit, retire. (It was
// store.compactOnce until compaction became a resumable step; the service
// never picks a victim by hand.) No pass may be in flight.
func compactSeg(t *testing.T, st *store, seq uint64) {
	t.Helper()
	if st.pass.active {
		t.Fatalf("a pass over segment %d is in flight; aiming another would corrupt its accounting", st.pass.victim)
	}
	st.pass = pass{active: true, victim: seq, cursor: seq * uint64(st.segBytes)}
	if err := st.compactStep(1.0, st.segBytes); err != nil {
		t.Fatalf("compactStep over segment %d: %v", seq, err)
	}
	st.commit()
	st.finishPass()
	if _, mapped := st.segs[seq]; mapped {
		t.Fatalf("segment %d still mapped after a whole-segment step", seq)
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
	if st.keys["doomed"].vlen != tombMarker {
		t.Fatal("tombstone not tracked")
	}
	if n := st.keys["doomed"].recs; n != 2 {
		t.Fatalf("doomed's recs = %d, want 2 (put + tombstone)", n)
	}
	// Compact the tombstone's segment while the put is still mapped: the
	// tombstone must survive the pass (copied forward, not dropped).
	tombSeq := st.keys["doomed"].off / uint64(st.segBytes)
	putSeq := uint64(0)
	if _, ok := st.segs[putSeq]; !ok {
		t.Fatal("put segment already unmapped; test geometry broken")
	}
	svc.shards[0].th.TxBegin()
	compactSeg(t, st, tombSeq)
	svc.shards[0].th.TxEnd()
	if _, ok := st.keys["doomed"]; !ok {
		t.Fatal("tombstone dropped while its put was still mapped")
	}
	// Now compact the put's segment: the put is dead (superseded by the
	// tombstone), so afterwards the tombstone is the key's sole record and
	// the next pass over its segment may drop it.
	svc.shards[0].th.TxBegin()
	compactSeg(t, st, putSeq)
	if n := st.keys["doomed"].recs; n != 1 {
		t.Fatalf("doomed's recs = %d after the put's segment retired, want 1", n)
	}
	tombSeq = st.keys["doomed"].off / uint64(st.segBytes)
	compactSeg(t, st, tombSeq)
	svc.shards[0].th.TxEnd()
	if k, ok := st.keys["doomed"]; ok {
		t.Fatalf("sole-record tombstone not dropped: %+v", k)
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

// newScripted is the service the scripted runs share: one shard, batches
// of four, segments a dozen records long, recording — the crash sweep sizes
// its event budget from the baseline's trace.
func newScripted() *Service { return New(Config{Shards: 1, Batch: 4, SegBytes: 512, Record: true}) }

// longestPass runs the script to the end and returns the largest number of
// batch commits any one compaction pass spread its copies over. It holds
// the store's tables to the log after every commit, passes in flight
// included.
func longestPass(t *testing.T, ops []churnOp) int {
	svc := newScripted()
	sh := svc.shards[0]
	model := map[string]string{}
	spans := map[uint64]int{}
	longest := 0
	for _, op := range ops {
		before, copied, batches := sh.st.pass, sh.st.copiedBytes, sh.batches
		applyOp(svc, model, op)
		if len(sh.pending) == 0 {
			requireTablesMatchLog(t, sh.st)
		}
		if sh.batches == batches || sh.st.copiedBytes == copied {
			continue // no commit, or a commit whose step copied nothing
		}
		// The copies belong to the pass that was in flight, or to the one
		// the step began; a pass that began and ended here spans one.
		pass := before
		if !pass.active {
			pass = sh.st.pass
		}
		if !pass.active {
			longest = max(longest, 1)
			continue
		}
		spans[pass.victim]++
		longest = max(longest, spans[pass.victim])
	}
	return longest
}

// runScripted drives the churn script against a fresh small-segment
// service, arming an event-hook crash after skipping the format
// transaction. It returns the service, the two oracle maps bracketing
// the batch that was executing when the panic fired (nil if the run
// completed), and whether the panic fired.
func runScripted(t *testing.T, ops []churnOp, crashAfter int) (svc *Service, prev, next map[string]string, crashed bool) {
	t.Helper()
	svc = newScripted()
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
// after the interrupted batch. Compaction steps run inside batches and the
// closing Flush drains it, so the sweep necessarily lands crash points in
// every step of a pass: mid-copy, inside the commit that publishes a
// prefix of the copies, between two steps, between the last publish and
// the retire, and inside the retire's own flush+fence.
func TestCrashSweepThroughCompaction(t *testing.T) {
	ops := churnScript(128)
	base, _, final, crashed := runScripted(t, ops, 0)
	if crashed {
		t.Fatal("baseline run crashed")
	}
	if base.Space().Compactions == 0 {
		t.Fatal("baseline run never compacted; sweep would not cover compaction")
	}
	// A pass is a run of steps, each inside its own batch; the state this
	// sweep has to reach is the one between two of them, so the window must
	// hold a pass that took at least three commits to publish its copies.
	if n := longestPass(t, ops); n < 3 {
		t.Fatalf("longest pass spread its copies over %d commits; the sweep needs one over >= 3", n)
	}
	if idx := matchState(base, []map[string]string{final}); idx != 0 {
		t.Fatal("baseline final state diverged from the model")
	}
	requireTablesMatchLog(t, base.shards[0].st)
	total := 0
	for _, e := range base.Runtime(0).Trace.Events() {
		switch e.Kind {
		case trace.KStore, trace.KStoreNT, trace.KFlush, trace.KFence:
			total++
		}
	}
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
			requireTablesMatchLog(t, svc.shards[0].st)
			outcomes[idx]++
		}
	}
	if outcomes[0] == 0 || outcomes[1] == 0 {
		t.Fatalf("sweep did not exercise both fates: lost=%d kept=%d", outcomes[0], outcomes[1])
	}
}

// TestCompactionResumesAfterCrash power-fails the service between two steps
// of a pass — a prefix of the victim's copies published, the victim still
// mapped, the cursor lost with the rest of DRAM — and requires the rest of
// the script to run as if nothing had happened: the recovery scan counts
// the copied originals dead, so the fresh pass copies only what was left.
func TestCompactionResumesAfterCrash(t *testing.T) {
	// The crash sweep's script over more keys: its 23 keep under one
	// segment live, where two mapped segments (the head and one other) are
	// the floor and 2x cannot be asked for.
	var ops []churnOp
	for i, op := range churnScript(600) {
		op.key = fmt.Sprintf("k%02d", (i*7)%61)
		ops = append(ops, op)
	}
	for _, mode := range []pmem.CrashMode{pmem.Strict, pmem.Adversarial} {
		svc := newScripted()
		sh := svc.shards[0]
		model := map[string]string{}
		// Run up to a batch boundary that leaves a pass part-way through
		// its victim with copies already published.
		next := -1
		for i, op := range ops {
			applyOp(svc, model, op)
			p := sh.st.pass
			if len(sh.pending) == 0 && p.active && p.cursor > p.victim*uint64(sh.st.segBytes) && sh.st.copiedBytes > 0 {
				next = i + 1
				break
			}
		}
		if next < 0 {
			t.Fatal("script never left a pass in flight at a batch boundary")
		}
		victim := sh.st.pass.victim
		requireTablesMatchLog(t, sh.st)
		left := sh.st.segs[victim].live // what the pass had still to copy
		if left == 0 {
			t.Fatal("interrupted pass had nothing left to copy; the resume would be vacuous")
		}
		if err := svc.Crash(mode, 7); err != nil {
			t.Fatalf("%v: recovery: %v", mode, err)
		}
		st := sh.st // the recovered store
		if st.pass.active {
			t.Fatalf("%v: recovery resurrected a cursor: %+v", mode, st.pass)
		}
		requireTablesMatchLog(t, st)
		if got := st.segs[victim].live; got != left {
			t.Fatalf("%v: recovery scan attributes %d live bytes to the interrupted victim, the pass had %d left to copy", mode, got, left)
		}
		if idx := matchState(svc, []map[string]string{model}); idx != 0 {
			t.Fatalf("%v: recovered state diverged from the model", mode)
		}

		// The rest of the script. budget[v] is the most a pass over v may
		// copy: v's live bytes when it was last seen sealed and whole — at
		// recovery for the segments sealed then, at their first sighting
		// for the ones sealed later. Live bytes of a sealed segment only
		// fall, so a pass that copies a record twice overdraws it.
		sb := uint64(st.segBytes)
		budget := map[uint64]int64{}
		var allowed int64
		track := func() {
			for seq, g := range st.segs {
				if _, seen := budget[seq]; !seen && seq < st.head/sb {
					budget[seq] = g.live
				}
			}
			for seq, l := range budget {
				if _, mapped := st.segs[seq]; !mapped {
					allowed += l
					delete(budget, seq)
				}
			}
		}
		track()
		// First the passes already due, with no write in between: every
		// live byte of a victim is then copied exactly once or, a tombstone
		// with nothing left to shadow, dropped — so the copied bytes are the
		// victims' recovered live bytes less what left the live total.
		liveBefore := st.liveBytes
		svc.Flush()
		track()
		if _, mapped := st.segs[victim]; mapped {
			t.Fatalf("%v: the interrupted victim is still mapped after a drain", mode)
		}
		if dropped := liveBefore - st.liveBytes; int64(st.copiedBytes) != allowed-dropped {
			t.Fatalf("%v: drain after recovery copied %d bytes; its victims held %d live, %d of them dropped", mode, st.copiedBytes, allowed, dropped)
		}
		for _, op := range ops[next:] {
			applyOp(svc, model, op)
			track()
		}
		svc.Flush()
		track()
		if st.pass.active {
			t.Fatalf("%v: Flush left a pass in flight", mode)
		}
		sp := svc.Space()
		if sp.Compactions == 0 {
			t.Fatalf("%v: nothing was compacted after the recovery", mode)
		}
		if int64(sp.CopiedBytes) > allowed {
			t.Fatalf("%v: %d bytes copied after recovery, the retired victims held %d live: a record was copied twice", mode, sp.CopiedBytes, allowed)
		}
		if idx := matchState(svc, []map[string]string{model}); idx != 0 {
			t.Fatalf("%v: final state diverged from the model", mode)
		}
		requireTablesMatchLog(t, st)
		if amp := sp.Amplification(); amp > 2.0 || sp.Segments != len(st.segs) {
			t.Fatalf("%v: segment leaked: %d mapped, amplification %.3f (live=%d log=%d)", mode, sp.Segments, amp, sp.LiveBytes, sp.LogBytes)
		}
		// What is mapped durably is what is mapped in DRAM: no slot kept a
		// base the store has forgotten.
		if err := svc.Crash(pmem.Strict, 8); err != nil {
			t.Fatalf("%v: second recovery: %v", mode, err)
		}
		if got := svc.Space().Segments; got != sp.Segments {
			t.Fatalf("%v: %d segments mapped after a second recovery, %d before it", mode, got, sp.Segments)
		}
		if idx := matchState(svc, []map[string]string{model}); idx != 0 {
			t.Fatalf("%v: state after the second recovery diverged from the model", mode)
		}
		requireTablesMatchLog(t, sh.st)
	}
}

// TestSlotEntryNeverHalfMapped crashes at every persistent event of the
// one batch that maps a second segment, under several adversarial seeds.
// The slot entry is two stores to one line and the line may reach PM
// between them; the paced compactor keeps segment 0 mapped while later
// slots are claimed, which is how the crash sweep found an entry that read
// {new base, segment 0}. Recovery must accept every image and land on the
// state before or after the batch.
func TestSlotEntryNeverHalfMapped(t *testing.T) {
	run := func(crashAfter int) (svc *Service, prev, next map[string]string, crashed bool) {
		svc = New(Config{Shards: 1, Batch: 1, SegBytes: 256})
		prev, next = map[string]string{}, map[string]string{}
		i := 0
		put := func() {
			k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("value-%02d-................", i)
			next[k] = v
			if err := svc.Put(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			i++
		}
		// Fill segment 0 until the next record no longer fits.
		rec := uint64(recHeader + 3 + len("value-00-................"))
		for st := svc.shards[0].st; 256-st.head%256 >= rec; {
			put()
			prev[fmt.Sprintf("k%02d", i-1)] = next[fmt.Sprintf("k%02d", i-1)]
		}
		c := &crashAt{remaining: crashAfter}
		svc.Runtime(0).SetEventHook(c.hook)
		defer svc.Runtime(0).SetEventHook(nil)
		defer func() {
			if r := recover(); r != nil {
				if r != c {
					panic(r)
				}
				crashed = true
			}
		}()
		put() // pads segment 0, claims a slot for segment 1
		return svc, prev, next, false
	}
	for k := 1; ; k++ {
		_, _, _, crashed := run(k)
		if !crashed {
			if k < 6 {
				t.Fatalf("the batch had only %d persistent events; it never mapped a segment", k-1)
			}
			break
		}
		for seed := int64(1); seed <= 8; seed++ {
			svc, prev, next, _ := run(k)
			if err := svc.Crash(pmem.Adversarial, seed); err != nil {
				t.Fatalf("event %d seed %d: recovery failed: %v", k, seed, err)
			}
			if matchState(svc, []map[string]string{prev, next}) < 0 {
				t.Fatalf("event %d seed %d: recovered state matches neither side of the batch", k, seed)
			}
		}
	}
}

// TestOversizedAndShardFullDegrade pins the panic-to-error conversion:
// an oversized record is rejected at the API edge, and slot-table
// exhaustion under an all-live workload degrades the offending request
// while the shard keeps serving reads and the service stays crashable. The
// compactor's own shard-full error lands inside a batch and degrades the
// same way: the pass is abandoned and counted, never dropped on the floor.
func TestOversizedAndShardFullDegrade(t *testing.T) {
	const segBytes = 256
	// A private registry: the test reads a counter, and the default one is
	// shared by every service of the process (and by -count reruns).
	svc := New(Config{Shards: 1, Batch: 1, SegBytes: segBytes, Metrics: obs.NewRegistry()})
	if err := svc.Put("big", make([]byte, segBytes)); err == nil {
		t.Fatal("oversized put accepted")
	}
	if st := svc.Stats(); st.Rejects != 0 {
		t.Fatal("API-edge rejection counted as a shard reject")
	}
	// Fill with unique (all-live) records until every slot is mapped and the
	// head segment has no room for one more. Compaction cannot help — no
	// segment has enough dead bytes to make a pass worthwhile.
	sh := svc.shards[0]
	st := sh.st
	key := func(i int) string { return fmt.Sprintf("unique-%06d", i) }
	val := []byte("vvvvvvvvvvvvvvvvvvvvvvvvvvvvvvvv")
	rec := recHeader + len(key(0)) + len(val)
	n := 0
	for st.headroom() > 0 || segBytes-int(st.head%segBytes) >= rec {
		if err := svc.Put(key(n), val); err != nil {
			t.Fatalf("put %d errored at the API edge: %v", n, err)
		}
		n++
		if sh.rejects > 0 || n > maxSegs*segBytes/rec {
			t.Fatalf("after %d puts: %d rejects, headroom %d; the shard should fill without one", n, sh.rejects, st.headroom())
		}
	}
	// A delete still fits the head segment's tail, and makes segment 0 a
	// pressure victim (3 of 4 records live). The step riding the delete's
	// batch finds no slot for its first copy: it must stop, leave the
	// victim mapped and the accounting whole, and be counted.
	svc.Delete(key(0))
	if sh.dels != 1 || sh.rejects != 0 {
		t.Fatalf("delete on a full shard: dels=%d rejects=%d, want it served", sh.dels, sh.rejects)
	}
	if got := svc.abortsC.Value(); got != 1 {
		t.Fatalf("kvservice_compaction_aborts_total = %d after the step found the shard full, want 1", got)
	}
	if _, mapped := st.segs[0]; !mapped || st.pass.active {
		t.Fatalf("abandoned pass: victim mapped=%v, pass %+v; want the victim kept and the cursor cleared", mapped, st.pass)
	}
	if got := st.keys[key(0)].recs; got != 2 {
		t.Fatalf("%s's recs = %d after the abort, want 2: its dead put is still mapped under the tombstone", key(0), got)
	}
	requireTablesMatchLog(t, st)
	if d, v := svc.LogHeads(0); d != v {
		t.Fatalf("the aborted step's batch was not published: durable head %d, volatile %d", d, v)
	}
	// From here every append is turned away, and every batch retries the
	// pass and counts another abort.
	if err := svc.Put(key(n), val); err != nil {
		t.Fatalf("put %d errored at the API edge: %v", n, err)
	}
	if aborts := svc.abortsC.Value(); sh.rejects != 1 || aborts < 2 {
		t.Fatalf("put on a full shard: rejects=%d aborts=%d, want 1 and >= 2", sh.rejects, aborts)
	}
	// The shard must still serve reads and survive a crash cycle.
	if got, ok := svc.Get(key(1)); !ok || len(got) == 0 {
		t.Fatal("full shard stopped serving reads")
	}
	if _, ok := svc.Get(key(0)); ok {
		t.Fatal("delete served on a full shard is not visible")
	}
	if err := svc.Crash(pmem.Strict, 23); err != nil {
		t.Fatalf("full shard failed recovery: %v", err)
	}
	if got, ok := svc.Get(key(n - 1)); !ok || len(got) == 0 {
		t.Fatal("last accepted record lost across recovery")
	}
	if _, ok := svc.Get(key(n)); ok {
		t.Fatal("rejected record visible after recovery")
	}
	if _, ok := svc.Get(key(0)); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
	if got, ok := svc.Get(key(1)); !ok || len(got) == 0 {
		t.Fatal("record of the abandoned pass's victim lost across recovery")
	}
	requireTablesMatchLog(t, sh.st)
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
	// Corrupt the record's vlen in place, durably, outside any batch.
	th := svc.shards[0].th
	a := st.addr(st.keys["victim"].off) + 4
	th.StoreU32(a, uint32(st.segBytes)*2)
	th.FlushFence(a, 4)
	err := svc.Crash(pmem.Strict, 31)
	if err == nil {
		t.Fatal("recovery accepted a corrupt vlen")
	}
	requireReformatted(t, svc)
}

// requireReformatted: a service whose one shard just failed recovery has
// been reformatted empty (the key every corrupt-image test writes is gone)
// and serves, commits and recovers again.
func requireReformatted(t *testing.T, svc *Service) {
	t.Helper()
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
	if got, _ := svc.Get("fresh"); string(got) != "start" {
		t.Fatalf("reformatted shard lost its first commit across a crash: %q", got)
	}
}

// corruptSlot durably overwrites one word of shard i's slot 0 — its base
// (off 0) or its segment number (off 8) — outside any batch.
func corruptSlot(svc *Service, i int, off mem.Addr, v uint64) {
	sh := svc.shards[i]
	a := sh.st.slotAddr(0) + off
	sh.th.StoreU64(a, v)
	sh.th.FlushFence(a, 8)
}

// TestRecoveryRejectsCorruptSlotBase: a mapped slot whose segment is not
// persistent memory the device mapped, or whose segment number makes log
// offsets wrap, fails recovery with an error naming the slot and leaves the
// shard reformatted and serviceable. Before the check, a base in DRAM
// panicked the scan's first load ("address 0x40(dram) is not persistent")
// — on a shard goroutine, one missed re-raise from killing the process — a
// base whose segment wraps the address space or lies past what the device
// mapped scanned unwritten memory as the segment and returned nil with the
// key gone, and a wrapping segment number failed on the head check
// instead, naming the wrong cause.
func TestRecoveryRejectsCorruptSlotBase(t *testing.T) {
	for _, c := range []struct {
		name string
		off  mem.Addr
		v    uint64
	}{
		{"dram-base", 0, 0x40},
		{"wrapping-base", 0, 0xffffffffffffffc0},
		{"past-mapped-base", 0, 1 << 62},
		{"wrapping-seq", 8, 1 << 55},
	} {
		t.Run(c.name, func(t *testing.T) {
			svc := New(Config{Shards: 1, Batch: 1, SegBytes: 512})
			svc.Put("victim", []byte("value"))
			svc.Flush()
			corruptSlot(svc, 0, c.off, c.v)
			err := svc.Crash(pmem.Strict, 31)
			if err == nil || !strings.Contains(err.Error(), "corrupt slot table: slot 0 ") {
				t.Fatalf("recovery of a slot holding %#x at +%d: %v, want an error naming slot 0", c.v, c.off, err)
			}
			requireReformatted(t, svc)
		})
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
	if err := s.drain(1.0); err != nil {
		t.Fatal(err)
	}
	th.TxEnd()
	if s.head != 2*seg || len(s.segs) != 0 {
		t.Fatalf("set-up drifted: head=%d with %d mapped segments, want %d with 0", s.head, len(s.segs), 2*seg)
	}

	rt.Crash(pmem.Strict, 1)
	s, _, err := openStore(th, s.super, seg, 0)
	if err != nil {
		t.Fatalf("recovery rejected a legal image: %v", err)
	}
	if s.head != 2*seg || len(s.keys) != 0 {
		t.Fatalf("recovered head=%d with %d keys, want %d with 0", s.head, len(s.keys), 2*seg)
	}

	// The next append must map a fresh segment for the boundary head.
	th.TxBegin()
	if err := s.put("after", []byte("retire")); err != nil {
		t.Fatal(err)
	}
	s.commit()
	th.TxEnd()
	rt.Crash(pmem.Strict, 2)
	s, _, err = openStore(th, s.super, seg, 0)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if got, ok := s.read("after", nil); !ok || string(got) != "retire" {
		t.Fatalf("post-recovery put lost: %q, %v", got, ok)
	}
}
