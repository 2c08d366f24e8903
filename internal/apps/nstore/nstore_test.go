package nstore

import (
	"encoding/binary"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newDB(threads int) (*persist.Runtime, *DB) {
	rt := persist.NewRuntime("nstore", "native", threads, persist.Config{})
	return rt, Open(rt, Config{Buckets: 128, SlabBytes: 1 << 20})
}

func TestInsertRead(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(42, [nAttrs]uint64{1, 2, 3, 4}, "hello")
	if v, ok := tx.Read(42, 2); !ok || v != 3 {
		t.Fatalf("Read = %v,%v", v, ok)
	}
	tx.Commit()
	tx = db.Begin(0)
	if v, ok := tx.Read(42, 0); !ok || v != 1 {
		t.Fatalf("post-commit Read = %v,%v", v, ok)
	}
	tx.Commit()
}

func TestUpdateCommit(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(7, [nAttrs]uint64{10, 0, 0, 0}, "v")
	tx.Commit()

	tx = db.Begin(0)
	if !tx.Update(7, 0, 99, "updated") {
		t.Fatal("update missed existing key")
	}
	tx.Commit()

	tx = db.Begin(0)
	v, _ := tx.Read(7, 0)
	tx.Commit()
	if v != 99 {
		t.Fatalf("value = %d", v)
	}
}

func TestAbortRollsBack(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(1, [nAttrs]uint64{5, 0, 0, 0}, "orig")
	tx.Commit()

	tx = db.Begin(0)
	tx.Update(1, 0, 1000, "")
	tx.Abort()

	tx = db.Begin(0)
	v, _ := tx.Read(1, 0)
	tx.Commit()
	if v != 5 {
		t.Fatalf("abort left value %d, want 5", v)
	}
}

func TestUpdateMissingKey(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0)
	if tx.Update(404, 0, 1, "") {
		t.Fatal("update of missing key succeeded")
	}
	tx.Commit()
}

func TestCrashUncommittedRollsBack(t *testing.T) {
	rt, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(1, [nAttrs]uint64{5, 0, 0, 0}, "orig")
	tx.Commit()

	tx = db.Begin(0)
	tx.Update(1, 0, 777, "")
	// Force the in-place writes durable: worst case for undo logging.
	for l := range tx.dirty {
		tx.th.Flush(mem.LineAddr(l), mem.LineSize)
	}
	tx.th.Fence()
	// Crash without commit.
	rt.Crash(pmem.Strict, 3)
	db.Recover()

	tx = db.Begin(0)
	v, ok := tx.Read(1, 0)
	tx.Commit()
	if !ok || v != 5 {
		t.Fatalf("recovered value = %v,%v, want 5", v, ok)
	}
}

func TestCrashCommittedSurvives(t *testing.T) {
	rt, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(9, [nAttrs]uint64{123, 0, 0, 0}, "keep")
	tx.Commit()
	rt.Crash(pmem.Strict, 4)
	db.Recover()
	tx = db.Begin(0)
	v, ok := tx.Read(9, 0)
	tx.Commit()
	if !ok || v != 123 {
		t.Fatalf("committed tuple lost: %v,%v", v, ok)
	}
	if len(db.parts[0].index) != 1 {
		t.Fatalf("index rebuilt with %d tuples", len(db.parts[0].index))
	}
}

func TestStateVariableSelfDeps(t *testing.T) {
	// §5.1: the block state variable written thrice per allocation causes
	// self-dependencies.
	rt, db := newDB(1)
	for i := 0; i < 20; i++ {
		tx := db.Begin(0)
		tx.Insert(uint64(i), [nAttrs]uint64{0, 0, 0, 0}, "x")
		tx.Commit()
	}
	a := epoch.Analyze(rt.Trace)
	if a.SelfDepFraction() < 0.15 {
		t.Errorf("self-dep fraction = %.2f, want substantial (paper: 0.27-0.40)", a.SelfDepFraction())
	}
}

func TestYCSBWorkload(t *testing.T) {
	rt := persist.NewRuntime("ycsb", "native", 2, persist.Config{})
	db := RunYCSB(rt, Config{Buckets: 256, SlabBytes: 4 << 20}, 2, 10, 4, 80, 11)
	if len(db.parts[0].index) == 0 {
		t.Fatal("no tuples in partition 0")
	}
	a := epoch.Analyze(rt.Trace)
	// 2 preload txs + 20 workload txs.
	if len(a.TxEpochCounts) != 22 {
		t.Fatalf("transactions = %d", len(a.TxEpochCounts))
	}
	if a.MedianTxEpochs() < 10 {
		t.Fatalf("median epochs/tx = %d, want tens (paper: 42)", a.MedianTxEpochs())
	}
}

func TestTPCCWorkload(t *testing.T) {
	rt := persist.NewRuntime("tpcc", "native", 2, persist.Config{})
	RunTPCC(rt, Config{Buckets: 512, SlabBytes: 8 << 20}, 2, 10, 13)
	a := epoch.Analyze(rt.Trace)
	if len(a.TxEpochCounts) != 22 {
		t.Fatalf("transactions = %d", len(a.TxEpochCounts))
	}
	// NewOrder transactions are an order of magnitude bigger than YCSB's.
	max := 0
	for _, n := range a.TxEpochCounts {
		if n > max {
			max = n
		}
	}
	if max < 60 {
		t.Fatalf("largest tx = %d epochs, want >= 60 (paper median: 197)", max)
	}
}

func TestPartitionIsolation(t *testing.T) {
	_, db := newDB(2)
	tx := db.Begin(0)
	tx.Insert(5, [nAttrs]uint64{1, 0, 0, 0}, "p0")
	tx.Commit()
	tx = db.Begin(1)
	if _, ok := tx.Read(5, 0); ok {
		t.Fatal("partition 1 sees partition 0's tuple")
	}
	tx.Commit()
}

func TestYCSBTraceSanitizerClean(t *testing.T) {
	// Replay a whole YCSB run through the durability-ordering sanitizer:
	// no line may reach commit dirty or unfenced, and — after the
	// per-line deferred-flush tracking — commit must not re-flush lines
	// an inline flush (undo record, neighbouring insert, allocator
	// header) already covered.
	rt := persist.NewRuntime("ycsb", "native", 2, persist.Config{})
	RunYCSB(rt, Config{}, 2, 6, 4, 80, 42)
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("ordering errors in YCSB trace:\n%s", rep)
	}
	if n := rep.Sites(pmsan.RedundantFlush); n != 0 {
		t.Fatalf("redundant flushes in YCSB trace: %d sites\n%s", n, rep)
	}
}

func TestTPCCTraceSanitizerClean(t *testing.T) {
	rt := persist.NewRuntime("tpcc", "native", 2, persist.Config{})
	RunTPCC(rt, Config{}, 2, 6, 42)
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("ordering errors in TPC-C trace:\n%s", rep)
	}
	if n := rep.Sites(pmsan.RedundantFlush); n != 0 {
		t.Fatalf("redundant flushes in TPC-C trace: %d sites\n%s", n, rep)
	}
}

func TestCommitSkipsInlineFlushedLines(t *testing.T) {
	// An Update whose tuple line is later covered by a neighbouring
	// Insert's flush must not re-flush that line at commit, but the
	// deferred bytes must still be durable at the commit point.
	rt, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(1, [nAttrs]uint64{1, 0, 0, 0}, "one")
	tx.Commit()

	tx = db.Begin(0)
	if !tx.Update(1, 0, 99, "") {
		t.Fatal("update missed")
	}
	// Inserting key 2 allocates the slab block adjacent to tuple 1; its
	// header/state flushes cover tuple 1's line (72-byte tuples straddle
	// lines), cleaning the deferred attr write.
	tx.Insert(2, [nAttrs]uint64{2, 0, 0, 0}, "two")
	tx.Commit()

	ta, ok := db.parts[0].index[1]
	if !ok {
		t.Fatal("tuple 1 missing")
	}
	if got := rt.Dev.Durable(ta+tAttrs, 8); binary.LittleEndian.Uint64(got) != 99 {
		t.Fatalf("updated attr not durable after commit: %v", got)
	}
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 || rep.Sites(pmsan.RedundantFlush) != 0 {
		t.Fatalf("errors=%d redundant=%d:\n%s", rep.Errors(), rep.Sites(pmsan.RedundantFlush), rep)
	}
}

func TestRecoverDropsACommitCutShort(t *testing.T) {
	// A crash between a commit's flushes strands the rest of its spans in
	// the thread's commit group; Recover must start the group afresh, or
	// the next commit would flush lines it never wrote.
	rt, db := newDB(1)
	tx := db.Begin(0)
	tx.Insert(1, [nAttrs]uint64{5, 0, 0, 0}, "a")
	tx.Commit()

	tx = db.Begin(0)
	tx.Update(1, 0, 77, "b")
	if !rt.AbortAt(1, nil, tx.Commit) {
		t.Fatal("commit ran to completion; want it stopped at its first flush")
	}
	if db.commits[0].Pending() == 0 {
		t.Fatal("the cut commit stranded no spans; the test no longer exercises recovery")
	}
	rt.Crash(pmem.Strict, 5)
	db.Recover()
	if n := db.commits[0].Pending(); n != 0 {
		t.Fatalf("%d spans of the crashed commit survived recovery", n)
	}
}
