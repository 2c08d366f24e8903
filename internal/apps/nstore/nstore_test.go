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
	return rt, Open(rt)
}

func TestInsertRead(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	tx.Insert(42, [nAttrs]uint64{1, 2, 3, 4}, "hello")
	if v, ok := tx.Read(42, 2); !ok || v != 3 {
		t.Fatalf("Read = %v,%v", v, ok)
	}
	tx.Commit()
	tx = db.Begin(0).(*Tx)
	if v, ok := tx.Read(42, 0); !ok || v != 1 {
		t.Fatalf("post-commit Read = %v,%v", v, ok)
	}
	tx.Commit()
}

func TestUpdateCommit(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	tx.Insert(7, [nAttrs]uint64{10, 0, 0, 0}, "v")
	tx.Commit()

	tx = db.Begin(0).(*Tx)
	if !tx.Update(7, 0, 99, "updated") {
		t.Fatal("update missed existing key")
	}
	tx.Commit()

	tx = db.Begin(0).(*Tx)
	v, _ := tx.Read(7, 0)
	tx.Commit()
	if v != 99 {
		t.Fatalf("value = %d", v)
	}
}

func TestAbortRollsBack(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	tx.Insert(1, [nAttrs]uint64{5, 0, 0, 0}, "orig")
	tx.Commit()

	tx = db.Begin(0).(*Tx)
	tx.Update(1, 0, 1000, "")
	tx.Abort()

	tx = db.Begin(0).(*Tx)
	v, _ := tx.Read(1, 0)
	tx.Commit()
	if v != 5 {
		t.Fatalf("abort left value %d, want 5", v)
	}
}

func TestUpdateMissingKey(t *testing.T) {
	_, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	if tx.Update(404, 0, 1, "") {
		t.Fatal("update of missing key succeeded")
	}
	tx.Commit()
}

func TestCrashUncommittedRollsBack(t *testing.T) {
	rt, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	tx.Insert(1, [nAttrs]uint64{5, 0, 0, 0}, "orig")
	tx.Commit()

	tx = db.Begin(0).(*Tx)
	tx.Update(1, 0, 777, "")
	// Force the in-place writes durable: worst case for undo logging.
	for l := range tx.dirty {
		tx.th.Flush(mem.LineAddr(l), mem.LineSize)
	}
	tx.th.Fence()
	// Crash without commit.
	rt.Crash(pmem.Strict, 3)
	db.Recover()

	tx = db.Begin(0).(*Tx)
	v, ok := tx.Read(1, 0)
	tx.Commit()
	if !ok || v != 5 {
		t.Fatalf("recovered value = %v,%v, want 5", v, ok)
	}
}

func TestCrashCommittedSurvives(t *testing.T) {
	rt, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	tx.Insert(9, [nAttrs]uint64{123, 0, 0, 0}, "keep")
	tx.Commit()
	rt.Crash(pmem.Strict, 4)
	db.Recover()
	tx = db.Begin(0).(*Tx)
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
		tx := db.Begin(0).(*Tx)
		tx.Insert(uint64(i), [nAttrs]uint64{0, 0, 0, 0}, "x")
		tx.Commit()
	}
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if a.SelfDepFraction() < 0.15 {
		t.Errorf("self-dep fraction = %.2f, want substantial (paper: 0.27-0.40)", a.SelfDepFraction())
	}
}

func TestPartitionIsolation(t *testing.T) {
	_, db := newDB(2)
	tx := db.Begin(0).(*Tx)
	tx.Insert(5, [nAttrs]uint64{1, 0, 0, 0}, "p0")
	tx.Commit()
	tx = db.Begin(1).(*Tx)
	if _, ok := tx.Read(5, 0); ok {
		t.Fatal("partition 1 sees partition 0's tuple")
	}
	tx.Commit()
}

func TestCommitSkipsInlineFlushedLines(t *testing.T) {
	// An Update whose tuple line is later covered by a neighbouring
	// Insert's flush must not re-flush that line at commit, but the
	// deferred bytes must still be durable at the commit point.
	rt, db := newDB(1)
	tx := db.Begin(0).(*Tx)
	tx.Insert(1, [nAttrs]uint64{1, 0, 0, 0}, "one")
	tx.Commit()

	tx = db.Begin(0).(*Tx)
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
	tx := db.Begin(0).(*Tx)
	tx.Insert(1, [nAttrs]uint64{5, 0, 0, 0}, "a")
	tx.Commit()

	tx = db.Begin(0).(*Tx)
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
