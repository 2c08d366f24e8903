package pmsan

import (
	"bytes"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// pmAddr returns a PM byte address at the given line index offset from
// the PM base, plus an in-line byte offset.
func pmAddr(line int, off int) mem.Addr {
	return mem.PMBase + mem.Addr(line)*mem.LineSize + mem.Addr(off)
}

func ev(kind trace.Kind, tid uint16, addr mem.Addr, size int, at mem.Time) trace.Event {
	return trace.Event{Time: at, Addr: addr, Size: uint32(size), TID: tid, Kind: kind}
}

// sanitize runs the sanitizer over events and holds the report's event,
// fence and flush counts to a count over them.
func sanitize(t *testing.T, events []trace.Event) *Report {
	t.Helper()
	rep, err := Run(trace.NewSliceSource(appended(&trace.Trace{App: "synthetic", Layer: "native", Threads: 2}, events)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	requireCounts(t, rep, events)
	return rep
}

// requireCounts fails t unless rep counts as many events, fences and
// flushes as events holds.
func requireCounts(t *testing.T, rep *Report, events []trace.Event) {
	t.Helper()
	var fences, flushes uint64
	for _, e := range events {
		switch e.Kind {
		case trace.KFence:
			fences++
		case trace.KFlush:
			flushes++
		}
	}
	if rep.Events != uint64(len(events)) || rep.Fences != fences || rep.Flushes != flushes {
		t.Fatalf("report counts %d events, %d fences, %d flushes; the trace holds %d, %d, %d",
			rep.Events, rep.Fences, rep.Flushes, len(events), fences, flushes)
	}
}

// only asserts the report contains exactly the given class counts (all
// other classes zero).
func wantSites(t *testing.T, rep *Report, want map[Class]int) {
	t.Helper()
	for c := Class(0); c < numClasses; c++ {
		if got := rep.Sites(c); got != want[c] {
			t.Errorf("%s: got %d sites, want %d\nreport:\n%s", c, got, want[c], rep)
		}
	}
}

func TestCleanTransaction(t *testing.T) {
	a := pmAddr(1, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 8, 2),
		ev(trace.KFlush, 0, a, 8, 3),
		ev(trace.KFence, 0, 0, 0, 4),
		ev(trace.KTxEnd, 0, 0, 0, 5),
	})
	wantSites(t, rep, map[Class]int{})
	if rep.Errors() != 0 {
		t.Fatalf("clean tx reported %d errors", rep.Errors())
	}
}

func TestDirtyAtCommit(t *testing.T) {
	a := pmAddr(1, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 8, 2),
		ev(trace.KTxEnd, 0, 0, 0, 3),
	})
	wantSites(t, rep, map[Class]int{DirtyAtCommit: 1})
	v := rep.Violations[0]
	if v.TID != 0 || v.Line != mem.LineOf(a) || v.First != 3 {
		t.Fatalf("bad site: %+v", v)
	}
}

func TestUnfencedFlush(t *testing.T) {
	a := pmAddr(2, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 8, 2),
		ev(trace.KFlush, 0, a, 8, 3),
		ev(trace.KTxEnd, 0, 0, 0, 4),
	})
	wantSites(t, rep, map[Class]int{UnfencedFlush: 1})
}

func TestUnfencedNTStore(t *testing.T) {
	a := pmAddr(3, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStoreNT, 0, a, 64, 2),
		ev(trace.KTxEnd, 0, 0, 0, 3),
	})
	wantSites(t, rep, map[Class]int{UnfencedNTStore: 1})
}

func TestNTStoreFenced(t *testing.T) {
	a := pmAddr(3, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStoreNT, 0, a, 64, 2),
		ev(trace.KFence, 0, 0, 0, 3),
		ev(trace.KTxEnd, 0, 0, 0, 4),
	})
	wantSites(t, rep, map[Class]int{})
}

func TestRedundantFlush(t *testing.T) {
	a := pmAddr(4, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KStore, 0, a, 8, 1),
		ev(trace.KFlush, 0, a, 8, 2),
		ev(trace.KFence, 0, 0, 0, 3),
		ev(trace.KFlush, 0, a, 8, 4), // no store since the first flush
		ev(trace.KFence, 0, 0, 0, 5),
	})
	wantSites(t, rep, map[Class]int{RedundantFlush: 1})
	if rep.Errors() != 0 {
		t.Fatalf("diagnostic class counted as error")
	}
}

func TestStoreResetsRedundantFlush(t *testing.T) {
	a := pmAddr(4, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KStore, 0, a, 8, 1),
		ev(trace.KFlush, 0, a, 8, 2),
		ev(trace.KFence, 0, 0, 0, 3),
		ev(trace.KStore, 0, a, 8, 4), // intervening store: next flush is useful
		ev(trace.KFlush, 0, a, 8, 5),
		ev(trace.KFence, 0, 0, 0, 6),
	})
	wantSites(t, rep, map[Class]int{})
}

func TestFenceWithoutWork(t *testing.T) {
	rep := sanitize(t, []trace.Event{
		ev(trace.KFence, 0, 0, 0, 1),
	})
	wantSites(t, rep, map[Class]int{FenceNoWork: 1})
}

func TestFenceAfterFlushHasWork(t *testing.T) {
	a := pmAddr(5, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KStore, 0, a, 8, 1),
		ev(trace.KFlush, 0, a, 8, 2),
		ev(trace.KFence, 0, 0, 0, 3),
	})
	wantSites(t, rep, map[Class]int{})
}

func TestNonPMAndZeroSizeIgnored(t *testing.T) {
	dram := mem.Addr(0x1000) // below PMBase
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, dram, 8, 2),         // volatile store: no PM state
		ev(trace.KFlush, 0, dram, 8, 3),         // volatile flush: no pending work
		ev(trace.KFlush, 0, pmAddr(6, 0), 0, 4), // zero-size flush: no-op
		ev(trace.KTxEnd, 0, 0, 0, 5),
		ev(trace.KFence, 0, 0, 0, 6), // nothing persistent in flight
	})
	wantSites(t, rep, map[Class]int{FenceNoWork: 1})
}

func TestMultiLineStoreFlagsEachLine(t *testing.T) {
	a := pmAddr(8, 32) // straddles lines 8 and 9
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 64, 2),
		ev(trace.KTxEnd, 0, 0, 0, 3),
	})
	wantSites(t, rep, map[Class]int{DirtyAtCommit: 2})
}

func TestFlushCoversOnlyItsLines(t *testing.T) {
	a := pmAddr(8, 32) // store straddles lines 8 and 9
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 64, 2),
		ev(trace.KFlush, 0, pmAddr(8, 0), 64, 3), // only line 8
		ev(trace.KFence, 0, 0, 0, 4),
		ev(trace.KTxEnd, 0, 0, 0, 5),
	})
	wantSites(t, rep, map[Class]int{DirtyAtCommit: 1})
	if v := rep.Violations[0]; v.Line != mem.LineOf(pmAddr(9, 0)) {
		t.Fatalf("wrong line flagged: %+v", v)
	}
}

func TestThreadsAreIndependent(t *testing.T) {
	a := pmAddr(10, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 8, 2),
		ev(trace.KFlush, 0, a, 8, 3),
		ev(trace.KFence, 1, 0, 0, 4), // thread 1's fence must not cover thread 0's flush
		ev(trace.KTxEnd, 0, 0, 0, 5),
	})
	wantSites(t, rep, map[Class]int{UnfencedFlush: 1, FenceNoWork: 1})
}

// TestCrashResetsState pins the KCrash semantics: a power failure empties
// every cache and abandons every open transaction, so dirty lines and
// unflushed tx stores from before the crash must not surface as ordering
// errors in the recovery path's transactions.
func TestCrashResetsState(t *testing.T) {
	a, b := pmAddr(1, 0), pmAddr(2, 0)
	rep := sanitize(t, []trace.Event{
		// Interrupted commit: two stores, one flushed, no fence, no TxEnd.
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, a, 8, 2),
		ev(trace.KStore, 0, b, 8, 3),
		ev(trace.KFlush, 0, b, 8, 4),
		ev(trace.KCrash, 0, 0, 0, 5),
		// Recovery-path transaction touching different lines entirely; the
		// pre-crash dirty line a and unfenced line b must not leak into it.
		ev(trace.KTxBegin, 0, 0, 0, 6),
		ev(trace.KStore, 0, pmAddr(3, 0), 8, 7),
		ev(trace.KFlush, 0, pmAddr(3, 0), 8, 8),
		ev(trace.KFence, 0, 0, 0, 9),
		ev(trace.KTxEnd, 0, 0, 0, 10),
	})
	wantSites(t, rep, map[Class]int{})
	if rep.Errors() != 0 {
		t.Fatalf("crash carried state into recovery: %d errors\n%s", rep.Errors(), rep)
	}
	// The thread state resets; the counts, which sanitize checks, do not.
	if rep.Fences != 1 || rep.Flushes != 2 {
		t.Fatalf("%d fences and %d flushes, want 1 and 2 across the crash", rep.Fences, rep.Flushes)
	}
}

// TestCrashResetsAllThreads pins that the reset is machine-wide, not
// per-thread: the crash event's TID is irrelevant.
func TestCrashResetsAllThreads(t *testing.T) {
	rep := sanitize(t, []trace.Event{
		ev(trace.KTxBegin, 1, 0, 0, 1),
		ev(trace.KStore, 1, pmAddr(4, 0), 8, 2),
		ev(trace.KCrash, 0, 0, 0, 3), // crash recorded on t0
		ev(trace.KTxBegin, 1, 0, 0, 4),
		ev(trace.KStore, 1, pmAddr(5, 0), 8, 5),
		ev(trace.KFlush, 1, pmAddr(5, 0), 8, 6),
		ev(trace.KFence, 1, 0, 0, 7),
		ev(trace.KTxEnd, 1, 0, 0, 8),
	})
	wantSites(t, rep, map[Class]int{})
}

func TestStoreOutsideTxNotFlaggedAtCommit(t *testing.T) {
	a := pmAddr(11, 0)
	rep := sanitize(t, []trace.Event{
		ev(trace.KStore, 0, a, 8, 1), // before the tx window
		ev(trace.KTxBegin, 0, 0, 0, 2),
		ev(trace.KTxEnd, 0, 0, 0, 3),
		ev(trace.KFlush, 0, a, 8, 4),
		ev(trace.KFence, 0, 0, 0, 5),
	})
	wantSites(t, rep, map[Class]int{})
}

// brokenWorkload seeds all five classes across two threads. Used by the
// true-positive test and as a fuzz seed.
func brokenWorkload() *trace.Trace {
	events := []trace.Event{
		// t0: dirty-at-commit on line 1, unfenced flush on line 2.
		ev(trace.KTxBegin, 0, 0, 0, 1),
		ev(trace.KStore, 0, pmAddr(1, 0), 8, 2),
		ev(trace.KStore, 0, pmAddr(2, 0), 8, 3),
		ev(trace.KFlush, 0, pmAddr(2, 0), 8, 4),
		ev(trace.KTxEnd, 0, 0, 0, 5),
		// t1: unfenced NT store on line 3.
		ev(trace.KTxBegin, 1, 0, 0, 6),
		ev(trace.KStoreNT, 1, pmAddr(3, 0), 64, 7),
		ev(trace.KTxEnd, 1, 0, 0, 8),
		// t0: redundant flush on line 4 (three flushes, one store).
		ev(trace.KStore, 0, pmAddr(4, 0), 8, 9),
		ev(trace.KFlush, 0, pmAddr(4, 0), 8, 10),
		ev(trace.KFlush, 0, pmAddr(4, 0), 8, 11),
		ev(trace.KFlush, 0, pmAddr(4, 0), 8, 12),
		ev(trace.KFence, 0, 0, 0, 13),
		// t1: the first fence drains the leaked NT store; the next two
		// order nothing.
		ev(trace.KFence, 1, 0, 0, 14),
		ev(trace.KFence, 1, 0, 0, 15),
		ev(trace.KFence, 1, 0, 0, 16),
	}
	return appended(&trace.Trace{App: "broken", Layer: "native", Threads: 2}, events)
}

// appended appends events to tr and returns it.
func appended(tr *trace.Trace, events []trace.Event) *trace.Trace {
	for _, e := range events {
		tr.Append(e)
	}
	return tr
}

func TestBrokenWorkloadCatchesAllFiveClasses(t *testing.T) {
	tr := brokenWorkload()
	rep, err := Run(trace.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	requireCounts(t, rep, tr.Events())
	wantSites(t, rep, map[Class]int{
		DirtyAtCommit:   1,
		UnfencedFlush:   1,
		UnfencedNTStore: 1,
		RedundantFlush:  1,
		FenceNoWork:     1, // aggregated per thread; t1's two hits are one site
	})
	if got := rep.classTotals()[RedundantFlush].hits; got != 2 {
		t.Errorf("redundant-flush hits = %d, want 2", got)
	}
	if got := rep.classTotals()[FenceNoWork].hits; got != 2 {
		t.Errorf("fence-without-work hits = %d, want 2", got)
	}
	if rep.Errors() != 3 {
		t.Errorf("errors = %d, want 3", rep.Errors())
	}

	// Stable diagnostics: the exact sites, in sorted order.
	want := []struct {
		class Class
		tid   uint16
		line  mem.Line
	}{
		{DirtyAtCommit, 0, mem.LineOf(pmAddr(1, 0))},
		{UnfencedFlush, 0, mem.LineOf(pmAddr(2, 0))},
		{UnfencedNTStore, 1, mem.LineOf(pmAddr(3, 0))},
		{RedundantFlush, 0, mem.LineOf(pmAddr(4, 0))},
		{FenceNoWork, 1, 0},
	}
	if len(rep.Violations) != len(want) {
		t.Fatalf("got %d violations, want %d:\n%s", len(rep.Violations), len(want), rep)
	}
	for i, w := range want {
		v := rep.Violations[i]
		if v.Class != w.class || v.TID != w.tid || v.Line != w.line {
			t.Errorf("violation %d = {%s t%d line=%#x}, want {%s t%d line=%#x}",
				i, v.Class, v.TID, uint64(v.Line), w.class, w.tid, uint64(w.line))
		}
	}
}

func TestReportByteIdenticalAcross20Runs(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		rep, err := Run(trace.NewSliceSource(brokenWorkload()))
		if err != nil {
			t.Fatal(err)
		}
		s := rep.String()
		if i == 0 {
			first = s
			continue
		}
		if s != first {
			t.Fatalf("run %d report differs:\n--- first\n%s\n--- run %d\n%s", i, first, i, s)
		}
	}
}

// perEvent hands a trace out in one-event chunks.
type perEvent struct {
	*trace.SliceSource
	rest []trace.Event
}

func (p *perEvent) NextChunk() ([]trace.Event, error) {
	if len(p.rest) == 0 {
		c, err := p.SliceSource.NextChunk()
		if err != nil {
			return nil, err
		}
		p.rest = c
	}
	c := p.rest[:1:1]
	p.rest = p.rest[1:]
	return c, nil
}

// TestChunkedAndUnchunkedAgree: no sanitizer state depends on where a
// chunk ends — the report over the trace's own chunks equals the report
// over the same events one per chunk.
func TestChunkedAndUnchunkedAgree(t *testing.T) {
	a, err := Run(trace.NewSliceSource(brokenWorkload()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(&perEvent{SliceSource: trace.NewSliceSource(brokenWorkload())})
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("chunked/unchunked reports differ:\n%s\n---\n%s", a, b)
	}
}

func TestRunOverEncodedTrace(t *testing.T) {
	// The same workload through the v2 codec must report identically.
	direct, err := Run(trace.NewSliceSource(brokenWorkload()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeSource(&buf, trace.NewSliceSource(brokenWorkload())); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Run(rd)
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != decoded.String() {
		t.Fatalf("decoded report differs:\n%s\n---\n%s", direct, decoded)
	}
}

func TestHostileEventSizes(t *testing.T) {
	// A decoded-from-fuzz trace can carry absurd sizes and wrapping
	// addresses; the sanitizer must stay bounded and not panic.
	rep := sanitize(t, []trace.Event{
		ev(trace.KStore, 0, pmAddr(0, 0), 1<<31-1, 1),
		ev(trace.KFlush, 0, ^mem.Addr(0)-4, 1<<31-1, 2), // wraps the address space
		ev(trace.KFence, 0, 0, 0, 3),
	})
	_ = rep.String()
}

// TestClassNames pins the class names in report order and the
// error/diagnostic split that the CLIs' exit codes depend on.
func TestClassNames(t *testing.T) {
	want := []string{
		"dirty-at-commit", "unfenced-flush", "unfenced-nt-store",
		"redundant-flush", "fence-without-work",
	}
	for i, name := range want {
		c, ok := ClassByName(name)
		if !ok || c != Class(i) || c.String() != name {
			t.Errorf("ClassByName(%q) = %v, %v; want class %d", name, c, ok, i)
		}
		if c.IsError() != (i < 3) {
			t.Errorf("%s: IsError = %v", name, c.IsError())
		}
	}
	if int(numClasses) != len(want) {
		t.Errorf("numClasses = %d, want %d", numClasses, len(want))
	}
	if _, ok := ClassByName("bogus"); ok {
		t.Error("unknown class name resolved")
	}
}
