package kvservice

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

func TestPutGetFlush(t *testing.T) {
	svc := New(Config{Shards: 2, Batch: 4})
	for i := 0; i < 10; i++ {
		svc.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	// Reads must see both committed batches and writes still pending.
	for i := 0; i < 10; i++ {
		got, ok := svc.Get(fmt.Sprintf("k%d", i))
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(k%d) = %q, %v", i, got, ok)
		}
	}
	if _, ok := svc.Get("missing"); ok {
		t.Fatal("Get(missing) found something")
	}
	// Overwrite in a pending batch wins over the committed record.
	svc.Put("k0", []byte("v0-new"))
	if got, _ := svc.Get("k0"); string(got) != "v0-new" {
		t.Fatalf("pending overwrite invisible: %q", got)
	}
	svc.Flush()
	if got, _ := svc.Get("k0"); string(got) != "v0-new" {
		t.Fatalf("overwrite lost at flush: %q", got)
	}
	// Values must be copied, not aliased.
	v := []byte("aliased")
	svc.Put("alias", v)
	v[0] = 'X'
	if got, _ := svc.Get("alias"); string(got) != "aliased" {
		t.Fatalf("Put aliased the caller's slice: %q", got)
	}
}

// TestGroupCommitTraceShape pins the fence economics the service exists
// to demonstrate: a full batch of B puts commits under exactly two
// fences (records+metadata, then the published head), the same bill a
// single put pays at batch size 1.
func TestGroupCommitTraceShape(t *testing.T) {
	svc := New(Config{Shards: 1, Batch: 4, Record: true})
	initFences := svc.Runtime(0).Trace.CountKind(trace.KFence)
	for i := 0; i < 4; i++ {
		svc.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 32))
	}
	tr := svc.Runtime(0).Trace
	if got := tr.CountKind(trace.KFence) - initFences; got != 2 {
		t.Fatalf("batch of 4 puts used %d fences, want 2", got)
	}
	if got := tr.CountKind(trace.KTxBegin); got != 2 { // format + batch
		t.Fatalf("TxBegin count = %d, want 2", got)
	}
	// The batch's transaction must close after its last fence.
	all := tr.Events()
	if last := all[len(all)-1]; last.Kind != trace.KTxEnd {
		t.Fatalf("trace does not end at TxEnd: %v", last)
	}
	// A read-only batch adds no fences at all.
	before := tr.CountKind(trace.KFence)
	for i := 0; i < 4; i++ {
		svc.shards[0].pending = append(svc.shards[0].pending,
			request{op: workload.KVOp{Kind: workload.OpRead, Key: fmt.Sprintf("k%d", i)}})
	}
	svc.Flush()
	if got := svc.Runtime(0).Trace.CountKind(trace.KFence); got != before {
		t.Fatalf("read-only batch issued %d fences", got-before)
	}
}

// TestStatsFencesMatchTrace pins Stats().Fences — read from the shard
// devices' counters — to what analysis tools count in the shard traces,
// through compactions and across a crash and its recovery.
func TestStatsFencesMatchTrace(t *testing.T) {
	svc := New(Config{Shards: 2, Batch: 4, SegBytes: 1024, Record: true})
	check := func(when string) {
		t.Helper()
		var want uint64
		for i := 0; i < svc.Shards(); i++ {
			want += uint64(svc.Runtime(i).Trace.CountKind(trace.KFence))
		}
		if got := svc.Stats().Fences; got != want || got == 0 {
			t.Fatalf("%s: Stats().Fences = %d, traces hold %d KFence events", when, got, want)
		}
	}
	check("after format")
	load := func(round int) {
		for i := 0; i < 200; i++ {
			svc.Put(fmt.Sprintf("k%02d", i%23), bytes.Repeat([]byte{byte(round)}, 40+i%9))
		}
		svc.Delete("k03")
		svc.Flush()
	}
	load(1)
	if svc.Space().Compactions == 0 {
		t.Fatal("no compaction ran; the copy-forward fences are untested")
	}
	check("after load")
	if err := svc.Crash(pmem.Strict, 5); err != nil {
		t.Fatal(err)
	}
	check("after crash")
	load(2)
	check("after post-crash load")
}

func TestCrashRecovery(t *testing.T) {
	svc := New(Config{Shards: 2, Batch: 4})
	for i := 0; i < 8; i++ {
		svc.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	svc.Put("k0", []byte("v0-final"))
	svc.Flush() // everything above is durable
	svc.Put("lost-pending", []byte("never committed"))

	// A record appended to the log but not head-published must also die:
	// drive the store directly past the service batching.
	sh := svc.shards[0]
	sh.th.TxBegin()
	sh.st.put("lost-torn", []byte("appended, unpublished"))
	sh.st.group.Commit() // records durable, head NOT published
	sh.th.TxEnd()

	svc.Crash(pmem.Strict, 42)

	for i := 1; i < 8; i++ {
		got, ok := svc.Get(fmt.Sprintf("k%d", i))
		if !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered Get(k%d) = %q, %v", i, got, ok)
		}
	}
	if got, _ := svc.Get("k0"); string(got) != "v0-final" {
		t.Fatalf("recovery resurrected an old version: %q", got)
	}
	if _, ok := svc.Get("lost-pending"); ok {
		t.Fatal("uncommitted pending write survived the crash")
	}
	if _, ok := svc.Get("lost-torn"); ok {
		t.Fatal("appended-but-unpublished record survived recovery")
	}
	// The recovered service must accept new work.
	svc.Put("after", []byte("crash"))
	svc.Flush()
	if got, _ := svc.Get("after"); string(got) != "crash" {
		t.Fatalf("post-recovery put lost: %q", got)
	}
}

// TestCrashRecoverySegmentGrowth forces the log across many segments
// (tiny SegBytes) so recovery exercises pad markers, implicit tail pads
// and the durable segment table.
func TestCrashRecoverySegmentGrowth(t *testing.T) {
	svc := New(Config{Shards: 1, Batch: 4, SegBytes: 256})
	want := map[string]string{}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("key%02d", i%17) // overwrites mixed with inserts
		v := fmt.Sprintf("%03d:%s", i, bytes.Repeat([]byte{'x'}, 50+i%37))
		svc.Put(k, []byte(v))
		want[k] = v
	}
	svc.Flush()
	if nsegs := svc.shards[0].st.head / 256; nsegs < 10 {
		t.Fatalf("log stayed in %d segments; growth path untested", nsegs)
	}
	svc.Crash(pmem.Strict, 7)
	if got := len(svc.shards[0].st.keys); got != len(want) {
		t.Fatalf("recovered %d keys, want %d", got, len(want))
	}
	for k, v := range want {
		got, ok := svc.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("recovered Get(%s) = %q, %v; want %q", k, got, ok, v)
		}
	}
}

// TestServiceTraceCleanUnderAnalysis streams a whole simulated run's
// merged trace through the durability sanitizer and the epoch analysis:
// group commit must not cost the service its persistency discipline.
func TestServiceTraceCleanUnderAnalysis(t *testing.T) {
	_, svc := Run(SimConfig{Shards: 3, Batch: 8, Clients: 2000, Ops: 4000, Record: true})
	rep, err := pmsan.Run(trace.NewSliceSource(svc.Trace()))
	if err != nil {
		t.Fatalf("pmsan: %v", err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("sanitizer found %d error sites:\n%s", rep.Errors(), rep)
	}
	an, err := epoch.AnalyzeStream(trace.NewSliceSource(svc.Trace()))
	if err != nil {
		t.Fatalf("epoch analysis: %v", err)
	}
	if an.TotalEpochs == 0 {
		t.Fatal("epoch analysis saw no epochs in a run with thousands of commits")
	}
}

// TestConcurrentClients hammers the concurrent API from many goroutines;
// its real assertion is the race detector run in CI.
func TestConcurrentClients(t *testing.T) {
	svc := New(Config{Shards: 4, Batch: 8})
	const workers, opsEach = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				if i%4 == 0 {
					svc.Get(k)
				} else {
					svc.Put(k, []byte(fmt.Sprintf("w%d-v%d", w, i)))
				}
			}
		}(w)
	}
	wg.Wait()
	svc.Flush()
	// Every worker's final value for each of its keys must be readable;
	// keys are worker-private so the last write is well defined.
	for w := 0; w < workers; w++ {
		last := map[string]string{}
		for i := 0; i < opsEach; i++ {
			if i%4 != 0 {
				last[fmt.Sprintf("w%d-k%d", w, i%50)] = fmt.Sprintf("w%d-v%d", w, i)
			}
		}
		for k, v := range last {
			got, ok := svc.Get(k)
			if !ok || string(got) != v {
				t.Fatalf("Get(%s) = %q, %v; want %q", k, got, ok, v)
			}
		}
	}
	st := svc.Stats()
	if st.Puts != workers*opsEach*3/4 {
		t.Fatalf("puts = %d, want %d", st.Puts, workers*opsEach*3/4)
	}
}

func TestShardForStableAndBounded(t *testing.T) {
	svc := New(Config{Shards: 5})
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key%08d", i)
		s1, s2 := svc.ShardFor(k), svc.ShardFor(k)
		if s1 != s2 {
			t.Fatalf("ShardFor(%s) unstable: %d vs %d", k, s1, s2)
		}
		if s1 < 0 || s1 >= 5 {
			t.Fatalf("ShardFor(%s) = %d out of range", k, s1)
		}
		seen[s1] = true
	}
	if len(seen) != 5 {
		t.Fatalf("only %d of 5 shards ever selected", len(seen))
	}
}
