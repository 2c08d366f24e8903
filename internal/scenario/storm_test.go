package scenario

import (
	"fmt"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestStormAcceptance pins the PR's acceptance storm: storm-mixed runs
// ≥50 crash+recovery cycles under live traffic on four apps plus the
// kvservice, with zero oracle violations, mid-batch group-commit aborts
// actually firing, and every domain sanitizer-clean.
func TestStormAcceptance(t *testing.T) {
	s, err := Builtin("storm-mixed")
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]bool{}
	sawSvc := false
	for _, tn := range s.Tenants {
		if tn.App == "kvservice" {
			sawSvc = true
		} else {
			apps[tn.App] = true
		}
	}
	if len(apps) < 2 || !sawSvc {
		t.Fatalf("storm-mixed must mix >=2 apps and the kvservice, has %v svc=%v", apps, sawSvc)
	}
	res, err := Run(s, Config{Seed: 42, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashCycles < 50 {
		t.Fatalf("crash cycles = %d, want >= 50", res.CrashCycles)
	}
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("violation: %+v", v)
		}
	}
	if res.MidBatchAborts == 0 {
		t.Fatal("no group commit was ever aborted mid-batch")
	}
	if res.SanErrors() != 0 {
		t.Fatalf("sanitizer errors: %+v", res.Domains)
	}
	if res.Checks < res.CrashCycles*len(s.Tenants) {
		t.Fatalf("checks = %d, want >= cycles×tenants = %d", res.Checks, res.CrashCycles*len(s.Tenants))
	}
}

// TestKVServiceCrashStormRegression is the satellite regression: a
// kvservice-only storm where every cycle aborts a group commit mid-batch
// under live traffic must recover with zero oracle violations — no
// unpublished record may ever become visible.
func TestKVServiceCrashStormRegression(t *testing.T) {
	spec, err := Parse(strings.Join([]string{
		"scenario kv-midbatch",
		"tenant kvservice keys=128 shards=2 batch=8",
		"  phase ops=600 writes=80 zipf=1.2 vlen=48",
		"crash every=25 mode=alternate midbatch",
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Config{Seed: 7, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrashCycles < 20 || res.MidBatchAborts == 0 {
		t.Fatalf("cycles=%d midbatch=%d — storm did not exercise mid-batch crashes", res.CrashCycles, res.MidBatchAborts)
	}
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("violation: %+v", v)
		}
	}
	if res.SanErrors() != 0 {
		t.Fatalf("sanitizer errors: %+v", res.Domains)
	}
}

// TestDomainAnalysisRefusesAnUnrecordedRun: a service built without
// Config.Record keeps no events, and a sanitizer fed its empty trace would
// report 0 errors about nothing. Two things stand in the way: the service
// panics when asked for the trace, and domainResult holds whatever trace it
// is given to the devices' own fence count.
func TestDomainAnalysisRefusesAnUnrecordedRun(t *testing.T) {
	load := func(record bool) *kvservice.Service {
		svc := kvservice.New(kvservice.Config{Shards: 2, Batch: 4, Metrics: obs.NewRegistry(), Record: record})
		for i := 0; i < 40; i++ {
			svc.Put(fmt.Sprintf("key-%02d", i), []byte("value"))
		}
		svc.Flush()
		return svc
	}
	quiet := load(false)
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "Config.Record") {
				t.Fatalf("TraceSource on an unrecorded service: recovered %q, want the Config.Record panic", msg)
			}
		}()
		quiet.TraceSource()
	}()
	issued := quiet.Stats().Fences
	if _, err := domainResult("kv", trace.NewSliceSource(quiet.Runtime(0).Trace), issued); err == nil || !strings.Contains(err.Error(), "fences") {
		t.Fatalf("an empty trace against %d device fences: err = %v, want the fence mismatch", issued, err)
	}
	rec := load(true)
	d, err := domainResult("kv", rec.TraceSource(), rec.Stats().Fences)
	if err != nil || d.Fences != issued || d.SanErrors != 0 {
		t.Fatalf("recording twin: %+v, %v; want %d fences and a clean pass", d, err, issued)
	}
}

// tornTailSeed is the pinned adversarial crash seed for
// TestKVServiceTornTailPinned: under it, the crash persists some cache
// lines of the aborted batch's records and drops others, leaving a torn
// tail past the durable head.
const tornTailSeed = 1

// abortMidCommit enqueues a batch, forces an early commit, and aborts it
// mid-append. Returns the service with the shard's volatile head past its
// durable head.
func abortMidCommit(t *testing.T) *kvservice.Service {
	t.Helper()
	svc := kvservice.New(kvservice.Config{
		Shards: 1, Batch: 8, SegBytes: 1 << 14, Metrics: obs.NewRegistry(),
	})
	val := strings.Repeat("x", 120)
	for i := 0; i < 7; i++ {
		svc.Put(fmt.Sprintf("key-%02d", i), []byte(fmt.Sprintf("%s%d", val, i)))
	}
	// TxBegin is one event and each put appends with two (store+userdata):
	// a countdown of 12 lands inside the sixth record's append, after five
	// records are fully on the (volatile) device and before any flush.
	if !svc.Runtime(0).AbortAt(12, nil, func() { svc.FlushShard(0) }) {
		t.Fatal("commit was not aborted mid-batch")
	}
	return svc
}

// TestKVServiceTornTailPinned pins a seed whose adversarial crash tears
// the aborted batch's tail: some record lines persist, some vanish. The
// published head must fence the whole region off — recovery sees no
// unpublished record, torn or whole — and the service stays serviceable.
func TestKVServiceTornTailPinned(t *testing.T) {
	svc := abortMidCommit(t)
	lh, vh := svc.LogHeads(0)
	if vh <= lh {
		t.Fatalf("volatile head %d not past durable head %d after abort", vh, lh)
	}
	for _, b := range svc.DurableLog(0, lh, vh) {
		if b != 0 {
			t.Fatal("record bytes durable before the batch's group commit")
		}
	}

	svc.Crash(pmem.Adversarial, tornTailSeed)

	post := svc.DurableLog(0, lh, vh)
	kept, dropped := 0, 0
	for off := 0; off < len(post); off += 64 {
		nz := false
		for _, b := range post[off:min(off+64, len(post))] {
			if b != 0 {
				nz = true
				break
			}
		}
		if nz {
			kept++
		} else {
			dropped++
		}
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("seed %d: kept=%d dropped=%d lines — tail not torn; re-pin the seed", tornTailSeed, kept, dropped)
	}

	// No unpublished-record visibility: every key of the aborted batch is
	// gone, torn lines notwithstanding.
	for i := 0; i < 7; i++ {
		if _, ok := svc.Get(fmt.Sprintf("key-%02d", i)); ok {
			t.Fatalf("key-%02d visible after its batch was aborted", i)
		}
	}
	dh, dv := svc.LogHeads(0)
	if dh != lh || dv != lh {
		t.Fatalf("heads after recovery = (%d,%d), want both %d", dh, dv, lh)
	}

	// The shard overwrites the dead space and keeps serving.
	svc.Put("after-crash", []byte("alive"))
	svc.Flush()
	if v, ok := svc.Get("after-crash"); !ok || string(v) != "alive" {
		t.Fatalf("service not serviceable after recovery: (%q,%v)", v, ok)
	}
}

// TestKVServiceStrictCrashLosesBatchWhole is the strict-mode counterpart:
// everything unflushed vanishes, so the whole window reads zero.
func TestKVServiceStrictCrashLosesBatchWhole(t *testing.T) {
	svc := abortMidCommit(t)
	lh, vh := svc.LogHeads(0)
	svc.Crash(pmem.Strict, 1)
	for _, b := range svc.DurableLog(0, lh, vh) {
		if b != 0 {
			t.Fatal("strict crash left unflushed record bytes durable")
		}
	}
}
