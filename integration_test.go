package whisper

// System-level integration tests: these cut across the substrate layers
// the way the paper's methodology does — run a real application, then feed
// its trace to the analyses and the cache simulator, and inject crashes
// into full application stacks.

import (
	"fmt"
	"testing"

	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmfs"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// TestTraceDrivesCacheSim replays a recorded run through the cache
// hierarchy and sanity-checks the classification: PM traffic must reach
// PM. (The run counts its volatile traffic and records none of it; the
// routing of volatile events to DRAM is pinned in internal/cachesim.)
func TestTraceDrivesCacheSim(t *testing.T) {
	rt := recordApp(t, "hashmap", 2, 40, 5)

	h := cachesim.New(cachesim.DefaultConfig())
	st, err := cachesim.ReplaySource(h, trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if memAccesses(CacheStats(st)) == 0 {
		t.Fatal("no memory accesses reached the hierarchy")
	}
	if st.PMWrites+st.NTWrites == 0 {
		t.Fatal("no PM write-backs despite flushes")
	}
	if st.L1Hits == 0 {
		t.Fatal("no locality at all — cache model broken")
	}
}

// recordApp runs app's paper mix through the suite's one driver on a
// recording runtime.
func recordApp(t *testing.T, app string, clients, ops int, seed int64) *persist.Runtime {
	t.Helper()
	a, err := crashcheck.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	rt := persist.NewRuntime(a.Name, a.Layer, clients, persist.Config{})
	a.Run(rt, clients, ops, seed)
	return rt
}

// TestEveryAppSurvivesAdversarialCrash runs each transactional stack on
// its paper mix, crashes it adversarially in its last operation, recovers,
// and holds the image to the app's oracle: structural consistency, and
// every acknowledged operation intact.
func TestEveryAppSurvivesAdversarialCrash(t *testing.T) {
	for _, tc := range []struct {
		name, app  string
		seeds, ops int
	}{
		{"echo", "echo", 5, 8},
		{"vacation", "vacation", 5, 20},
		{"hashmap", "hashmap", 5, 40},
		{"pmfs-exim", "exim", 3, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := crashcheck.Config{Clients: 2, Ops: tc.ops, Points: []int{tc.ops - 1},
				Modes: []crashcheck.Mode{crashcheck.AdversarialSubset}}
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				cfg.Seeds = append(cfg.Seeds, seed)
			}
			res, err := crashcheck.CheckApp(tc.app, workload.Paper, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
		})
	}
}

// TestHeadlineFindings asserts the paper's abstract across the whole
// suite in one go (scaled down).
func TestHeadlineFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep")
	}
	passes, err := RunAllFused(Names(), Config{Ops: 20, Seed: 11}, FusedConfig{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var singles, self, cross float64
	for _, p := range passes {
		singles += p.Report.SingletonFraction
		self += p.Report.SelfDeps
		cross += p.Report.CrossDeps
	}
	n := float64(len(passes))
	if avg := singles / n; avg < 0.55 || avg > 0.95 {
		t.Errorf("average singleton fraction = %.2f, paper ~0.75", avg)
	}
	if self/n < 0.4 {
		t.Errorf("average self-deps = %.2f, paper ~0.5-0.8", self/n)
	}
	if cross/n > 0.10 {
		t.Errorf("average cross-deps = %.2f, paper << 0.1", cross/n)
	}
	// Transactions implemented with 5..50 ordering points for most apps.
	in := 0
	for _, p := range passes {
		if m := p.Report.MedianTxEpochs; m >= 4 && m <= 50 {
			in++
		}
	}
	if in < 6 {
		t.Errorf("only %d/11 apps in the 4..50 epochs/tx band", in)
	}
}

// TestFig10ShapeOnRealTraces asserts the Figure 10 ordering on actual
// application traces (not synthetic ones).
func TestFig10ShapeOnRealTraces(t *testing.T) {
	for _, name := range []string{"hashmap", "ycsb"} {
		rep, err := Run(name, Config{Ops: 50, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		norm := SimulateHOPS(rep.Trace, DefaultHOPSConfig())
		chain := []string{"IDEAL (NON-CC)", "HOPS (PWQ)", "HOPS (NVM)", "x86-64 (PWQ)", "x86-64 (NVM)"}
		for i := 1; i < len(chain); i++ {
			if norm[chain[i-1]] > norm[chain[i]]+1e-9 {
				t.Errorf("%s: %s (%.3f) slower than %s (%.3f)",
					name, chain[i-1], norm[chain[i-1]], chain[i], norm[chain[i]])
			}
		}
	}
}

// TestRecoveryIdempotent recovers twice after a crash on each layer; the
// second recovery must be a no-op.
func TestRecoveryIdempotent(t *testing.T) {
	rt := persist.NewRuntime("idem", "nvml", 1, persist.Config{})
	pool := nvml.Open(rt, 2048, nvml.Options{})
	m := hashstore.New(rt, pool, 64)
	for k := uint64(0); k < 12; k++ {
		m.Insert(0, k, k)
	}
	rt.Crash(pmem.Adversarial, 77)
	pool.Recover(rt.Thread(0))
	a := hashstore.Attach(rt, pool, 64).CountPersistent(0)
	pool.Recover(rt.Thread(0))
	b := hashstore.Attach(rt, pool, 64).CountPersistent(0)
	if a != b {
		t.Fatalf("recovery not idempotent: %d then %d", a, b)
	}
}

// TestScaleUp exercises a longer run end to end (guarded by -short) to
// shake out capacity issues: log wraps, allocator churn, directory growth.
func TestScaleUp(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	rt := recordApp(t, "hashmap", 4, 2000, 19)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TxEpochCounts) < 8000 {
		t.Fatalf("expected 8000 insert transactions, got %d", len(a.TxEpochCounts))
	}
	if a.TotalEpochs < 50000 {
		t.Fatalf("epochs = %d", a.TotalEpochs)
	}
	// The analysis must agree with a codec round trip at scale.
	var rep = Analyze(&Trace{tr: rt.Trace})
	if rep.TotalEpochs != a.TotalEpochs {
		t.Fatal("facade analysis diverged")
	}
}

// TestPMFSDeepStress drives many mixed operations with periodic crashes.
func TestPMFSDeepStress(t *testing.T) {
	rt := persist.NewRuntime("stress", "pmfs", 1, persist.Config{})
	th := rt.Thread(0)
	fs := pmfs.Format(rt, th, pmfs.Options{Inodes: 512, Blocks: 4096})
	if err := fs.Mkdir(th, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(th, "/a/b"); err != nil {
		t.Fatal(err)
	}
	live := map[string][]byte{}
	for i := 0; i < 120; i++ {
		path := fmt.Sprintf("/a/b/f%03d", i%40)
		switch i % 4 {
		case 0:
			if _, ok := live[path]; !ok {
				if err := fs.Create(th, path); err != nil {
					t.Fatalf("create %s: %v", path, err)
				}
				live[path] = nil
			}
		case 1:
			if _, ok := live[path]; ok {
				body := []byte(fmt.Sprintf("content-%d", i))
				if err := fs.WriteAt(th, path, 0, body); err != nil {
					t.Fatal(err)
				}
				live[path] = body
			}
		case 2:
			if want, ok := live[path]; ok && want != nil {
				got, err := fs.ReadAt(th, path, 0, len(want))
				if err != nil || string(got) != string(want) {
					t.Fatalf("read %s = %q, %v; want %q", path, got, err, want)
				}
			}
		case 3:
			if i%12 == 3 {
				rt.Crash(pmem.Adversarial, int64(i))
				fs.Recover(th)
			}
		}
	}
	// Final verification pass.
	for path, want := range live {
		if want == nil {
			continue
		}
		got, err := fs.ReadAt(th, path, 0, len(want))
		if err != nil || string(got) != string(want) {
			t.Fatalf("final %s = %q, %v", path, got, err)
		}
	}
}
