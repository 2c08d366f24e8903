package fsapps_test

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
	"github.com/whisper-pm/whisper/internal/workload"
)

// record runs app's paper mix through the suite's one driver on a
// recording runtime.
func record(t *testing.T, app string, clients, ops int, seed int64) *persist.Runtime {
	t.Helper()
	a, err := crashcheck.Lookup(app)
	if err != nil {
		t.Fatal(err)
	}
	rt := persist.NewRuntime(a.Name, a.Layer, clients, persist.Config{})
	a.Run(rt, clients, ops, seed)
	return rt
}

// agrees runs the same workload with the filesystem oracle attached and
// requires the final image to match its model: every file the workload
// created, wrote, appended to or unlinked holds exactly the bytes the
// calls acknowledged (a checker run with one boundary cell, whose golden
// run fails on any disagreement).
func agrees(t *testing.T, app string, clients, ops int, seed int64) {
	t.Helper()
	res, err := crashcheck.CheckApp(app, workload.Paper, crashcheck.Config{
		Clients: clients, Ops: clients * ops, Seeds: []int64{seed},
		Points: []int{clients*ops - 1}, Modes: []crashcheck.Mode{crashcheck.AllPersisted},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
}

func TestRunNFS(t *testing.T) {
	rt := record(t, "nfs", 4, 30, 41)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEpochs == 0 {
		t.Fatal("no epochs")
	}
	// NFS has the big 64-line epochs from block writes (Figure 4).
	if a.SizeHist[6] == 0 {
		t.Error("no >=64-line epochs despite block writes")
	}
	// PMFS userdata goes through NTIs (§5.2: ~96%).
	if a.NTIFraction() < 0.5 {
		t.Errorf("NTI fraction = %.2f, want high", a.NTIFraction())
	}
	agrees(t, "nfs", 4, 30, 41)
}

func TestRunExim(t *testing.T) {
	rt := record(t, "exim", 2, 10, 43)
	// Setup's 3 mkdirs, the log and 250 mailboxes, then five durable
	// calls per delivery: spool create and write, mailbox and log appends,
	// spool unlink.
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if n, want := len(a.TxEpochCounts), 254+5*20; n != want {
		t.Fatalf("durable calls = %d, want %d", n, want)
	}
	agrees(t, "exim", 2, 10, 43)
}

func TestRunMySQL(t *testing.T) {
	rt := record(t, "mysql", 2, 20, 47)
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	// MySQL has the lowest self-dependency rate of the suite (Fig. 5).
	if a.SelfDepFraction() > 0.8 {
		t.Errorf("self-dep fraction = %.2f, expected low-ish for MySQL", a.SelfDepFraction())
	}
	agrees(t, "mysql", 2, 20, 47)
}

func TestEximMedianTxSmall(t *testing.T) {
	// Figure 3: exim median 5 epochs per transaction (= system call).
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(record(t, "exim", 1, 10, 53).Trace))
	if err != nil {
		t.Fatal(err)
	}
	med := a.MedianTxEpochs()
	if med < 2 || med > 12 {
		t.Errorf("median epochs/syscall = %d, paper reports 5", med)
	}
}

func TestFSAppsPMFraction(t *testing.T) {
	// Filesystem apps still have mostly volatile traffic.
	a, err := epoch.AnalyzeStream(trace.NewSliceSource(record(t, "nfs", 2, 20, 59).Trace))
	if err != nil {
		t.Fatal(err)
	}
	if a.DRAMAccesses == 0 {
		t.Fatal("no volatile accounting")
	}
}
