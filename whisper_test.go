package whisper

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/whisper-pm/whisper/internal/trace"
)

func TestSuiteComplete(t *testing.T) {
	// The paper's Table 1 lists ten applications; N-store contributes two
	// workloads, so the suite has eleven entries.
	names := Names()
	want := []string{"echo", "ycsb", "tpcc", "redis", "ctree", "hashmap",
		"vacation", "memcached", "nfs", "exim", "mysql"}
	if len(names) != len(want) {
		t.Fatalf("suite = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestLayersMatchPaper(t *testing.T) {
	layers := map[string]string{
		"echo": "native", "ycsb": "native", "tpcc": "native",
		"redis": "nvml", "ctree": "nvml", "hashmap": "nvml",
		"vacation": "mnemosyne", "memcached": "mnemosyne",
		"nfs": "pmfs", "exim": "pmfs", "mysql": "pmfs",
	}
	for _, b := range Benchmarks() {
		if b.Layer != layers[b.Name] {
			t.Errorf("%s layer = %s, want %s", b.Name, b.Layer, layers[b.Name])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunSmall(t *testing.T) {
	rep, err := Run("hashmap", Config{Clients: 2, Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.App != "hashmap" || rep.Layer != "nvml" {
		t.Fatalf("report identity: %s/%s", rep.App, rep.Layer)
	}
	if rep.TotalEpochs == 0 || rep.Transactions == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty String()")
	}
}

// onOneAndTwoProcs runs body with GOMAXPROCS 1 and 2: a run is exec ∥
// analysis, and its output must not depend on whether the two stages share
// a core or have one each.
func onOneAndTwoProcs(t *testing.T, body func(t *testing.T)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t)
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	onOneAndTwoProcs(t, func(t *testing.T) {
		a, _ := Run("ctree", Config{Clients: 2, Ops: 15, Seed: 9})
		b, _ := Run("ctree", Config{Clients: 2, Ops: 15, Seed: 9})
		if a.TotalEpochs != b.TotalEpochs || a.MedianTxEpochs != b.MedianTxEpochs {
			t.Fatal("same seed, different reports")
		}
		c, _ := Run("ctree", Config{Clients: 2, Ops: 15, Seed: 10})
		if a.Trace.Events() == c.Trace.Events() && a.TotalEpochs == c.TotalEpochs {
			// Weak check; different seeds usually shift the interleaving.
			t.Log("warning: different seeds produced identical shapes")
		}
	})
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	rep, err := Run("redis", Config{Ops: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := Analyze(tr2)
	if rep2.TotalEpochs != rep.TotalEpochs || rep2.SelfDeps != rep.SelfDeps {
		t.Fatal("analysis changed across encode/decode")
	}
	if tr2.App() != "redis" || tr2.tr.Layer != "nvml" || tr2.Events() == 0 {
		t.Fatal("trace metadata lost")
	}
}

// TestRetainedTraceBytesPerEvent: a report holds its run's trace as the
// trace file holds it, packed v3 blocks, so keeping it costs at most 5.5
// bytes of live heap an event — not the 24 of an Event, nor v2's 7.4 —
// and Encode writes those blocks as they are: a Writer fed the same events
// writes the same bytes.
func TestRetainedTraceBytesPerEvent(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := Run("ycsb", Config{Ops: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := rep.Trace.Events()
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	perEvent := float64(live) / float64(n)
	t.Logf("%d events hold %d bytes live with their report, %.2f B/event", n, live, perEvent)
	if perEvent > 5.5 {
		t.Errorf("%d events hold %d bytes live with their report, %.2f B/event, want <= 5.5", n, live, perEvent)
	}

	var got, want bytes.Buffer
	if err := rep.Trace.Encode(&got); err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(&want, trace.Meta{App: rep.Trace.tr.App, Layer: rep.Trace.tr.Layer, Threads: rep.Trace.tr.Threads})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Trace.tr.Events() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(rep.Trace.tr.VolatileLoads, rep.Trace.tr.VolatileStores); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Encode wrote %d bytes, a Writer fed the same %d events %d, or they differ", got.Len(), n, want.Len())
	}
	runtime.KeepAlive(rep)
}

func TestSimulateHOPS(t *testing.T) {
	rep, err := Run("hashmap", Config{Clients: 2, Ops: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	norm := SimulateHOPS(rep.Trace, DefaultHOPSConfig())
	if len(norm) != 5 {
		t.Fatalf("models = %d", len(norm))
	}
	if norm["x86-64 (NVM)"] != 1.0 {
		t.Fatalf("baseline = %v", norm["x86-64 (NVM)"])
	}
	if !(norm["HOPS (NVM)"] < 1.0) {
		t.Errorf("HOPS (%v) not faster than baseline", norm["HOPS (NVM)"])
	}
	if !(norm["IDEAL (NON-CC)"] <= norm["HOPS (PWQ)"]) {
		t.Errorf("IDEAL (%v) slower than HOPS PWQ (%v)",
			norm["IDEAL (NON-CC)"], norm["HOPS (PWQ)"])
	}
	for _, name := range HOPSModels() {
		if _, ok := norm[name]; !ok {
			t.Errorf("model %q missing from results", name)
		}
	}
}

// TestSimulateHOPSZeroSizes pins that a zero HOPSConfig replays at the
// paper's persist-buffer size instead of panicking (an empty persist
// buffer indexed at its head): it equals the same config spelt out.
// DrainAt <= 0 keeps its documented meaning, fully eager.
func TestSimulateHOPSZeroSizes(t *testing.T) {
	rep, err := Run("hashmap", Config{Clients: 2, Ops: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	spelt := HOPSConfig{PBEntries: 32, DrainAt: 1}
	got, want := SimulateHOPS(rep.Trace, HOPSConfig{}), SimulateHOPS(rep.Trace, spelt)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the zero config replayed as %v, want %v (%+v)", got, want, spelt)
	}
}

// TestParallelSuiteMatchesSerial asserts the parallel runner's contract:
// for a fixed seed, RunAllFused at one worker and at four produces the
// reports of single Run calls, and trace files byte-identical to those
// runs' retained traces — scheduling the runs concurrently must not perturb
// any simulated outcome.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	onOneAndTwoProcs(t, testParallelSuiteMatchesSerial)
}

func testParallelSuiteMatchesSerial(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	names := Names()
	serial := make([]Report, len(names))
	serialTrace := make([][]byte, len(names))
	for i, name := range names {
		rep, err := Run(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Trace.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		serial[i], serialTrace[i] = *rep, buf.Bytes()
		serial[i].Trace = nil
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		files := map[string]*teeFile{}
		par, err := RunAllFused(names, cfg, FusedConfig{}, workers, func(name string) (io.WriteCloser, error) {
			mu.Lock()
			defer mu.Unlock()
			files[name] = &teeFile{}
			return files[name], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(par), len(serial))
		}
		for i, name := range names {
			if got, want := *par[i].Report, serial[i]; !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: %s report diverged:\n got: %s\nwant: %s", workers, name, got.String(), want.String())
			}
			if !bytes.Equal(files[name].Bytes(), serialTrace[i]) {
				t.Errorf("workers=%d: %s raw trace not byte-identical to serial", workers, name)
			}
		}
	}
}

func TestEverySuiteMemberRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep in long mode only")
	}
	for _, b := range Benchmarks() {
		rep, err := Run(b.Name, Config{Clients: 2, Ops: 10, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if rep.TotalEpochs == 0 {
			t.Errorf("%s: no epochs", b.Name)
		}
		if rep.EpochsPerSecond <= 0 {
			t.Errorf("%s: zero epoch rate", b.Name)
		}
	}
}

// TestEchoSlabExhaustionIsNamed: echo's 16 MiB slab fills at about 2 400
// passes, and the run comes back as an error that says so, where the
// master stored through the 0 a full slab returns and failed with "pmem:
// address 0x0(dram) is not persistent".
func TestEchoSlabExhaustionIsNamed(t *testing.T) {
	const want = "whisper: echo panicked: echo: slab exhausted allocating a version"
	if _, err := Run("echo", Config{Ops: 3000}); err == nil || err.Error() != want {
		t.Fatalf("Run(echo, 3000 ops) = %v, want %q", err, want)
	}
}

// TestPanickingMemberIsOneError pins the one panic contract: a suite
// member that panics mid-run — redis exhausting its nvml pool, which it
// does between 60 000 and 100 000 operations — comes back as the same error
// from every entry point, takes nothing else down with it, and leaves no
// goroutine of its two-stage run behind.
func TestPanickingMemberIsOneError(t *testing.T) {
	cfg := Config{Ops: 5, Seed: 2}
	goroutines := runtime.NumGoroutine()
	before, err := Run("echo", cfg)
	if err != nil {
		t.Fatal(err)
	}

	boom := Config{Clients: 1, Ops: 100000, Seed: 2}
	const want = "whisper: redis panicked: nvml: pool exhausted allocating 120 bytes"
	_, runErr := Run("redis", boom)
	_, streamErr := runFused("redis", boom, FusedConfig{Sanitize: true}, nil)
	_, fusedErr := RunAllFused([]string{"redis"}, boom, FusedConfig{}, 4, nil)
	for name, err := range map[string]error{
		"Run": runErr, "runFused": streamErr, "RunAllFused": fusedErr,
	} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: error = %v, want %q", name, err, want)
		}
	}

	after, err := Run("echo", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("a panicking member changed another member's report")
	}

	// A recorder exits after closing its tail, which can be a moment after
	// the reader has returned: wait for the count to settle, not for a time.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the failed runs, %d before them", n, goroutines)
	}
}
