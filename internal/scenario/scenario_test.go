package scenario

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/obs"
)

func TestParseRoundTrip(t *testing.T) {
	src := `
# storm with two tenants
scenario demo
tenant ctree keys=128
  phase ops=50 writes=60 dels=10 zipf=1.5
  phase ops=50 writes=60 dels=10 hot=90/16 rotate=25 vlen=8
tenant kvservice keys=256 shards=2 batch=4
  phase ops=80 writes=70 zipf=1.2 vlen=24 think=100
crash every=40 mode=alternate midbatch
`
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "demo" || len(spec.Tenants) != 2 {
		t.Fatalf("parsed %q with %d tenants", spec.Name, len(spec.Tenants))
	}
	if spec.Tenants[0].Phases[1].HotKeys != 16 || spec.Tenants[0].Phases[1].Rotate != 25 {
		t.Fatalf("hotspot phase parsed wrong: %+v", spec.Tenants[0].Phases[1])
	}
	if !spec.Crash.MidBatch || spec.Crash.Every != 40 {
		t.Fatalf("crash plan parsed wrong: %+v", spec.Crash)
	}
	again, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", spec.String(), again.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown app", "scenario x\ntenant mongodb\n  phase ops=5\n", "unknown app"},
		{"orphan phase", "scenario x\nphase ops=5\n", "phase before any tenant"},
		{"no tenants", "scenario x\n", "no tenants"},
		{"no phases", "scenario x\ntenant ctree\n", "no phases"},
		{"bad ops", "scenario x\ntenant ctree\n  phase ops=zero\n", "bad ops"},
		{"zero ops", "scenario x\ntenant ctree\n  phase ops=0\n", "ops must be positive"},
		{"bad directive", "flood everything\n", "unknown directive"},
		{"bad kv", "scenario x\ntenant ctree keys\n  phase ops=1\n", "want key=value"},
		{"bad mode", "scenario x\ntenant ctree\n  phase ops=1\ncrash every=5 mode=chaotic\n", "crash mode"},
		{"mix overflow", "scenario x\ntenant ctree\n  phase ops=1 writes=80 dels=30\n", "out of range"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestBuiltinsValidAndRoundTrip(t *testing.T) {
	for _, name := range Names() {
		s, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("%s: re-parse: %v", name, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("%s: builtin does not round-trip:\n%s", name, s.String())
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Fatal("unknown builtin did not error")
	}
}

// renderRun executes a builtin and returns the report bytes, using a
// private registry so runs never share instrument state.
func renderRun(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	s, err := Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, Config{Seed: seed, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuiltinsByteIdentical is the determinism property test: every
// builtin scenario's report is byte-identical across 20 runs at a fixed
// seed, and across GOMAXPROCS 1, 2 and 4 — the engine is single-goroutine
// and clocked by the simulator, so parallelism must not leak in.
func TestBuiltinsByteIdentical(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			ref := renderRun(t, name, 42)
			runs := 20
			if name != "smoke" && testing.Short() {
				runs = 3
			}
			for i := 1; i < runs; i++ {
				if got := renderRun(t, name, 42); !bytes.Equal(got, ref) {
					t.Fatalf("run %d diverged from run 0", i)
				}
			}
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				if got := renderRun(t, name, 42); !bytes.Equal(got, ref) {
					t.Fatalf("GOMAXPROCS=%d diverged", procs)
				}
			}
		})
	}
}

// TestSeedChangesSchedule guards against a degenerate constant engine:
// different seeds must produce different reports.
func TestSeedChangesSchedule(t *testing.T) {
	if bytes.Equal(renderRun(t, "smoke", 1), renderRun(t, "smoke", 2)) {
		t.Fatal("seeds 1 and 2 produced identical reports")
	}
}

// TestRunSpecWithViolationFields sanity-checks the report plumbing on a
// tiny custom spec with no crashes: violations empty, tenants and domains
// populated, ops conserved.
func TestRunSpecReportShape(t *testing.T) {
	spec, err := Parse("scenario tiny\ntenant redis keys=32\n  phase ops=40 writes=50 dels=10\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Config{Seed: 3, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() || res.Ops != 40 || res.CrashCycles != 0 {
		t.Fatalf("res = ops=%d cycles=%d viol=%d", res.Ops, res.CrashCycles, len(res.Violations))
	}
	if len(res.Tenants) != 1 || res.Tenants[0].App != "redis" || res.Tenants[0].Ops != 40 {
		t.Fatalf("tenants = %+v", res.Tenants)
	}
	if len(res.Domains) != 1 || res.Domains[0].Domain != "apps" || res.Domains[0].Events == 0 {
		t.Fatalf("domains = %+v", res.Domains)
	}
	if res.Domains[0].SanErrors != 0 {
		t.Fatalf("sanitizer errors on clean run: %+v", res.Domains[0])
	}
}

// TestScenarioMetrics checks the scenario_* instruments register and
// count without perturbing the run.
func TestScenarioMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Builtin("smoke")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, Config{Seed: 9, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	for _, want := range []string{
		"scenario_ops_total{scenario=smoke,tenant=ctree}",
		"scenario_ops_total{scenario=smoke,tenant=kvservice}",
		"scenario_crashes_total{mode=adversarial,scenario=smoke}",
		"scenario_crashes_total{mode=strict,scenario=smoke}",
		"scenario_violations_total{scenario=smoke}",
		"scenario_midbatch_aborts_total{scenario=smoke}",
		"scenario_cycle_ops{scenario=smoke}",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %s", want)
		}
	}
	// Instruments must not perturb: a metrics-off run renders identically.
	bare, err := Run(s, Config{Seed: 9, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := res.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := bare.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("metrics registry choice changed the run")
	}
}

// TestDuplicateTenantLabels checks that two tenants of the same app get
// distinct labels and both make progress.
func TestDuplicateTenantLabels(t *testing.T) {
	spec, err := Parse(strings.Join([]string{
		"scenario twins",
		"tenant ctree keys=32",
		"  phase ops=20 writes=80",
		"tenant ctree keys=32",
		"  phase ops=20 writes=80",
		"",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec, Config{Seed: 5, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok() {
		t.Fatalf("violations: %+v", res.Violations)
	}
	labels := map[string]bool{}
	for _, tr := range res.Tenants {
		labels[tr.Tenant] = true
		if tr.Ops != 20 {
			t.Fatalf("tenant %s ran %d ops, want 20", tr.Tenant, tr.Ops)
		}
	}
	if !labels["ctree-0"] || !labels["ctree-1"] {
		t.Fatalf("labels = %v, want ctree-0 and ctree-1", labels)
	}
}
