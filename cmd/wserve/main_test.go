package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/whisper-pm/whisper/internal/kvservice"
)

// tiny is a grid small enough for test speed but wide enough to exercise
// sharding, batching, and the capacity summary.
var tiny = []string{
	"-shards", "1,2", "-batch", "1,8", "-clients", "500,2000", "-ops", "2000",
}

func TestSweepEmitsParsableJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(tiny, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	res, err := kvservice.ReadJSON(&out)
	if err != nil {
		t.Fatalf("output not parsable: %v", err)
	}
	if len(res.Rows) != 2*2*2 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	if len(res.Capacity) != 4 {
		t.Fatalf("capacity points = %d, want 4", len(res.Capacity))
	}
}

func TestOutputFileAndSelfCheck(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "ref.json")
	var out, errb bytes.Buffer
	if code := run(append([]string{"-o", ref}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("sweep exit %d, stderr: %s", code, errb.String())
	}
	// The same flags must pass their own envelope with zero slack...
	out.Reset()
	errb.Reset()
	if code := run(append([]string{"-check", ref, "-slack", "1.0"}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("self-check exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "within the p99 envelope") {
		t.Fatalf("check output: %q", out.String())
	}
	// ...and a subset sweep must also pass (the CI smoke shape).
	out.Reset()
	errb.Reset()
	sub := []string{"-check", ref, "-shards", "2", "-batch", "8", "-clients", "500", "-ops", "2000"}
	if code := run(sub, &out, &errb); code != 0 {
		t.Fatalf("subset check exit %d, stderr: %s", code, errb.String())
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	var out, errb bytes.Buffer
	if code := run(append([]string{"-o", ref}, tiny...), &out, &errb); code != 0 {
		t.Fatal("sweep failed")
	}
	// Tighten every reference p99 to an impossible value: the real sweep
	// must now regress against it.
	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	var res kvservice.SweepResult
	if res, err = kvservice.ReadJSON(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		res.Rows[i].P99Us = 0.001
	}
	f, err := os.Create(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := kvservice.WriteJSON(f, res); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out.Reset()
	errb.Reset()
	if code := run(append([]string{"-check", ref}, tiny...), &out, &errb); code != 1 {
		t.Fatalf("regression exit = %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "p99 regression") {
		t.Fatalf("stderr does not name the regression: %q", errb.String())
	}
}

func TestSanCleanTrace(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-san", "-shards", "2", "-batch", "8", "-clients", "1000", "-ops", "2000",
		"-metrics", filepath.Join(t.TempDir(), "m.json")}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("san exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "wserve -san") {
		t.Fatalf("san output: %q", out.String())
	}
	requireSanitizerSawTheRun(t, out.String())
}

// requireSanitizerSawTheRun finds the non-vacuity line in a -san or -churn
// run's stdout and demands a nonzero fence count, the same on both sides.
func requireSanitizerSawTheRun(t *testing.T, stdout string) {
	t.Helper()
	const format = "wserve: sanitizer input holds %d fences, the shard devices issued %d"
	for _, line := range strings.Split(stdout, "\n") {
		var seen, issued uint64
		if n, _ := fmt.Sscanf(line, format, &seen, &issued); n == 2 {
			if seen == 0 || seen != issued {
				t.Fatalf("sanitizer input held %d fences, devices issued %d", seen, issued)
			}
			return
		}
	}
	t.Fatalf("no non-vacuity line in %q", stdout)
}

// TestSanitizeRefusesATraceThatIsNotTheRun: the sanitizer step errors out
// when the trace it would read disagrees with the devices about how many
// fences there were. (A service that recorded nothing never gets that far:
// its Trace panics, which internal/kvservice pins.)
func TestSanitizeRefusesATraceThatIsNotTheRun(t *testing.T) {
	_, svc := kvservice.Run(kvservice.SimConfig{Shards: 2, Batch: 8, Clients: 1000, Ops: 500, Record: true})
	var out bytes.Buffer
	if rep, err := sanitize(svc, &out); err != nil || rep.Errors() != 0 {
		t.Fatalf("recording run: %v, %v", rep, err)
	}
	requireSanitizerSawTheRun(t, out.String())
	svc.Runtime(0).Dev.ResetStats() // the devices now claim fewer fences than the trace holds
	if _, err := sanitize(svc, io.Discard); err == nil || !strings.Contains(err.Error(), "fences") {
		t.Fatalf("fence mismatch: err = %v", err)
	}
}

func TestChurnGate(t *testing.T) {
	var out, errb bytes.Buffer
	// 6000 ops keeps the test fast while still forcing many compaction
	// passes on the gate's 8 KiB segments.
	args := []string{"-churn", "-ops", "6000", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("churn exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	var res kvservice.ChurnResult
	dec := json.NewDecoder(&out)
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("churn output not parsable: %v", err)
	}
	if !res.Ok || res.Compactions == 0 || res.Rejects != 0 {
		t.Fatalf("churn verdict: %+v", res)
	}
	if res.Segments > res.SegLimit || res.SpaceAmp > res.AmpLimit {
		t.Fatalf("space not bounded: %+v", res)
	}
	rest, _ := io.ReadAll(dec.Buffered())
	if !strings.Contains(string(rest), "san_errors=0") {
		t.Fatalf("summary line missing clean sanitizer: %q", rest)
	}
	requireSanitizerSawTheRun(t, string(rest))
}

// TestCheckToleratesOldReference pins forward compatibility of the
// envelope gate: a reference artifact written before the compaction
// columns existed (no compactions/segments/space_amp fields) must still
// be accepted — the gate compares p99 only, never the added fields.
func TestCheckToleratesOldReference(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.json")
	var out, errb bytes.Buffer
	if code := run(append([]string{"-o", ref}, tiny...), &out, &errb); code != 0 {
		t.Fatal("sweep failed")
	}
	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the new columns from every row, as an old artifact would be.
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	rows, ok := doc["rows"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("no rows in artifact")
	}
	for _, r := range rows {
		row := r.(map[string]any)
		for _, k := range []string{"compactions", "segments", "live_bytes", "log_bytes", "space_amp", "deletes"} {
			delete(row, k)
		}
	}
	stripped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ref, stripped, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(append([]string{"-check", ref}, tiny...), &out, &errb); code != 0 {
		t.Fatalf("old reference rejected: exit %d, stderr: %s", code, errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown flag exit = %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"churn", "-san"}, &out, &errb); code != 2 || out.Len() != 0 {
		t.Fatalf("positional argument: exit = %d, stdout %q; want 2 and nothing run", code, out.String())
	}
	if !strings.Contains(errb.String(), "unexpected arguments: [churn -san]") {
		t.Fatalf("stderr: %q", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-shards", "1,zero"}, &out, &errb); code != 2 {
		t.Fatalf("bad list exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "bad list entry") {
		t.Fatalf("stderr: %q", errb.String())
	}
	if code := run([]string{"-check", filepath.Join(t.TempDir(), "absent.json")}, &out, &errb); code != 2 {
		t.Fatal("missing reference file should exit 2")
	}
	// A setting the simulator would silently replace with its default (or,
	// for -write above 100, misread) is refused before anything runs.
	for _, args := range [][]string{
		{"-write", "0"}, {"-write", "-5"}, {"-write", "101"},
		{"-value", "0"}, {"-value", "-1"},
		{"-zipf", "1"}, {"-zipf", "0.5"}, {"-zipf", "NaN"},
		{"-rate", "0"}, {"-rate", "-3"}, {"-rate", "NaN"},
		{"-keys", "0"},
		{"-ops", "0"}, {"-ops", "-1"},
		{"-maxwait", "0"},
		{"-opcycles", "0"},
		{"-seed", "0"},
		{"-churn", "-ops", "0"},
	} {
		out.Reset()
		errb.Reset()
		code := run(append([]string{"-shards", "1", "-batch", "1", "-clients", "500"}, args...), &out, &errb)
		if code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit = %d, stdout %q; want 2 and nothing run", args, code, out.String())
		}
		if flag := args[len(args)-2]; !strings.Contains(errb.String(), "bad "+flag+" ") {
			t.Errorf("%v: stderr %q does not name %s", args, errb.String(), flag)
		}
	}
}
