package whisper

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/whisper-pm/whisper/internal/trace"
)

// sameTrace reports whether a and b hold the same run metadata, volatile
// counters and events; chunk boundaries are storage, not content.
func sameTrace(a, b *trace.Trace) bool {
	return a.App == b.App && a.Layer == b.Layer && a.Threads == b.Threads &&
		a.VolatileLoads == b.VolatileLoads && a.VolatileStores == b.VolatileStores &&
		slices.Equal(a.Events(), b.Events())
}

// TestStreamMatchesSerial is the pipeline's core contract: for every suite
// member, the streaming run — app goroutine piping events through the
// sharded analysis, no materialized trace — produces a report identical to
// the materialized Run path, and the v2 trace it tees out decodes to the
// exact trace Run records.
func TestStreamMatchesSerial(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			serial, err := Run(b.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tee bytes.Buffer
			fr, err := runFused(b.Name, cfg, FusedConfig{}, &tee)
			if err != nil {
				t.Fatal(err)
			}
			streamed := fr.Report
			if streamed.Trace != nil {
				t.Error("streamed report retained a trace")
			}
			// Field-identical reports (modulo the intentionally nil Trace).
			want := *serial
			want.Trace = nil
			got := *streamed
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report diverged:\n got: %+v\nwant: %+v", got, want)
			}
			if got.String() != serial.String() {
				t.Errorf("rendered report diverged:\n got: %s\nwant: %s", got.String(), serial.String())
			}

			// The tee'd v2 stream must decode to the exact trace Run saw.
			dec, err := DecodeTrace(bytes.NewReader(tee.Bytes()))
			if err != nil {
				t.Fatalf("decoding tee'd v2 trace: %v", err)
			}
			if !sameTrace(dec.tr, serial.Trace.tr) {
				t.Error("tee'd v2 trace != materialized trace")
			}

			// And analyzing the saved stream must reproduce the report again.
			fromDisk, err := AnalyzeReader(bytes.NewReader(tee.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*fromDisk, want) {
				t.Errorf("AnalyzeReader report diverged:\n got: %+v\nwant: %+v", *fromDisk, want)
			}
		})
	}
}

// TestRunStreamUnknownBenchmark pins the error path.
func TestRunStreamUnknownBenchmark(t *testing.T) {
	if _, err := runFused("nope", Config{}, FusedConfig{}, nil); err == nil {
		t.Fatal("runFused accepted an unknown benchmark")
	}
}

// TestAnalyzeReaderRejectsGarbage pins that a corrupt stream surfaces as
// an error, not a zeroed report.
func TestAnalyzeReaderRejectsGarbage(t *testing.T) {
	if _, err := AnalyzeReader(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("AnalyzeReader accepted garbage")
	}
}
