package whisper

import (
	"bytes"
	"testing"

	"github.com/whisper-pm/whisper/internal/pmsan"
)

// TestSanitizerCleanAndByteIdentical is the sanitizer's core contract over
// the whole suite: for every benchmark, the serial (retained trace),
// streaming (inline tap), and stored-trace (SanitizeReader over the v2
// tee) paths produce byte-identical reports, and after the ordering fixes
// every app is clean — zero error-class sites and zero diagnostic sites.
func TestSanitizerCleanAndByteIdentical(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			serial, err := Run(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromTrace := Sanitize(serial.Trace)

			var tee bytes.Buffer
			fr, err := runFused(name, cfg, FusedConfig{Sanitize: true}, &tee)
			if err != nil {
				t.Fatal(err)
			}
			streamed := fr.San
			fromDisk, err := SanitizeReader(bytes.NewReader(tee.Bytes()))
			if err != nil {
				t.Fatal(err)
			}

			if got, want := streamed.String(), fromTrace.String(); got != want {
				t.Errorf("streaming report diverged from serial:\n got: %s\nwant: %s", got, want)
			}
			if got, want := fromDisk.String(), fromTrace.String(); got != want {
				t.Errorf("stored-trace report diverged from serial:\n got: %s\nwant: %s", got, want)
			}

			if fromTrace.Errors() != 0 {
				t.Errorf("ordering errors in %s:\n%s", name, fromTrace)
			}
			for c := pmsan.DirtyAtCommit; c <= pmsan.FenceNoWork; c++ {
				if n := fromTrace.Sites(c.String()); n != 0 {
					t.Errorf("%s: %d %s sites, want 0:\n%s", name, n, c, fromTrace)
				}
			}
		})
	}
}

// TestSanitizerParallelMatchesSerial pins that the sanitizer riding
// RunAllFused at four workers reports the same bytes as sanitizing each
// single Run's retained trace: worker scheduling must not leak into
// reports.
func TestSanitizerParallelMatchesSerial(t *testing.T) {
	cfg := Config{Ops: 8, Seed: 7}
	parallel, err := RunAllFused(Names(), cfg, FusedConfig{Sanitize: true}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(Names()) {
		t.Fatalf("%d passes for %d apps", len(parallel), len(Names()))
	}
	for i, name := range Names() {
		rep, err := Run(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sr, pr := Sanitize(rep.Trace), parallel[i].San; sr.String() != pr.String() {
			t.Errorf("%s: parallel sanitizer report diverged:\n got: %s\nwant: %s", name, pr, sr)
		}
	}
}

// TestSanitizeReaderRejectsGarbage pins the error path for corrupt traces.
func TestSanitizeReaderRejectsGarbage(t *testing.T) {
	if _, err := SanitizeReader(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("SanitizeReader accepted garbage")
	}
}
