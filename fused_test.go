package whisper

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/trace"
)

// TestFusedMatchesStandalone is the fused-mode contract: for every suite
// member, one fused pass produces an epoch report, sanitizer report, and
// cache statistics byte-identical to the three standalone replays.
func TestFusedMatchesStandalone(t *testing.T) {
	cfg := Config{Ops: 10, Seed: 13}
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			serial, err := Run(b.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantSan := Sanitize(serial.Trace)
			wantStats, err := cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), trace.NewSliceSource(serial.Trace.tr))
			if err != nil {
				t.Fatal(err)
			}
			wantCache := CacheStats{
				L1Hits:     wantStats.L1Hits,
				L2Hits:     wantStats.L2Hits,
				RemoteHits: wantStats.RemoteHits,
				DRAMReads:  wantStats.DRAMReads,
				DRAMWrites: wantStats.DRAMWrites,
				PMReads:    wantStats.PMReads,
				PMWrites:   wantStats.PMWrites,
				NTWrites:   wantStats.NTWrites,
				Evictions:  wantStats.Evictions,
			}
			want := *serial
			want.Trace = nil

			var tee bytes.Buffer
			fused, err := runFused(b.Name, cfg, FusedConfig{Sanitize: true, Cache: true}, &tee)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*fused.Report, want) {
				t.Errorf("fused epoch report diverged:\n got: %+v\nwant: %+v", *fused.Report, want)
			}
			if got, wantStr := fused.San.String(), wantSan.String(); got != wantStr {
				t.Errorf("fused sanitizer report diverged:\n got: %s\nwant: %s", got, wantStr)
			}
			if *fused.Cache != wantCache {
				t.Errorf("fused cache stats diverged:\n got: %+v\nwant: %+v", *fused.Cache, wantCache)
			}

			// The saved trace analyzes identically through the one-decode
			// fused reader.
			fromDisk, err := AnalyzeReaderFused(bytes.NewReader(tee.Bytes()), FusedConfig{Sanitize: true, Cache: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*fromDisk.Report, want) {
				t.Errorf("fused reader epoch report diverged:\n got: %+v\nwant: %+v", *fromDisk.Report, want)
			}
			if got, wantStr := fromDisk.San.String(), wantSan.String(); got != wantStr {
				t.Errorf("fused reader sanitizer report diverged:\n got: %s\nwant: %s", got, wantStr)
			}
			if *fromDisk.Cache != wantCache {
				t.Errorf("fused reader cache stats diverged:\n got: %+v\nwant: %+v", *fromDisk.Cache, wantCache)
			}
		})
	}
}

// TestFusedNoExtras pins the degenerate configuration: no sanitizer, no
// cache simulation — plain streaming analysis with nil extras.
func TestFusedNoExtras(t *testing.T) {
	cfg := Config{Ops: 5, Seed: 3}
	serial, err := Run("ctree", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := *serial
	want.Trace = nil
	fused, err := runFused("ctree", cfg, FusedConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fused.San != nil || fused.Cache != nil {
		t.Error("unrequested fused consumers produced reports")
	}
	if !reflect.DeepEqual(*fused.Report, want) {
		t.Errorf("report diverged:\n got: %+v\nwant: %+v", *fused.Report, want)
	}
}

// TestFusedReaderRejectsGarbage pins the error path.
func TestFusedReaderRejectsGarbage(t *testing.T) {
	if _, err := AnalyzeReaderFused(bytes.NewReader([]byte("junk")), FusedConfig{Sanitize: true}); err == nil {
		t.Fatal("AnalyzeReaderFused accepted garbage")
	}
}

// teeFile is RunAllFused's trace writer over a buffer; it notes its Close.
type teeFile struct {
	bytes.Buffer
	closed bool
}

func (f *teeFile) Close() error { f.closed = true; return nil }

// TestRunAllFusedMatchesSingleRuns: the suite call is runFused per
// name — reports in the order asked for, each trace writer filled with that
// run's bytes and closed — whatever the worker count, and a writer that
// cannot be opened fails the call.
func TestRunAllFusedMatchesSingleRuns(t *testing.T) {
	cfg := Config{Ops: 5, Seed: 3}
	fcfg := FusedConfig{Sanitize: true}
	names := []string{"vacation", "echo", "nfs"}
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		files := map[string]*teeFile{}
		passes, err := RunAllFused(names, cfg, fcfg, workers, func(name string) (io.WriteCloser, error) {
			mu.Lock()
			defer mu.Unlock()
			files[name] = &teeFile{}
			return files[name], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			var tee bytes.Buffer
			want, err := runFused(name, cfg, fcfg, &tee)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*passes[i].Report, *want.Report) || passes[i].San.String() != want.San.String() {
				t.Errorf("workers=%d: pass %d is not %s's", workers, i, name)
			}
			if f := files[name]; f == nil || !f.closed || !bytes.Equal(f.Bytes(), tee.Bytes()) {
				t.Errorf("workers=%d: %s's trace writer was not filled with its run and closed", workers, name)
			}
		}
	}
	boom := errors.New("disk full")
	if _, err := RunAllFused(names, cfg, fcfg, 2, func(string) (io.WriteCloser, error) { return nil, boom }); err != boom {
		t.Errorf("a trace writer that cannot be opened gave %v, want %v", err, boom)
	}
}

// TestRunAllFusedUnknownNameOpensNothing: a name outside the suite fails
// the call before any run starts or any trace writer is opened, so a
// `whisper -bench nope -trace dir` leaves no empty file behind for a later
// `whisper -dir` to choke on.
func TestRunAllFusedUnknownNameOpensNothing(t *testing.T) {
	var mu sync.Mutex
	var opened []string
	_, err := RunAllFused([]string{"echo", "nope"}, Config{Ops: 2, Seed: 1}, FusedConfig{}, 2, func(name string) (io.WriteCloser, error) {
		mu.Lock()
		defer mu.Unlock()
		opened = append(opened, name)
		return &teeFile{}, nil
	})
	if err == nil || !strings.Contains(err.Error(), `unknown benchmark "nope"`) {
		t.Fatalf("error = %v, want one naming the unknown benchmark", err)
	}
	if len(opened) != 0 {
		t.Fatalf("trace writers opened for %v", opened)
	}
}

// TestV1TraceRejected feeds the header of a version 1 trace file and a
// whole version 2 one, formats no longer read, to every entry point that
// reads a trace: each refuses them by their version.
func TestV1TraceRejected(t *testing.T) {
	old := map[int][]byte{
		1: []byte("WSPR\x01\x04echo\x06native\x01\x00\x00\x00"),
		// An empty echo trace as v2 wrote it: header, trailer and its crc.
		2: []byte("WSPR\x02\x04echo\x06native\x01\x02\x00\x00\x00\x12\xd9A\xff"),
	}
	for name, read := range map[string]func(io.Reader) error{
		"trace.NewReader": func(r io.Reader) error { _, err := trace.NewReader(r); return err },
		"trace.Decode":    func(r io.Reader) error { _, err := trace.Decode(r); return err },
		"DecodeTrace":     func(r io.Reader) error { _, err := DecodeTrace(r); return err },
		"AnalyzeReaderFused": func(r io.Reader) error {
			_, err := AnalyzeReaderFused(r, FusedConfig{Sanitize: true, Cache: true})
			return err
		},
		"SanitizeReader": func(r io.Reader) error { _, err := SanitizeReader(r); return err },
	} {
		for v, file := range old {
			if err := read(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
				t.Errorf("%s: error = %v, want unsupported version %d", name, err, v)
			}
		}
	}
}

// memAccesses returns the number of accesses that reached memory.
func memAccesses(s CacheStats) uint64 {
	return s.DRAMReads + s.DRAMWrites + s.PMReads + s.PMWrites + s.NTWrites
}

// TestFusedTapPanicReachesCaller: a tap that panics on its goroutine
// reaches pipeline's caller with its own value once the pass is over — the
// source read to its end and every other tap finished — and when two taps
// panic, the lower one's value wins, even though it panics last.
func TestFusedTapPanicReachesCaller(t *testing.T) {
	rep, err := Run("hashmap", Config{Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, second := errors.New("first tap"), errors.New("third tap")
	drain := func(b *trace.Branch) (n int) {
		for {
			chunk, err := b.NextChunk()
			if err != nil {
				return n
			}
			n += len(chunk)
		}
	}
	var counted int
	taps := []tap{
		func(b *trace.Branch) error { drain(b); panic(first) },
		func(b *trace.Branch) error { counted = drain(b); return nil },
		func(*trace.Branch) error { panic(second) },
	}
	src := &eofSource{EventSource: trace.NewSliceSource(rep.Trace.tr)}
	func() {
		defer func() {
			if r := recover(); r != first {
				t.Errorf("recovered %v, want the first tap's panic value", r)
			}
		}()
		pipeline(src, taps)
		t.Error("pipeline returned with two of its taps panicking")
	}()
	if !src.eof {
		t.Error("the panic reached the caller before the source was read to its end")
	}
	if counted != rep.Trace.Events() {
		t.Errorf("the tap that did not panic counted %d of %d events", counted, rep.Trace.Events())
	}
}

// TestFusedSourcePanicReachesCaller: a source that panics while a tap
// rides the pass reaches pipeline's caller with its own value, and only
// once the analysis, the tap and the pump have all finished.
func TestFusedSourcePanicReachesCaller(t *testing.T) {
	rep, err := Run("hashmap", Config{Ops: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	value := errors.New("source bug")
	var tapped int
	taps := []tap{func(b *trace.Branch) error {
		for {
			chunk, err := b.NextChunk()
			if err != nil {
				return err
			}
			tapped += len(chunk)
		}
	}}
	base := runtime.NumGoroutine()
	src := &panicAfter{EventSource: trace.NewSliceSource(rep.Trace.tr), chunks: 2, value: value}
	func() {
		defer func() {
			if r := recover(); r != value {
				t.Errorf("recovered %v, want the source's panic value", r)
			}
		}()
		pipeline(src, taps)
		t.Error("pipeline returned over a panicking source")
	}()
	if tapped != src.handed {
		t.Errorf("the tap saw %d of the %d events handed out before the panic", tapped, src.handed)
	}
	// The pump has closed every branch by then, but may not have exited.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a goroutine of the pass outlived the panic", runtime.NumGoroutine(), base)
		}
	}
}

// panicAfter hands out its source's first chunks, then panics with value.
type panicAfter struct {
	trace.EventSource
	chunks int
	handed int
	value  any
}

func (s *panicAfter) NextChunk() ([]trace.Event, error) {
	if s.chunks == 0 {
		panic(s.value)
	}
	s.chunks--
	chunk, err := s.EventSource.NextChunk()
	s.handed += len(chunk)
	return chunk, err
}

// eofSource notes when its source reports io.EOF.
type eofSource struct {
	trace.EventSource
	eof bool
}

func (s *eofSource) NextChunk() ([]trace.Event, error) {
	chunk, err := s.EventSource.NextChunk()
	s.eof = s.eof || err == io.EOF
	return chunk, err
}
