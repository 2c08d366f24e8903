package scenario

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"github.com/whisper-pm/whisper/internal/epoch"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

// referenceDomainResult is domainResult as four passes over a retained
// trace: the fences and flushes counted over its events, then the fence
// check, epoch.Analyze and pmsan.Run, each reading the whole trace.
func referenceDomainResult(name string, tr *trace.Trace, devFences uint64) (DomainResult, error) {
	d := DomainResult{Domain: name, Events: uint64(tr.Len())}
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.KFence:
			d.Fences++
		case trace.KFlush:
			d.Flushes++
		}
	}
	if d.Fences != devFences {
		return d, fmt.Errorf("scenario: domain %s: trace holds %d fences, its devices issued %d", name, d.Fences, devFences)
	}
	an, err := epoch.AnalyzeStream(trace.NewSliceSource(tr))
	if err != nil {
		return d, err
	}
	d.Epochs = an.TotalEpochs
	if an.TotalEpochs > 0 {
		d.SingletonPct = math.Round(1000*float64(an.Singletons)/float64(an.TotalEpochs)) / 10
	}
	rep, err := pmsan.Run(trace.NewSliceSource(tr))
	if err != nil {
		return d, err
	}
	d.SanErrors = rep.Errors()
	d.SanSites = len(rep.Violations)
	return d, nil
}

// retained drains src into a trace of its own.
func retained(t *testing.T, src trace.EventSource) *trace.Trace {
	t.Helper()
	m := src.Meta()
	tr := &trace.Trace{App: m.App, Layer: m.Layer, Threads: m.Threads}
	for {
		c, err := src.NextChunk()
		if err == io.EOF {
			tr.VolatileLoads, tr.VolatileStores = src.Volatile()
			return tr
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c {
			tr.Append(e)
		}
	}
}

// TestDomainResultMatchesFourPasses holds the one-pass domain analysis,
// the epoch analysis reading the chunks the sanitizer is fed, to the four
// passes it replaced, on every domain of every builtin scenario at two
// seeds.
func TestDomainResultMatchesFourPasses(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range []int64{1, 42} {
			spec, err := Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			e, err := execute(spec, Config{Seed: seed, Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			var want []DomainResult
			add := func(d DomainResult, err error) {
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				want = append(want, d)
			}
			if e.rt != nil {
				add(referenceDomainResult("apps", e.rt.Trace, e.rt.Dev.Stats().Fences))
			}
			for _, tn := range e.tenants {
				if tn.svc != nil {
					svc := tn.svc.svc
					add(referenceDomainResult(tn.tgt.label(), retained(t, svc.TraceSource()), svc.Stats().Fences))
				}
			}
			if err := e.analyze(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !reflect.DeepEqual(e.res.Domains, want) {
				t.Fatalf("%s seed %d: one pass gave\n%+v\nfour passes\n%+v", name, seed, e.res.Domains, want)
			}
			if len(want) == 0 || want[0].Events == 0 {
				t.Fatalf("%s seed %d: no domain recorded any event", name, seed)
			}
		}
	}
}
