package main

import (
	"bytes"
	"io"
	"runtime"

	whisper "github.com/whisper-pm/whisper"
	"github.com/whisper-pm/whisper/internal/cachesim"
	"github.com/whisper-pm/whisper/internal/trace"
)

// analyzeApps is one suite member per access layer (native, nvml,
// mnemosyne, pmfs). Each runs at a third of its suite size — about 3.5 M
// events in all — so that three set-ups and three passes fit a run.
var analyzeApps = []string{"ycsb", "ctree", "vacation", "nfs"}

// savedTrace is one app's run as a trace file held in memory.
type savedTrace struct {
	app         string
	simulatable bool
	events      int
	v2          []byte
}

// analyzeWorkload is the offline flow over saved traces: the fused
// single-pass analysis of every trace, then the Figure 10 replay of the
// simulatable ones. Codec, epoch, pmsan, cachesim and hops do all the
// work; the apps and the device only run during set-up.
type analyzeWorkload struct {
	cfg    runConfig
	traces []savedTrace
	// What set-up measured or failed at, handed to the next pass.
	encodeS     float64
	setupFailed int
}

func newAnalyze(cfg runConfig) instance { return &analyzeWorkload{cfg: cfg} }

func (w *analyzeWorkload) setup(tr *tracer) {
	simulatable := map[string]bool{}
	for _, b := range whisper.Benchmarks() {
		simulatable[b.Name] = b.Simulatable
	}
	w.traces, w.encodeS, w.setupFailed = nil, 0, 0
	for _, app := range analyzeApps {
		var rep *whisper.Report
		var err error
		tr.do("setup.run."+app, func() {
			rep, err = runApp(app, whisper.Config{Ops: w.cfg.scaled(suiteOps[app]/3, 2), Seed: w.cfg.seed})
		})
		if err != nil {
			w.setupFailed++
			continue
		}
		var buf bytes.Buffer
		w.encodeS += tr.do("setup.encode."+app, func() { err = rep.Trace.EncodeV2(&buf) })
		if err != nil {
			w.setupFailed++
			continue
		}
		w.traces = append(w.traces, savedTrace{
			app: app, simulatable: simulatable[app], events: rep.Trace.Events(), v2: buf.Bytes(),
		})
	}
}

func (w *analyzeWorkload) pass(tr *tracer) pass {
	p := newPass()
	p.attempted, p.failed = len(analyzeApps), w.setupFailed
	d := newDigester()
	fail := func(err error) bool {
		if err != nil {
			p.failed++
		}
		return err != nil
	}
	var events, simEvents, fileBytes int
	var epochs, txs int
	var amp, simSeconds float64
	var fusedS, hopsS, replayS, decodeMatS, streamS, sanS float64
	var noCacheS, decodeS, matS float64
	var matEvents int
	var streamAllocs, matAllocs uint64
	var sanErrors, sanDiagnostics int
	norms := map[string][]float64{}

	for _, t := range w.traces {
		events += t.events
		fileBytes += len(t.v2)

		// Timed: the fused pass.
		var fused *whisper.FusedReport
		var err error
		p.attempted++
		w.cfg.live.sample() // the saved traces; and a collected heap to start from
		fusedS += p.timed(tr, "fused."+t.app, func() {
			fused, err = whisper.AnalyzeReaderFused(bytes.NewReader(t.v2), whisper.FusedConfig{Sanitize: true, Cache: true})
		})
		if fail(err) {
			continue
		}
		rep := fused.Report
		epochs += rep.TotalEpochs
		txs += rep.Transactions
		amp += rep.Amplification
		if rep.EpochsPerSecond > 0 {
			simSeconds += float64(rep.TotalEpochs) / rep.EpochsPerSecond
		}
		d.add("%s%s%+v\n", rep, fused.San, *fused.Cache)

		// Timed: the materialized decode and five-model replay.
		var decoded *whisper.Trace
		if t.simulatable {
			p.attempted++
			var norm map[string]float64
			hopsS += p.timed(tr, "hops."+t.app, func() {
				decodeMatS += tr.do("decode_mat."+t.app, func() {
					decoded, err = whisper.DecodeTrace(bytes.NewReader(t.v2))
				})
				if err != nil {
					return
				}
				replayS += tr.do("replay."+t.app, func() {
					norm = whisper.SimulateHOPS(decoded, whisper.DefaultHOPSConfig())
				})
			})
			w.cfg.live.sample() // with the decoded trace still held
			runtime.KeepAlive(decoded)
			if !fail(err) {
				simEvents += t.events
				matEvents += t.events
				for _, mk := range hopsModelKeys {
					norms[mk.key] = append(norms[mk.key], norm[mk.model])
					d.add("%s %s %v\n", t.app, mk.model, norm[mk.model])
				}
			}
		}

		// Checks, untimed: each fused output equals its standalone pass.
		var stream *whisper.Report
		p.attempted++
		m0 := mallocs()
		streamS += tr.do("check.stream."+t.app, func() {
			stream, err = whisper.AnalyzeReader(bytes.NewReader(t.v2))
		})
		streamAllocs += mallocs() - m0
		if !fail(err) && *stream != *rep {
			p.failed++
		}
		var san *whisper.SanReport
		p.attempted++
		sanS += tr.do("check.sanitize."+t.app, func() {
			san, err = whisper.SanitizeReader(bytes.NewReader(t.v2))
		})
		if !fail(err) {
			if san.String() != fused.San.String() {
				p.failed++
			}
			sanErrors += san.Errors()
			sanDiagnostics += san.Sites("redundant-flush") + san.Sites("fence-without-work")
		}
		var cache cachesim.Stats
		p.attempted++
		tr.do("check.cache."+t.app, func() {
			var rd *trace.Reader
			if rd, err = trace.NewReader(bytes.NewReader(t.v2)); err == nil {
				cache, err = cachesim.ReplaySource(cachesim.New(cachesim.DefaultConfig()), rd)
			}
		})
		if !fail(err) && whisper.CacheStats(cache) != *fused.Cache {
			p.failed++
		}

		if tr == nil {
			continue
		}
		// Traced only: the same layers used the other way.
		decodeS += tr.do("extra.decode_stream."+t.app, func() {
			var rd *trace.Reader
			if rd, err = trace.NewReader(bytes.NewReader(t.v2)); err != nil {
				return
			}
			for err == nil {
				_, err = rd.Next()
			}
			if err == io.EOF {
				err = nil
			}
		})
		fail(err)
		noCacheS += tr.do("extra.fused_nocache."+t.app, func() {
			_, err = whisper.AnalyzeReaderFused(bytes.NewReader(t.v2), whisper.FusedConfig{Sanitize: true})
		})
		fail(err)
		if decoded == nil {
			decodeMatS += tr.do("extra.decode_mat."+t.app, func() {
				decoded, err = whisper.DecodeTrace(bytes.NewReader(t.v2))
			})
			if fail(err) {
				continue
			}
			matEvents += t.events
		}
		m0 = mallocs()
		var mat *whisper.Report
		matS += tr.do("extra.analyze_mat."+t.app, func() { mat = whisper.Analyze(decoded) })
		matAllocs += mallocs() - m0
		p.attempted++
		mat.Trace = nil
		if *mat != *rep {
			p.failed++
		}
	}

	p.m["fences_per_op"] = float64(epochs) / float64(max(txs, 1))
	p.m["write_amp"] = amp / float64(max(len(w.traces), 1))
	p.m["sim_latency_us"] = simSeconds / float64(max(txs, 1)) * 1e6
	p.digest = d.sum()
	if tr == nil {
		return p
	}

	kev := float64(events) / 1e3
	p.m["trace.encode_v2_mev_s"] = perSec(events, w.encodeS, 1e6)
	p.m["trace.decode_v2_mev_s"] = perSec(events, decodeS, 1e6)
	p.m["trace.decode_mat_mev_s"] = perSec(matEvents, decodeMatS, 1e6)
	p.m["trace.bytes_per_event"] = float64(fileBytes) / float64(max(events, 1))
	p.m["epoch.stream_mev_s"] = perSec(events, streamS, 1e6)
	p.m["epoch.stream_allocs_per_kev"] = float64(streamAllocs) / kev
	p.m["epoch.mat_mev_s"] = perSec(matEvents, matS, 1e6)
	p.m["epoch.mat_allocs_per_kev"] = float64(matAllocs) / kev
	p.m["pmsan.mev_s"] = perSec(events, sanS, 1e6)
	p.m["pmsan.errors"] = float64(sanErrors)
	p.m["pmsan.diagnostics"] = float64(sanDiagnostics)
	// The cache simulator's cost is what it adds to the fused pass; on a
	// spare core that can be nothing, which reads as 0 (not measurable).
	p.m["cachesim.mev_s"] = perSec(events, fusedS-noCacheS, 1e6)
	p.m["hops.replay_mev_s"] = perSec(simEvents, replayS, 1e6)
	for _, mk := range hopsModelKeys {
		p.m["hops.norm."+mk.key] = geomean(norms[mk.key])
	}
	p.m["analyze.mevents_per_s"] = perSec(events, fusedS, 1e6)
	p.m["analyze.hops_mevents_per_s"] = perSec(simEvents, hopsS, 1e6)
	return p
}
