package pmodel

import (
	"encoding/binary"
	"fmt"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/trace"
)

// Exec is one concrete run of a litmus program on the simulated device
// stack (internal/persist over internal/pmem): a single fair round-robin
// interleaving, traced like any application run. The enumeration side of
// the house explores all interleavings; Exec pins down the one the other
// tools (pmsan, crashcheck) actually see, which is what the differential
// and cross-validation tests compare against.
type Exec struct {
	RT    *persist.Runtime
	Trace *trace.Trace
	// Addrs maps Program.Vars indexes to the PM addresses the run used
	// (one device Map call per variable, so each sits on its own line).
	Addrs []mem.Addr
	// Final is the live value vector at the end of the run.
	Final []uint64
}

// execute runs the program on the device stack, interleaving threads
// round-robin (one op per thread per round), and invokes step (when
// non-nil) before the first operation and after every operation.
func execute(p *Program, step func(rt *persist.Runtime, addrs []mem.Addr, point int)) (*Exec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nthreads := len(p.Threads)
	if nthreads == 0 {
		nthreads = 1
	}
	rt := persist.NewRuntime("litmus/"+p.Name, "pmodel", nthreads, persist.Config{})
	addrs := make([]mem.Addr, len(p.Vars))
	for i := range addrs {
		addrs[i] = rt.Dev.Map(varBytes)
	}
	point := 0
	if step != nil {
		step(rt, addrs, point)
	}
	pc := make([]int, len(p.Threads))
	for remaining := p.TotalOps(); remaining > 0; {
		for t, ops := range p.Threads {
			if pc[t] >= len(ops) {
				continue
			}
			op := ops[pc[t]]
			th := rt.Thread(t)
			switch op.Kind {
			case trace.KStore:
				th.StoreU64(addrs[op.Var], op.Val)
			case trace.KStoreNT:
				th.StoreU64NT(addrs[op.Var], op.Val)
			case trace.KFlush:
				th.Flush(addrs[op.Var], int(op.Size))
			case trace.KFence:
				th.Fence()
			case trace.KTxBegin:
				th.TxBegin()
			case trace.KTxEnd:
				th.TxEnd()
			}
			pc[t]++
			remaining--
			point++
			if step != nil {
				step(rt, addrs, point)
			}
		}
	}
	ex := &Exec{RT: rt, Trace: rt.Trace, Addrs: addrs, Final: make([]uint64, len(p.Vars))}
	for i, a := range addrs {
		ex.Final[i] = binary.LittleEndian.Uint64(rt.Dev.Load(0, a, varBytes))
	}
	return ex, nil
}

// XValConfig tunes a cross-validation run.
type XValConfig struct {
	// Seeds is the number of adversarial seeds sampled per crash point
	// and mode (<= 0 means 3).
	Seeds int
}

// XVal is the outcome of cross-validating the enumeration against
// crashcheck's crash sampler. The contract under test: every durable
// image the device's crash adversary can produce is a state the model
// enumerated — sampling ⊆ enumeration. Missing holds any sampled value
// vector the enumeration lacks; the suite requires it empty.
type XVal struct {
	Points   int
	Samples  int
	Distinct int
	Missing  [][]uint64
}

// Ok reports whether every sampled durable state was enumerated.
func (x *XVal) Ok() bool { return len(x.Missing) == 0 }

// CrossValidate replays the program on the device stack and, at the
// initial state and after every operation, crash-samples the device
// through crashcheck's modes and seeds — the exact images crashcheck
// feeds recovery oracles — and checks each against r's enumerated set.
// Only the Px86 model is the device's model, so cross-validating an
// epoch program is an error.
func CrossValidate(p *Program, r *Result, cfg XValConfig) (*XVal, error) {
	if p.Model != ModelPx86 {
		return nil, fmt.Errorf("pmodel: cross-validation requires model px86 (device model); %s has %s", p.Name, p.Model)
	}
	if r == nil || r.Program != p {
		return nil, fmt.Errorf("pmodel: cross-validation needs the program's own Check result")
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 3
	}
	x := &XVal{}
	missing := make(map[string][]uint64)
	distinct := make(map[string]struct{})
	step := func(rt *persist.Runtime, addrs []mem.Addr, point int) {
		x.Points++
		for _, mode := range crashcheck.Modes() {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				img := crashcheck.SampleDurable(rt.Dev, mode, seed, point)
				vals := make([]uint64, len(p.Vars))
				for i, a := range addrs {
					vals[i] = binary.LittleEndian.Uint64(img.Durable(a, varBytes))
				}
				x.Samples++
				k := string(encodeVals(vals))
				distinct[k] = struct{}{}
				if !r.Contains(vals) {
					missing[k] = vals
				}
			}
		}
	}
	if _, err := execute(p, step); err != nil {
		return nil, err
	}
	x.Distinct = len(distinct)
	for _, vals := range missing {
		x.Missing = append(x.Missing, vals)
	}
	sortVals(x.Missing)
	return x, nil
}
