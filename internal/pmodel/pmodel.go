// Package pmodel is a bounded-exhaustive persistency-model checker for
// small PM programs: the state-space twin of the one-interleaving tools
// already in the repo. Where pmsan sanitizes the single executed event
// order and crashcheck samples crash points along it, pmodel takes a
// litmus program — per-thread sequences of store/flush/fence/commit
// operations, reusing the trace.Event vocabulary — and enumerates *every*
// durable state the persistency model allows a crash to leave, then runs
// a recovery invariant against each one.
//
// Two models are implemented:
//
//   - Px86 (default) is the simulated device's model (internal/pmem,
//     after Bila et al.'s Px86 formalization): a cacheable store dirties
//     its line; any dirty line may write back (persist) at any moment —
//     a cache eviction racing ahead of program order; CLWB obliges the
//     line to persist at least once before the thread's next SFENCE; an
//     NT store carries the same obligation via the write-combining
//     buffer; SFENCE blocks until the thread's obligations are drained.
//     Between ordering points persists reorder freely.
//
//   - Epoch is the executable specification of HOPS' ofence/dfence
//     semantics (internal/hops): every store enters its thread's current
//     epoch; persists of one thread respect epoch order but reorder
//     freely within an epoch (flushes are no-ops — epoch hardware tracks
//     persist buffers itself); an ofence (trace.KFence) is a pure epoch
//     boundary — ordering without waiting; a dfence (trace.KTxEnd)
//     additionally blocks until the thread's pending persists drain.
//     The Figure 10 timing replay (hops.NormalizedSource) shares this commit
//     rule: it replays every KFence as an ofence and stalls at the
//     KTxEnd, counting a dfence when the transaction fenced (a commit
//     that ordered nothing has nothing to drain).
//
// Enumeration is an explicit-state search with canonical-state hashing
// and memoization; under Px86, runs of persists to distinct lines
// commute, and a sleep-set-style ordering reduction explores only the
// ascending-line representative of each run (every prefix of the sorted
// run is still its own visited state, so no durable state is lost). A
// crash may happen between any two transitions, so the set of reachable
// durable states is exactly the set of durable projections of visited
// states. The checker reports states, transitions and prunes through
// internal/obs and is deterministic: reports render byte-identically
// across runs.
package pmodel

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/trace"
)

// Model selects the persistency semantics a program is checked under.
type Model uint8

const (
	// ModelPx86 is the simulated device's model: free persist reordering
	// between ordering points, CLWB/SFENCE obligations, eviction at any
	// moment. Cross-validation against crashcheck runs under this model.
	ModelPx86 Model = iota
	// ModelEpoch is the HOPS ofence/dfence model: per-thread epoch
	// ordering of persists, ofence = KFence (order, don't wait),
	// dfence = KTxEnd (order and drain).
	ModelEpoch
)

var modelNames = [...]string{ModelPx86: "px86", ModelEpoch: "epoch"}

func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// ModelByName maps a DSL/report model name back to its Model.
func ModelByName(name string) (Model, bool) {
	for i, n := range modelNames {
		if n == name {
			return Model(i), true
		}
	}
	return 0, false
}

// Enumeration caps. Programs are validated against these up front so the
// search is bounded by construction — the fuzz target's termination
// invariant rests on them plus Check's visited-state bound, DefaultMaxStates.
const (
	MaxThreads   = 4  // logical threads per program
	MaxVars      = 12 // named variables (one PM cache line each)
	MaxThreadOps = 24 // operations per thread
	MaxTotalOps  = 64 // operations per program
)

// Op is one litmus operation. Kind reuses the trace.Event vocabulary;
// only the durability-relevant subset is legal (see Validate). Var
// indexes Program.Vars for stores and flushes; Val is the 8-byte value a
// store writes; Size is the flush span in bytes (stores always write the
// full variable) — a Size <= 0 flush is the persist.Flush no-op path and
// spans no lines.
type Op struct {
	Kind trace.Kind
	Var  uint8
	Val  uint64
	Size int32
}

// Program is a litmus test: named variables (each mapped to its own PM
// cache line), per-thread operation sequences, and a recovery invariant
// evaluated against every enumerated durable state (nil means every
// state is acceptable). InvariantSrc keeps the DSL spelling for reports.
type Program struct {
	Name         string
	Model        Model
	Vars         []string
	Threads      [][]Op
	Invariant    *Expr
	InvariantSrc string
}

// TotalOps returns the number of operations across all threads.
func (p *Program) TotalOps() int {
	n := 0
	for _, th := range p.Threads {
		n += len(th)
	}
	return n
}

// Validate checks the program against the enumeration caps and the
// operation contract: only durability ops, variable indexes in range,
// and legal (unnested, begun-before-ended) transaction markers per
// thread. A transaction left open at the end of a thread is legal — the
// crash-before-commit states are part of what the checker explores.
func (p *Program) Validate() error {
	if len(p.Threads) > MaxThreads {
		return fmt.Errorf("pmodel: %d threads (max %d)", len(p.Threads), MaxThreads)
	}
	if len(p.Vars) > MaxVars {
		return fmt.Errorf("pmodel: %d vars (max %d)", len(p.Vars), MaxVars)
	}
	if p.TotalOps() > MaxTotalOps {
		return fmt.Errorf("pmodel: %d ops (max %d)", p.TotalOps(), MaxTotalOps)
	}
	seen := make(map[string]bool, len(p.Vars))
	for _, v := range p.Vars {
		if v == "" {
			return fmt.Errorf("pmodel: empty variable name")
		}
		if seen[v] {
			return fmt.Errorf("pmodel: duplicate variable %q", v)
		}
		seen[v] = true
	}
	for t, ops := range p.Threads {
		if len(ops) > MaxThreadOps {
			return fmt.Errorf("pmodel: thread %d has %d ops (max %d)", t, len(ops), MaxThreadOps)
		}
		inTx := false
		for i, op := range ops {
			switch op.Kind {
			case trace.KStore, trace.KStoreNT:
				if int(op.Var) >= len(p.Vars) {
					return fmt.Errorf("pmodel: thread %d op %d: var %d out of range", t, i, op.Var)
				}
			case trace.KFlush:
				if int(op.Var) >= len(p.Vars) {
					return fmt.Errorf("pmodel: thread %d op %d: var %d out of range", t, i, op.Var)
				}
			case trace.KFence:
			case trace.KTxBegin:
				if inTx {
					return fmt.Errorf("pmodel: thread %d op %d: nested tx.begin", t, i)
				}
				inTx = true
			case trace.KTxEnd:
				// Under the epoch model tx.end is a bare dfence — an
				// ordering instruction, not a transaction close — so it
				// needs no matching begin there.
				if !inTx && p.Model == ModelPx86 {
					return fmt.Errorf("pmodel: thread %d op %d: tx.end without tx.begin", t, i)
				}
				inTx = false
			default:
				return fmt.Errorf("pmodel: thread %d op %d: kind %s is not a litmus op", t, i, op.Kind)
			}
		}
	}
	return nil
}
