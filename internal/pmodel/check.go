package pmodel

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/trace"
)

// varBytes is the width of every litmus variable. Each variable sits on
// its own PM cache line, so persists never tear across variables and a
// durable state is exactly one uint64 per variable.
const varBytes = 8

// DefaultMaxStates bounds Check's explicit-state search. The builtin
// suite peaks around a few thousand states; the cap exists for the fuzz
// target and hand-written programs.
const DefaultMaxStates = 1 << 20

// Result is the outcome of one enumeration: counters plus the full set of
// reachable durable states, each a value vector indexed like
// Program.Vars. Durable is sorted lexicographically and Violations is the
// subset failing the invariant, in the same order — so two runs over the
// same program produce deeply equal Results and byte-identical reports.
type Result struct {
	Program *Program
	// States counts visited states (unique when memoization is on),
	// Transitions executed transitions, and Prunes skipped work: memo
	// hits plus persist interleavings cut by the ordering reduction.
	States      uint64
	Transitions uint64
	Prunes      uint64
	Durable     [][]uint64
	Violations  [][]uint64

	durKeys map[string]struct{}
}

// Clean reports whether every reachable durable state satisfies the
// invariant.
func (r *Result) Clean() bool { return len(r.Violations) == 0 }

// Contains reports whether vals (one value per program variable) is a
// reachable durable state. Cross-validation uses it to prove crashcheck's
// sampled images are a subset of the enumerated set.
func (r *Result) Contains(vals []uint64) bool {
	_, ok := r.durKeys[string(encodeVals(vals))]
	return ok
}

// prec is one pending persist in the epoch model: a store that has
// executed but not yet drained to the durable image. The pending set is
// kept sorted by (tid, epoch, var, val) so state encodings are canonical
// and transition order is deterministic.
type prec struct {
	tid   uint8
	epoch uint16
	v     uint8
	val   uint64
}

func precLess(a, b prec) bool {
	if a.tid != b.tid {
		return a.tid < b.tid
	}
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	if a.v != b.v {
		return a.v < b.v
	}
	return a.val < b.val
}

// ckState is one search node. Px86 uses live/durable/oblig/lastPersist;
// the epoch model uses durable/epoch/pending (stores go straight to the
// pending set, so a live image would be redundant and is left nil).
type ckState struct {
	pc      []uint8
	live    []uint64
	durable []uint64
	// oblig is a per-thread bitmask of variables the thread has obliged
	// to persist (CLWB or NT store on a dirty line) before its next
	// SFENCE may execute.
	oblig []uint16
	// epoch is the per-thread current epoch (epoch model).
	epoch   []uint16
	pending []prec
	// lastPersist is the variable persisted by the immediately preceding
	// transition, or -1 after any program operation. The Px86 ordering
	// reduction explores only ascending-variable persist runs; the field
	// is part of the canonical encoding so memoization stays sound.
	lastPersist int8
}

func (s *ckState) clone() *ckState {
	n := &ckState{
		pc:          append([]uint8(nil), s.pc...),
		durable:     append([]uint64(nil), s.durable...),
		lastPersist: s.lastPersist,
	}
	if s.live != nil {
		n.live = append([]uint64(nil), s.live...)
		n.oblig = append([]uint16(nil), s.oblig...)
	} else {
		n.epoch = append([]uint16(nil), s.epoch...)
		n.pending = append([]prec(nil), s.pending...)
	}
	return n
}

// encode renders the canonical byte form of the state for memoization.
func (s *ckState) encode() string {
	b := make([]byte, 0, len(s.pc)+9*len(s.durable)+16)
	b = append(b, s.pc...)
	for _, v := range s.durable {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	if s.live != nil {
		for _, v := range s.live {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		for _, o := range s.oblig {
			b = binary.LittleEndian.AppendUint16(b, o)
		}
	} else {
		for _, e := range s.epoch {
			b = binary.LittleEndian.AppendUint16(b, e)
		}
		for _, r := range s.pending {
			b = append(b, r.tid, r.v)
			b = binary.LittleEndian.AppendUint16(b, r.epoch)
			b = binary.LittleEndian.AppendUint64(b, r.val)
		}
	}
	b = append(b, byte(s.lastPersist))
	return string(b)
}

func encodeVals(vals []uint64) []byte {
	b := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

type checker struct {
	p          *Program
	exhaustive bool
	res        *Result
	memo       map[string]struct{}
}

// Check enumerates every durable state the program's persistency model
// can leave behind a crash and evaluates the invariant against each. It
// returns an error (not a panic) when the program is invalid or the search
// visits more than DefaultMaxStates states, so callers can surface "too
// big to enumerate" distinctly from "violated".
func Check(p *Program) (*Result, error) { return check(p, DefaultMaxStates, false) }

// check is Check with its state bound given. exhaustive turns off
// canonical-state memoization and the ascending-line persist ordering
// reduction: the search still terminates (every transition either
// advances a pc or strictly shrinks the pending-persist measure) but
// revisits shared states, and counts each visit against maxStates. The
// fuzz and differential tests hold Check to that search as their oracle.
func check(p *Program, maxStates int, exhaustive bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &checker{
		p:          p,
		exhaustive: exhaustive,
		res:        &Result{Program: p, durKeys: make(map[string]struct{})},
	}
	if !exhaustive {
		c.memo = make(map[string]struct{})
	}

	init := &ckState{
		pc:          make([]uint8, len(p.Threads)),
		durable:     make([]uint64, len(p.Vars)),
		lastPersist: -1,
	}
	if p.Model == ModelPx86 {
		init.live = make([]uint64, len(p.Vars))
		init.oblig = make([]uint16, len(p.Threads))
	} else {
		init.epoch = make([]uint16, len(p.Threads))
	}
	c.autoAdvance(init)

	stack := []*ckState{init}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.memo != nil {
			k := s.encode()
			if _, seen := c.memo[k]; seen {
				c.res.Prunes++
				continue
			}
			c.memo[k] = struct{}{}
		}
		c.res.States++
		if c.res.States > uint64(maxStates) {
			return nil, fmt.Errorf("pmodel: %s: state bound exceeded (%d states)", p.Name, maxStates)
		}
		c.collect(s.durable)
		stack = c.succ(s, stack)
	}

	sortVals(c.res.Durable)
	sortVals(c.res.Violations)
	labels := obs.Labels{"shape": p.Name, "model": p.Model.String()}
	obs.Default().Counter("pmodel_states_total", labels).Add(c.res.States)
	obs.Default().Counter("pmodel_transitions_total", labels).Add(c.res.Transitions)
	obs.Default().Counter("pmodel_prunes_total", labels).Add(c.res.Prunes)
	obs.Default().Counter("pmodel_durable_total", labels).Add(uint64(len(c.res.Durable)))
	return c.res, nil
}

func sortVals(vs [][]uint64) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// collect records the durable projection of a visited state. A crash may
// land between any two transitions, so every visited state contributes.
func (c *checker) collect(durable []uint64) {
	k := string(encodeVals(durable))
	if _, ok := c.res.durKeys[k]; ok {
		return
	}
	c.res.durKeys[k] = struct{}{}
	vals := append([]uint64(nil), durable...)
	c.res.Durable = append(c.res.Durable, vals)
	if c.p.Invariant != nil && !c.p.Invariant.Eval(vals) {
		c.res.Violations = append(c.res.Violations, vals)
	}
}

// invisible reports whether op never blocks and commutes with every other
// transition, so it can be folded into its predecessor (applied by
// autoAdvance rather than explored as a branch). Transaction begins mark
// structure only; a zero-size flush is the persist.Flush no-op path; in
// the epoch model flushes are no-ops (persist-buffer hardware tracks
// dirty lines itself), an ofence only bumps the thread-local epoch, and a
// Px86 commit is a pure marker (durability lives in the surrounding
// flush+fence, which is exactly what the dirty-at-commit shapes probe).
func (c *checker) invisible(op Op) bool {
	switch op.Kind {
	case trace.KTxBegin:
		return true
	case trace.KFlush:
		return c.p.Model == ModelEpoch || op.Size <= 0
	case trace.KTxEnd:
		return c.p.Model == ModelPx86
	case trace.KFence:
		return c.p.Model == ModelEpoch
	}
	return false
}

// autoAdvance executes invisible operations in place until every thread
// is parked at a visible (potentially blocking or effectful) operation or
// at its end. Canonical states are always fully advanced.
func (c *checker) autoAdvance(s *ckState) {
	for t, ops := range c.p.Threads {
		for int(s.pc[t]) < len(ops) {
			op := ops[s.pc[t]]
			if !c.invisible(op) {
				break
			}
			if op.Kind == trace.KFence && c.p.Model == ModelEpoch {
				s.epoch[t]++
			}
			s.pc[t]++
		}
	}
}

// succ pushes every successor of s onto the stack: enabled program
// operations in thread order, then enabled persists in canonical order.
func (c *checker) succ(s *ckState, stack []*ckState) []*ckState {
	for t, ops := range c.p.Threads {
		if int(s.pc[t]) >= len(ops) {
			continue
		}
		op := ops[s.pc[t]]
		n := c.execOp(s, t, op)
		if n == nil {
			continue // blocked on a fence/dfence guard
		}
		c.res.Transitions++
		stack = append(stack, n)
	}
	if c.p.Model == ModelPx86 {
		return c.succPersistPx86(s, stack)
	}
	return c.succPersistEpoch(s, stack)
}

// execOp returns the state after thread t executes its visible op, or nil
// if the op's guard blocks it.
func (c *checker) execOp(s *ckState, t int, op Op) *ckState {
	if c.p.Model == ModelPx86 {
		switch op.Kind {
		case trace.KFence:
			// SFENCE blocks until the thread's persist obligations drain.
			if s.oblig[t] != 0 {
				return nil
			}
		}
		n := s.clone()
		n.lastPersist = -1
		switch op.Kind {
		case trace.KStore:
			n.live[op.Var] = op.Val
		case trace.KStoreNT:
			// An NT store goes through the write-combining buffer: the
			// line must persist before the next SFENCE, same obligation
			// a CLWB creates.
			n.live[op.Var] = op.Val
			if n.live[op.Var] != n.durable[op.Var] {
				n.oblig[t] |= 1 << op.Var
			}
		case trace.KFlush:
			if n.live[op.Var] != n.durable[op.Var] {
				n.oblig[t] |= 1 << op.Var
			}
		}
		n.pc[t]++
		c.autoAdvance(n)
		return n
	}
	// Epoch model: only stores and dfences are visible.
	switch op.Kind {
	case trace.KTxEnd:
		// dfence: blocks until the thread's pending persists drain.
		for _, r := range s.pending {
			if int(r.tid) == t {
				return nil
			}
		}
		n := s.clone()
		n.epoch[t]++
		n.pc[t]++
		c.autoAdvance(n)
		return n
	default: // KStore, KStoreNT
		n := s.clone()
		r := prec{tid: uint8(t), epoch: n.epoch[t], v: op.Var, val: op.Val}
		i := sort.Search(len(n.pending), func(i int) bool { return !precLess(n.pending[i], r) })
		n.pending = append(n.pending, prec{})
		copy(n.pending[i+1:], n.pending[i:])
		n.pending[i] = r
		n.pc[t]++
		c.autoAdvance(n)
		return n
	}
}

// succPersistPx86 pushes the spontaneous persist transitions: any line
// whose live and durable images differ, or that some thread is obliged to
// persist, may write back at any moment. Runs of persists to distinct
// lines commute, so with the reduction on, only ascending-line runs are
// explored: a persist of line v is skipped when the previous transition
// persisted a higher line (strictly — equal lines may repeat). Every
// prefix of the kept ascending run is still visited, so the set of
// durable projections is unchanged.
func (c *checker) succPersistPx86(s *ckState, stack []*ckState) []*ckState {
	for v := range c.p.Vars {
		enabled := s.live[v] != s.durable[v]
		if !enabled {
			for _, o := range s.oblig {
				if o&(1<<v) != 0 {
					enabled = true
					break
				}
			}
		}
		if !enabled {
			continue
		}
		if !c.exhaustive && s.lastPersist >= 0 && int8(v) < s.lastPersist {
			c.res.Prunes++
			continue
		}
		n := s.clone()
		n.durable[v] = n.live[v]
		for t := range n.oblig {
			n.oblig[t] &^= 1 << v
		}
		n.lastPersist = int8(v)
		// Draining an obligation can unblock a fence the thread is
		// parked on — fences are visible, so no auto-advance is needed.
		c.res.Transitions++
		stack = append(stack, n)
	}
	return stack
}

// succPersistEpoch pushes the epoch-model persist transitions: any
// pending record in the oldest live epoch of its thread may drain next —
// free order within an epoch, strict order across a thread's epochs,
// no order across threads. No ordering reduction applies here: draining
// a thread's last min-epoch record enables its next epoch's records, so
// persists do not commute the way Px86 writebacks do.
func (c *checker) succPersistEpoch(s *ckState, stack []*ckState) []*ckState {
	var minEpoch [MaxThreads]int
	for i := range minEpoch {
		minEpoch[i] = -1
	}
	for _, r := range s.pending {
		if minEpoch[r.tid] < 0 || int(r.epoch) < minEpoch[r.tid] {
			minEpoch[r.tid] = int(r.epoch)
		}
	}
	for i, r := range s.pending {
		if i > 0 && s.pending[i-1] == r {
			continue // identical pending records yield identical successors
		}
		if int(r.epoch) != minEpoch[r.tid] {
			continue
		}
		n := s.clone()
		n.durable[r.v] = r.val
		n.pending = append(n.pending[:i:i], n.pending[i+1:]...)
		c.res.Transitions++
		stack = append(stack, n)
	}
	return stack
}
