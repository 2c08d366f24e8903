package pmodel

import (
	"reflect"
	"testing"

	"github.com/whisper-pm/whisper/internal/trace"
)

// genProgram decodes fuzz bytes into a small valid litmus program: up to
// two threads, three variables, five ops per thread, values 1..3. The
// decoder is total — any byte string yields a valid program — so the
// fuzzer explores program space instead of fighting the validator.
func genProgram(data []byte) *Program {
	pos := 0
	b := func() byte {
		if pos >= len(data) {
			return 0
		}
		v := data[pos]
		pos++
		return v
	}
	p := &Program{Name: "fuzz", Model: Model(b() & 1)}
	nvars := 1 + int(b())%3
	p.Vars = []string{"x", "y", "z"}[:nvars]
	nthreads := 1 + int(b())%2
	for t := 0; t < nthreads; t++ {
		nops := int(b()) % 6
		inTx := false
		var ops []Op
		for i := 0; i < nops; i++ {
			v := uint8(int(b()) % nvars)
			val := 1 + uint64(b())%3
			switch b() % 8 {
			case 0, 1:
				ops = append(ops, Op{Kind: trace.KStore, Var: v, Val: val, Size: varBytes})
			case 2:
				ops = append(ops, Op{Kind: trace.KStoreNT, Var: v, Val: val, Size: varBytes})
			case 3:
				ops = append(ops, Op{Kind: trace.KFlush, Var: v, Size: varBytes})
			case 4:
				ops = append(ops, Op{Kind: trace.KFence})
			case 5:
				if !inTx {
					ops = append(ops, Op{Kind: trace.KTxBegin})
					inTx = true
				}
			case 6:
				// Keep tx markers balanced under Px86; the epoch model
				// accepts a bare dfence.
				if inTx || p.Model == ModelEpoch {
					ops = append(ops, Op{Kind: trace.KTxEnd})
					inTx = false
				}
			case 7:
				ops = append(ops, Op{Kind: trace.KFlush, Var: v, Size: 0})
			}
		}
		p.Threads = append(p.Threads, ops)
	}
	// A fixed invariant pool keeps the violation-set comparison
	// non-trivial without growing the search space.
	switch b() % 3 {
	case 1:
		p.InvariantSrc = "x <= 2"
	case 2:
		p.InvariantSrc = "x==3 -> " + p.Vars[nvars-1] + ">=1"
	}
	if p.InvariantSrc != "" {
		resolve := func(name string) (uint8, error) {
			for i, n := range p.Vars {
				if n == name {
					return uint8(i), nil
				}
			}
			panic("fuzz invariant names an undeclared variable")
		}
		e, err := ParseExpr(p.InvariantSrc, resolve)
		if err != nil {
			panic(err)
		}
		p.Invariant = e
	}
	return p
}

// FuzzPmodel cross-checks the production configuration (memoization plus
// the Px86 persist-ordering reduction) against the plain oracle (neither)
// on random small programs: enumeration terminates, both agree on the
// reachable durable and violating sets, the concrete device run's final
// state is enumerated, and every crashcheck-sampled image is too.
func FuzzPmodel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("px86 single store"))
	f.Add([]byte{0, 2, 1, 4, 0, 1, 0, 2, 1, 3, 1, 0, 4, 2})
	f.Add([]byte{1, 2, 1, 5, 0, 1, 0, 0, 2, 6, 1, 1, 4, 0, 1, 0, 1})
	f.Add([]byte{0, 1, 2, 5, 0, 1, 5, 1, 2, 6, 0, 1, 7, 2})
	f.Add([]byte{1, 3, 2, 4, 0, 1, 0, 1, 2, 4, 2, 1, 6, 0, 2, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := genProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("generator produced an invalid program: %v\n%+v", err, p)
		}
		fast, err := check(p, 1<<16, false)
		if err != nil {
			t.Skipf("state bound: %v", err)
		}
		slow, err := check(p, DefaultMaxStates, true)
		if err != nil {
			t.Skipf("oracle state bound: %v", err)
		}
		if !reflect.DeepEqual(fast.Durable, slow.Durable) {
			t.Fatalf("durable sets diverge\nfast: %v\nslow: %v\nprogram: %+v", fast.Durable, slow.Durable, p)
		}
		if !reflect.DeepEqual(fast.Violations, slow.Violations) {
			t.Fatalf("violation sets diverge\nfast: %v\nslow: %v\nprogram: %+v", fast.Violations, slow.Violations, p)
		}
		if p.Model != ModelPx86 {
			return
		}
		ex, err := execute(p, nil)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !fast.Contains(ex.Final) {
			t.Fatalf("executed final state %v not enumerated in %v\nprogram: %+v", ex.Final, fast.Durable, p)
		}
		x, err := CrossValidate(p, fast, XValConfig{Seeds: 2})
		if err != nil {
			t.Fatalf("CrossValidate: %v", err)
		}
		if !x.Ok() {
			t.Fatalf("sampled durable states missing from enumeration: %v\nprogram: %+v", x.Missing, p)
		}
	})
}
