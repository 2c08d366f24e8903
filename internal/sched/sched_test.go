package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// worker, workerFunc, steps and referenceRun are the scheduler before Run
// became one streaming loop over step counts, kept verbatim as its oracle:
// a worker per client, each Step one operation, the pool a slice of
// workers swap-removed when one reports it is done.
type worker interface {
	Step() bool
}

type workerFunc func() bool

func (f workerFunc) Step() bool { return f() }

func referenceRun(workers []worker, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	live := make([]worker, len(workers))
	copy(live, workers)
	for len(live) > 0 {
		i := rng.Intn(len(live))
		if !live[i].Step() {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

func steps(n int, fn func(i int)) worker {
	i := 0
	return workerFunc(func() bool {
		if i >= n {
			return false
		}
		fn(i)
		i++
		return i < n
	})
}

type visit struct{ tid, i int }

func visits(counts []int, seed int64) []visit {
	var got []visit
	Run(counts, seed, func(tid, i int) bool {
		got = append(got, visit{tid, i})
		return true
	})
	return got
}

func referenceVisits(counts []int, seed int64) []visit {
	var want []visit
	workers := make([]worker, len(counts))
	for tid, n := range counts {
		tid := tid
		workers[tid] = steps(n, func(i int) { want = append(want, visit{tid, i}) })
	}
	referenceRun(workers, seed)
	return want
}

// TestRunMatchesReference holds the streaming Run to the worker scheduler
// it replaced: the same (tid, i) sequence for random seeds over uneven,
// zero and single-client step counts. Every suite trace depends on it.
func TestRunMatchesReference(t *testing.T) {
	cases := [][]int{
		nil, {0}, {1}, {7}, {0, 0, 0}, {3, 0, 5}, {0, 4}, {1, 1, 1, 1},
		{10, 10, 10, 10}, {25, 1, 0, 9, 3, 40, 2, 0},
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 40; k++ {
		counts := make([]int, 1+rng.Intn(9))
		for i := range counts {
			if rng.Intn(4) > 0 {
				counts[i] = rng.Intn(60)
			}
		}
		cases = append(cases, counts)
	}
	for _, counts := range cases {
		for _, seed := range []int64{1, 2, 42, rng.Int63(), rng.Int63()} {
			got, want := visits(counts, seed), referenceVisits(counts, seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("steps %v seed %d: Run visits %v, reference %v", counts, seed, got, want)
			}
		}
	}
}

func TestRunExecutesAllSteps(t *testing.T) {
	counts := map[int]int{}
	Run([]int{5, 3, 7}, 1, func(tid, i int) bool {
		if i != counts[tid] {
			t.Fatalf("client %d ran op %d, want %d", tid, i, counts[tid])
		}
		counts[tid]++
		return true
	})
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 7 {
		t.Fatalf("step counts = %v", counts)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	if !reflect.DeepEqual(visits([]int{10, 10}, 42), visits([]int{10, 10}, 42)) {
		t.Error("same seed produced different interleavings")
	}
	if reflect.DeepEqual(visits([]int{10, 10}, 1), visits([]int{10, 10}, 99)) {
		t.Error("different seeds produced identical interleavings (RNG ignored)")
	}
}

func TestRunInterleaves(t *testing.T) {
	log := visits([]int{50, 50}, 3)
	// With 100 steps and a fair RNG the chance of no interleaving is ~0.
	switches := 0
	for i := 1; i < len(log); i++ {
		if log[i].tid != log[i-1].tid {
			switches++
		}
	}
	if switches < 10 {
		t.Errorf("only %d thread switches in 100 steps; scheduler not interleaving", switches)
	}
}

// TestRunStopsWhenFnDeclines pins the crash point: the op fn declines is
// the last call, and the run ends there.
func TestRunStopsWhenFnDeclines(t *testing.T) {
	all := visits([]int{6, 6, 6}, 5)
	for stop := 0; stop < len(all); stop++ {
		var got []visit
		Run([]int{6, 6, 6}, 5, func(tid, i int) bool {
			got = append(got, visit{tid, i})
			return len(got) <= stop
		})
		if !reflect.DeepEqual(got, all[:stop+1]) {
			t.Fatalf("stop at %d: visited %v, want %v", stop, got, all[:stop+1])
		}
	}
}

func TestRunEmpty(t *testing.T) {
	Run(nil, 1, func(int, int) bool { t.Fatal("fn called with no clients"); return true })
}

// TestStepsZero: a client with no steps is drawn once and never run.
func TestStepsZero(t *testing.T) {
	Run([]int{0, 0}, 1, func(int, int) bool { t.Fatal("fn called for zero steps"); return true })
}
