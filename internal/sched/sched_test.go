package sched

import (
	"reflect"
	"testing"
)

func collector(id int, n int, out *[]int) Worker {
	return Steps(n, func(int) { *out = append(*out, id) })
}

func TestRunExecutesAllSteps(t *testing.T) {
	var log []int
	Run([]Worker{collector(0, 5, &log), collector(1, 3, &log), collector(2, 7, &log)}, 1)
	counts := map[int]int{}
	for _, id := range log {
		counts[id]++
	}
	if counts[0] != 5 || counts[1] != 3 || counts[2] != 7 {
		t.Fatalf("step counts = %v", counts)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []int {
		var log []int
		Run([]Worker{collector(0, 10, &log), collector(1, 10, &log)}, seed)
		return log
	}
	if !reflect.DeepEqual(run(42), run(42)) {
		t.Error("same seed produced different interleavings")
	}
	if reflect.DeepEqual(run(1), run(99)) {
		t.Error("different seeds produced identical interleavings (RNG ignored)")
	}
}

func TestRunInterleaves(t *testing.T) {
	var log []int
	Run([]Worker{collector(0, 50, &log), collector(1, 50, &log)}, 3)
	// With 100 steps and a fair RNG the chance of no interleaving is ~0.
	switches := 0
	for i := 1; i < len(log); i++ {
		if log[i] != log[i-1] {
			switches++
		}
	}
	if switches < 10 {
		t.Errorf("only %d thread switches in 100 steps; scheduler not interleaving", switches)
	}
}

func TestRunEmpty(t *testing.T) {
	Run(nil, 1) // must not hang or panic
}

func TestStepsZero(t *testing.T) {
	w := Steps(0, func(int) { t.Fatal("fn called for zero steps") })
	if w.Step() {
		t.Error("zero-step worker reported more work")
	}
}

func TestWorkerFunc(t *testing.T) {
	n := 0
	w := WorkerFunc(func() bool { n++; return n < 3 })
	Run([]Worker{w}, 1)
	if n != 3 {
		t.Fatalf("worker ran %d times, want 3", n)
	}
}
