// Package sched provides the deterministic scheduler that stands in for
// real multithreaded execution (see DESIGN.md, "Substitutions").
//
// WHISPER workloads drive several client threads against shared persistent
// structures. The paper's dependency analysis (Figure 5) only needs the
// interleaving of *epochs* across threads on a global clock, so we
// interleave logical threads at transaction granularity: the scheduler
// repeatedly picks a runnable worker under a seeded RNG and lets it execute
// one whole transaction on the shared simulated clock. The result is a
// realistic, cross-thread-conflicting event stream that is reproducible
// bit-for-bit for a given seed.
package sched

import "math/rand"

// Worker is one logical client thread. Step executes the worker's next
// transaction (or batch, for batching designs like Echo) and reports
// whether more work remains.
type Worker interface {
	Step() bool
}

// WorkerFunc adapts a function to the Worker interface.
type WorkerFunc func() bool

// Step calls f.
func (f WorkerFunc) Step() bool { return f() }

// Run interleaves the workers until all are done, choosing the next worker
// uniformly at random among the runnable ones using a RNG seeded with seed.
// Run is deterministic for fixed workers and seed.
func Run(workers []Worker, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	live := make([]Worker, len(workers))
	copy(live, workers)
	for len(live) > 0 {
		i := rng.Intn(len(live))
		if !live[i].Step() {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// Steps runs a worker that performs n steps by calling fn with the step
// index.
func Steps(n int, fn func(i int)) Worker {
	i := 0
	return WorkerFunc(func() bool {
		if i >= n {
			return false
		}
		fn(i)
		i++
		return i < n
	})
}
