// Package sched provides the deterministic scheduler that stands in for
// real multithreaded execution (see DESIGN.md, "Substitutions").
//
// WHISPER workloads drive several client threads against shared persistent
// structures. The paper's dependency analysis (Figure 5) only needs the
// interleaving of *epochs* across threads on a global clock, so we
// interleave logical threads at transaction granularity: the scheduler
// repeatedly picks a runnable client under a seeded RNG and lets it execute
// one whole operation on the shared simulated clock. The result is a
// realistic, cross-thread-conflicting event stream that is reproducible
// bit-for-bit for a given seed.
package sched

import "math/rand"

// Run interleaves len(steps) client threads, client tid performing
// steps[tid] operations: it repeatedly picks a live client uniformly at
// random under an RNG seeded with seed and calls fn(tid, i) for that
// client's i-th operation. A client leaves the pool after its last
// operation; a client with no operations is still picked once, and leaves
// then. fn returning false stops the run before anything else executes.
// Run keeps O(clients) state whatever the step counts, and is
// deterministic for fixed steps and seed.
func Run(steps []int, seed int64, fn func(tid, i int) bool) {
	rng := rand.New(rand.NewSource(seed))
	live := make([]int, len(steps))
	next := make([]int, len(steps))
	for tid := range live {
		live[tid] = tid
	}
	for len(live) > 0 {
		j := rng.Intn(len(live))
		tid := live[j]
		if i := next[tid]; i < steps[tid] {
			if !fn(tid, i) {
				return
			}
			next[tid]++
		}
		if next[tid] >= steps[tid] {
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}
