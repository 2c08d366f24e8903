// Package par runs a function over indexes on goroutines of their own and
// joins them under one panic rule: the join waits for every goroutine, then
// re-raises the panic of the lowest index that panicked, with its original
// value, on the caller's goroutine. A recover there — persist.Runtime.AbortAt's,
// the scenario engine's, a test's — sees what it would have seen had the
// indexes run one after another on it, and no panic on a worker goroutine
// ends the process.
package par

import (
	"cmp"
	"sync"
)

// Go starts fn(i) for every i below n, each on a goroutine of its own, and
// returns the join, which waits for all of them and then re-raises the
// lowest index's panic. fn releases whatever it holds on the way out of a
// panic: the join cannot.
func Go(n int, fn func(i int)) (join func()) {
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			catch(panics, i, fn)
		}()
	}
	return func() {
		wg.Wait()
		reraise(panics)
	}
}

// Each calls fn(0) … fn(n-1), up to workers of them at a time (clamped to
// [1, n]), and waits for all of them. Every index runs, whatever an earlier
// one did: a panicking call is recovered, so its worker goes on to the next
// index. Each then re-raises the lowest index's panic, or returns the
// lowest index's error.
func Each(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	panics := make([]any, n)
	next := make(chan int)
	join := Go(max(1, min(workers, n)), func(int) {
		for i := range next {
			catch(panics, i, func(i int) { errs[i] = fn(i) })
		}
	})
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	join()
	reraise(panics)
	return cmp.Or(errs...)
}

// catch calls fn(i) and keeps its panic, if any, in panics[i].
func catch(panics []any, i int, fn func(int)) {
	defer func() { panics[i] = recover() }()
	fn(i)
}

// reraise panics with the first non-nil value of panics.
func reraise(panics []any) {
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
