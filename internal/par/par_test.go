package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// recovered runs f and returns the value it panicked with, nil if none.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestGoLowestPanicAfterAll: the join re-raises the lowest index's panic
// with its original value — not the first in time — and only once every
// goroutine has returned.
func TestGoLowestPanicAfterAll(t *testing.T) {
	const n = 8
	var returned atomic.Int32
	var others sync.WaitGroup // every index but 2
	others.Add(n - 1)
	vals := make([]error, n)
	for i := range vals {
		vals[i] = fmt.Errorf("worker %d", i)
	}
	join := Go(n, func(i int) {
		defer returned.Add(1)
		if i == 2 { // panics last, after 5 has panicked and the rest have returned
			others.Wait()
			panic(vals[i])
		}
		defer others.Done()
		if i == 5 {
			panic(vals[i])
		}
	})
	if r := recovered(join); r != vals[2] {
		t.Fatalf("join raised %v, want %v", r, vals[2])
	}
	if got := returned.Load(); got != n {
		t.Fatalf("join raised with %d of %d goroutines returned", got, n)
	}
	if r := recovered(Go(n, func(int) {})); r != nil {
		t.Fatalf("join of goroutines that did not panic raised %v", r)
	}
	if r := recovered(Go(0, func(int) { t.Error("fn ran for n = 0") })); r != nil {
		t.Fatalf("join of no goroutines raised %v", r)
	}
}

// TestEachRunsEveryIndex: every index runs exactly once whatever the
// worker count — clamped to [1, n] — and whatever an earlier index
// returned or raised, and a panicking worker neither deadlocks the call nor
// loses its next index.
func TestEachRunsEveryIndex(t *testing.T) {
	const n = 50
	for _, workers := range []int{-1, 0, 1, 3, n, 2 * n} {
		ran := make([]atomic.Int32, n)
		r := recovered(func() {
			Each(n, workers, func(i int) error {
				ran[i].Add(1)
				if i%7 == 3 {
					panic(i)
				}
				if i%5 == 1 {
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
		})
		if r != 3 {
			t.Errorf("workers=%d: Each raised %v, want index 3's panic", workers, r)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	if err := Each(0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("Each over no indexes returned %v", err)
	}
}

// TestEachLowestError: without a panic, Each returns the lowest index's
// error, whichever worker finished first.
func TestEachLowestError(t *testing.T) {
	errs := []error{nil, nil, errors.New("two"), nil, errors.New("four"), errors.New("five")}
	for _, workers := range []int{1, 2, len(errs)} {
		err := Each(len(errs), workers, func(i int) error { return errs[i] })
		if err != errs[2] {
			t.Errorf("workers=%d: Each returned %v, want %v", workers, err, errs[2])
		}
	}
	if err := Each(len(errs), 2, func(int) error { return nil }); err != nil {
		t.Errorf("Each returned %v with no index failing", err)
	}
}
