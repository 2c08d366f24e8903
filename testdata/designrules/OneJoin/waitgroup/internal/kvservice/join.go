package kvservice

import "sync"

func each(fns []func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	wg.Wait()
}
