//go:build !race

package trace

// poison leaves a released chunk as it is: the race detector's builds mark
// it (race.go).
func poison([]Event) {}
