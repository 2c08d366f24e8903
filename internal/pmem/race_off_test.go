//go:build !race

package pmem

const raceEnabled = false
