//go:build race

package pmem

// raceEnabled lets wall-clock ratio tests skip under the race detector,
// whose instrumentation distorts them.
const raceEnabled = true
