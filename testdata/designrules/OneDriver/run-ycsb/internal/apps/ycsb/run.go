package ycsb

// An app's own workload loop.
func RunYCSB(ops int) int { return ops }
