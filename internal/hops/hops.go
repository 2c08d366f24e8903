// Package hops models the Hands-Off Persistence System of §6 for the
// Figure 10 evaluation: per-thread persist buffers (PBs) that drain in the
// background under Buffered Epoch Persistency (BEP), with ofences that only
// end an epoch and dfences that wait for the buffer to drain.
//
// The model is a trace-replay timing model (timing.go, stream.go): it
// reruns a recorded WHISPER trace under five persistence models (x86-64
// and HOPS, each with durability at NVM or at a persistent write queue,
// plus a non-crash-consistent IDEAL) and reports their runtimes. The
// package's tests keep a functional model of the hardware beside it —
// buffered updates, multi-versioning, cross-thread dependency pointers and
// a durable image — as the oracle for the §6.2 ordering invariants.
package hops

// Config sizes the HOPS hardware. A zero PBEntries means its DefaultConfig
// value. The core, the memory controllers and their pipelines are fixed
// (oooWidth, mem.MCs, mcPipeline), and every latency is the Table 3
// machine's (internal/mem).
type Config struct {
	// PBEntries is the per-thread persist buffer capacity (32 in §6.4).
	PBEntries int
	// DrainAt is the occupancy at which background flushing is launched
	// (16 in §6.4). In the timing replay, closed epochs always start
	// draining at the fence that closed them (BEP allows nothing earlier
	// and delaying them buys nothing); DrainAt governs the OPEN epoch:
	// when a thread's buffer occupancy reaches DrainAt, the drain engine
	// force-closes (epoch-splits) the in-flight epoch and drains it too.
	// DrainAt=1 is a fully eager engine (every store is handed to the
	// write queues immediately); values are clamped to [1, PBEntries].
	DrainAt int
}

// DefaultConfig mirrors the evaluation configuration of §6.4.
func DefaultConfig() Config {
	return Config{PBEntries: 32, DrainAt: 16}
}
