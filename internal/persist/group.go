package persist

import "github.com/whisper-pm/whisper/internal/mem"

// Group accumulates the dirty byte spans of many logically independent
// requests so that one coalesced flush sequence and a single SFENCE make
// them all durable together — cross-request epoch coalescing, the group
// commit of database engines lowered to the persist layer.
//
// The alternative — each request issuing its own flush+fence — pays one
// ordering point per request; a group pays one for the whole batch, and
// overlapping spans (adjacent log records sharing a cache line, repeated
// metadata updates) collapse to a single CLWB per distinct line. Commit
// goes through the owning Thread's ordinary Flush and Fence, so the
// trace stays legal for every downstream consumer: the epoch analysis
// sees one epoch closing the batch, and pmsan sees every line covered
// by a flush and a fence with no redundant-flush smell.
//
// A Group is not safe for concurrent use; like the Thread it wraps, the
// caller serializes access (the service layer holds its shard lock).
type Group struct {
	th    *Thread
	spans []mem.Span
	runs  []mem.Span // Commit's coalesced runs, kept for the next batch
	lines []mem.Line // Commit's sort buffer, kept for the next batch
}

// NewGroup creates an empty group committing through th.
func NewGroup(th *Thread) *Group { return &Group{th: th} }

// Add records [a, a+size) as written by the current batch. Size <= 0
// spans nothing and is ignored, mirroring Thread.Flush.
func (g *Group) Add(a mem.Addr, size int) {
	if size <= 0 {
		return
	}
	g.spans = append(g.spans, mem.Span{Addr: a, Size: size})
}

// Pending returns the number of spans accumulated since the last Commit.
func (g *Group) Pending() int { return len(g.spans) }

// Commit flushes every distinct cache line the accumulated spans touch
// (coalesced into maximal runs) and issues one fence, then resets the
// group for the next batch. An empty group is a complete no-op: there is
// nothing to order, so no fence is issued (an unconditional fence would
// be exactly the fence-without-work smell the sanitizer flags). A group
// reuses its buffers, so once they have grown to the largest batch a
// commit allocates nothing.
func (g *Group) Commit() {
	if len(g.spans) == 0 {
		return
	}
	g.runs, g.lines = mem.Coalesce(g.runs, g.lines, g.spans)
	for _, s := range g.runs {
		g.th.Flush(s.Addr, s.Size)
	}
	g.th.Fence()
	g.spans = g.spans[:0]
}
