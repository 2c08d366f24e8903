package alloc

import (
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// Logged is the NVML-style atomic allocator. Like MultiSlab it keeps
// per-class bitmaps, but every bitmap mutation is made crash-atomic by a
// persistent redo record:
//
//  1. write the redo record (target word, new value)     — epoch
//  2. mark the record committed                          — epoch
//  3. apply the mutation to the bitmap                   — epoch
//  4. clear the record                                   — epoch
//  5. initialize the object's auxiliary header           — epoch
//
// Those five small epochs per allocation are why the paper measures ~1000%
// write amplification for NVML (§5.2) versus Mnemosyne's one bitmap write.
type Logged struct {
	inner *MultiSlab

	// logs holds one redo record region per thread (real NVML keeps
	// per-lane redo logs, so allocator logging does not create
	// cross-thread dependencies). Record layout: target addr u64 | new
	// value u64 | state u64.
	logs []mem.Addr
}

// Redo record states.
const (
	logEmpty     uint64 = 0
	logCommitted uint64 = 1
)

// objHeaderSize is the auxiliary per-object header NVML initializes
// (type/size metadata).
const objHeaderSize = 16

// NewLogged creates a logged allocator with blocksPerClass blocks per size
// class.
func NewLogged(rt *persist.Runtime, blocksPerClass int) *Logged {
	g := &Logged{inner: NewMultiSlab(rt, blocksPerClass)}
	for i := 0; i < rt.Threads(); i++ {
		g.logs = append(g.logs, rt.Dev.Map(24))
	}
	return g
}

func (g *Logged) loggedBitmapUpdate(th *persist.Thread, word mem.Addr, newVal uint64) {
	logBase := g.logs[th.ID()]
	// 1. Redo record.
	th.StoreU64(logBase, uint64(word))
	th.StoreU64(logBase+8, newVal)
	th.Flush(logBase, 16)
	th.Fence()
	// 2. Commit the record.
	th.StoreU64(logBase+16, logCommitted)
	th.Flush(logBase+16, 8)
	th.Fence()
	// 3. Apply.
	th.StoreU64(word, newVal)
	th.Flush(word, 8)
	th.Fence()
	// 4. Clear the record.
	th.StoreU64(logBase+16, logEmpty)
	th.Flush(logBase+16, 8)
	th.Fence()
}

// Alloc allocates a block of at least size+objHeaderSize bytes and returns
// the address of the usable region (past the object header). Returns 0 on
// exhaustion.
func (g *Logged) Alloc(th *persist.Thread, size int) mem.Addr {
	c := g.inner.classFor(size + objHeaderSize)
	blk, ok := c.pop(th.ID())
	if !ok {
		return 0
	}
	th.VLoad(1)

	word := c.bitmaps + mem.Addr(blk/64*8)
	v := th.LoadU64(word) | 1<<uint(blk%64)
	g.loggedBitmapUpdate(th, word, v)

	// 5. Auxiliary object header (size class + object size).
	base := c.data + mem.Addr(blk*c.blockSize)
	th.StoreU64(base, uint64(c.blockSize))
	th.StoreU64(base+8, uint64(size))
	th.Flush(base, objHeaderSize)
	th.Fence()
	return base + objHeaderSize
}

// Free releases an object allocated by Alloc.
func (g *Logged) Free(th *persist.Thread, a mem.Addr) {
	c, blk := g.inner.locate(a - objHeaderSize)
	word := c.bitmaps + mem.Addr(blk/64*8)
	v := th.LoadU64(word)
	bit := uint64(1) << uint(blk%64)
	if v&bit == 0 {
		panic("alloc: double free")
	}
	g.loggedBitmapUpdate(th, word, v&^bit)
	c.push(blk)
	th.VStore(1)
}

// FreeIfAllocated frees the object if its bitmap bit is set and reports
// whether a free happened. Used by idempotent crash-recovery replay of
// deferred frees.
func (g *Logged) FreeIfAllocated(th *persist.Thread, a mem.Addr) bool {
	c, blk := g.inner.locate(a - objHeaderSize)
	word := c.bitmaps + mem.Addr(blk/64*8)
	if th.LoadU64(word)&(1<<uint(blk%64)) == 0 {
		return false
	}
	g.Free(th, a)
	return true
}

// Recover replays a committed-but-uncleared redo record, then rebuilds the
// volatile free indexes. After Recover the allocator state is exactly as if
// the interrupted operation had completed (allocation atomicity, unlike
// MultiSlab's leak-on-crash).
func (g *Logged) Recover(th *persist.Thread) {
	for _, logBase := range g.logs {
		if th.LoadU64(logBase+16) != logCommitted {
			continue
		}
		word := mem.Addr(th.LoadU64(logBase))
		val := th.LoadU64(logBase + 8)
		th.StoreU64(word, val)
		th.Flush(word, 8)
		th.Fence()
		th.StoreU64(logBase+16, logEmpty)
		th.Flush(logBase+16, 8)
		th.Fence()
	}
	g.inner.Recover(th)
}
