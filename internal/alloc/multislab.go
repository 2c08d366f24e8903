package alloc

import (
	"fmt"
	"math/bits"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// MultiSlab is the Mnemosyne-style allocator: one slab per power-of-two
// size class, a persistent bitmap word per 64 blocks, and a volatile free
// index per class. An allocation is a single sub-10-byte persistent store
// (set the bitmap bit) flushed and fenced in its own epoch; that is exactly
// the dominant singleton-epoch source the paper identifies. A crash between
// an allocation and the linking of the object into a reachable structure
// leaks the block (Mnemosyne's documented trade-off).
type MultiSlab struct {
	rt      *persist.Runtime
	classes []*slabClass
}

// stripes spreads consecutive allocations of different threads across
// different bitmap words: real Mnemosyne/NVML use per-thread arenas, so two
// threads allocating concurrently do not write the same allocator word and
// do not manufacture cross-thread dependencies (§5.1 finds cross-deps
// rare).
const stripes = 8

type slabClass struct {
	blockSize int
	perSlab   int                // blocks per slab
	bitmaps   mem.Addr           // perSlab/64 persistent words
	data      mem.Addr           // perSlab * blockSize bytes
	free      [stripes]FreeWords // volatile free indexes, striped by bitmap word
}

// FreeWords is the volatile free index over a persistent allocation
// bitmap: a stack of (bitmap word, free bits) pairs, one entry per word
// rather than one per block. Pop hands out the top word's lowest free bit.
type FreeWords []freeWord

type freeWord struct {
	w    int
	free uint64
}

// Push puts word w's free bits on top of the stack; a zero mask is skipped.
func (f *FreeWords) Push(w int, free uint64) {
	if free != 0 {
		*f = append(*f, freeWord{w, free})
	}
}

// Pop takes the lowest free bit of the top word, dropping the word once it
// is empty, and returns its block number w*64+bit.
func (f *FreeWords) Pop() (int, bool) {
	n := len(*f)
	if n == 0 {
		return 0, false
	}
	top := &(*f)[n-1]
	blk := top.w*64 + bits.TrailingZeros64(top.free)
	if top.free &= top.free - 1; top.free == 0 {
		*f = (*f)[:n-1]
	}
	return blk, true
}

// pop takes a free block, preferring the thread's own stripe.
func (c *slabClass) pop(tid int) (int, bool) {
	for i := 0; i < stripes; i++ {
		if blk, ok := c.free[(tid+i)%stripes].Pop(); ok {
			return blk, true
		}
	}
	return 0, false
}

func (c *slabClass) push(blk int) {
	c.free[(blk/64)%stripes].Push(blk/64, 1<<uint(blk%64))
}

// MultiSlabClasses are the supported allocation sizes. The large classes
// serve table/bucket arrays; small-object traffic dominates real runs.
var MultiSlabClasses = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
	8192, 16384, 32768, 65536}

// NewMultiSlab creates a multi-slab allocator with blocksPerClass blocks in
// every size class (rounded up to a multiple of 64 so bitmaps are whole
// words).
func NewMultiSlab(rt *persist.Runtime, blocksPerClass int) *MultiSlab {
	if blocksPerClass <= 0 {
		panic("alloc: blocksPerClass must be positive")
	}
	per := (blocksPerClass + 63) &^ 63
	m := &MultiSlab{rt: rt}
	for _, bs := range MultiSlabClasses {
		c := &slabClass{
			blockSize: bs,
			perSlab:   per,
			bitmaps:   rt.Dev.Map(per / 8),
			data:      rt.Dev.Map(per * bs),
		}
		for w := per/64 - 1; w >= 0; w-- {
			c.free[w%stripes].Push(w, ^uint64(0))
		}
		m.classes = append(m.classes, c)
	}
	return m
}

func (m *MultiSlab) classFor(size int) *slabClass {
	for _, c := range m.classes {
		if size <= c.blockSize {
			return c
		}
	}
	panic(fmt.Sprintf("alloc: size %d exceeds largest class %d", size,
		m.classes[len(m.classes)-1].blockSize))
}

// Alloc returns a block of at least size bytes, or 0 when the class is
// exhausted. Persists one bitmap word in its own epoch.
func (m *MultiSlab) Alloc(th *persist.Thread, size int) mem.Addr {
	c := m.classFor(size)
	blk, ok := c.pop(th.ID())
	if !ok {
		return 0
	}
	th.VLoad(1)

	word := c.bitmaps + mem.Addr(blk/64*8)
	v := th.LoadU64(word)
	v |= 1 << uint(blk%64)
	th.StoreU64(word, v)
	th.Flush(word, 8)
	th.Fence()
	return c.data + mem.Addr(blk*c.blockSize)
}

// Free returns a block to its class. Persists one bitmap word in its own
// epoch.
func (m *MultiSlab) Free(th *persist.Thread, a mem.Addr) {
	c, blk := m.locate(a)
	word := c.bitmaps + mem.Addr(blk/64*8)
	v := th.LoadU64(word)
	bit := uint64(1) << uint(blk%64)
	if v&bit == 0 {
		panic(fmt.Sprintf("alloc: double free of %v", a))
	}
	th.StoreU64(word, v&^bit)
	th.Flush(word, 8)
	th.Fence()
	c.push(blk)
	th.VStore(1)
}

func (m *MultiSlab) locate(a mem.Addr) (*slabClass, int) {
	for _, c := range m.classes {
		end := c.data + mem.Addr(c.perSlab*c.blockSize)
		if a >= c.data && a < end {
			off := int(a - c.data)
			if off%c.blockSize != 0 {
				panic(fmt.Sprintf("alloc: %v is not a block base", a))
			}
			return c, off / c.blockSize
		}
	}
	panic(fmt.Sprintf("alloc: address %v not from this allocator", a))
}

// Recover rebuilds the volatile free indexes from the persistent bitmaps,
// one entry per word with a free block, words pushed lowest first.
func (m *MultiSlab) Recover(th *persist.Thread) {
	for _, c := range m.classes {
		for i := range c.free {
			c.free[i] = c.free[i][:0]
		}
		for w := 0; w < c.perSlab/64; w++ {
			c.free[w%stripes].Push(w, ^th.LoadU64(c.bitmaps+mem.Addr(w*8)))
		}
	}
}
