// Package alloc implements the three persistent-memory allocator designs
// whose metadata traffic dominates WHISPER's small-epoch behaviour (§5.2,
// "How does memory allocation affect behavior?"):
//
//   - SingleSlab: one heap for all sizes with split/coalesce and a
//     persistent state word per block — the N-store/Echo design. Frequent
//     splits and coalesces each cost a persistent metadata write.
//   - MultiSlab: per-size-class slabs with persistent allocation bitmaps
//     and volatile free indexes — the Mnemosyne design. One tiny
//     (sub-10-byte) singleton epoch per alloc/free; can leak on crash.
//   - Logged: bitmap slabs whose every mutation is redo-logged — the NVML
//     design. Atomic even across crashes, at the cost of several extra
//     epochs per allocation.
//
// All metadata updates go through a persist.Thread, so allocator behaviour
// shows up in traces exactly as it does in the paper's applications.
package alloc

import (
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// Block states stored in SingleSlab headers. N-store allocates both
// volatile and persistent data from a persistent heap and labels each block
// (§5.1), causing the extra state-write epochs the paper observes.
const (
	StateFree       uint64 = 0
	StateVolatile   uint64 = 1
	StatePersistent uint64 = 2
)

// headerSize is the per-block metadata of SingleSlab: size and state words.
const headerSize = 16

// SingleSlab is a first-fit heap with per-block persistent headers.
type SingleSlab struct {
	rt   *persist.Runtime
	base mem.Addr
	size int

	// free is the volatile free list (block base addresses, ascending).
	// The persistent truth is the header chain; Recover rebuilds this.
	free []mem.Addr
}

// NewSingleSlab creates a slab of the given byte size, formatting it as a
// single free block. The formatting writes are persisted immediately.
func NewSingleSlab(rt *persist.Runtime, th *persist.Thread, size int) *SingleSlab {
	if size < headerSize*2 {
		panic("alloc: slab too small")
	}
	s := &SingleSlab{rt: rt, base: rt.Dev.Map(size), size: size}
	s.writeHeader(th, s.base, uint64(size), StateFree)
	s.free = []mem.Addr{s.base}
	return s
}

func (s *SingleSlab) writeHeader(th *persist.Thread, block mem.Addr, size, state uint64) {
	th.StoreU64(block, size)
	th.StoreU64(block+8, state)
	th.Flush(block, headerSize)
	th.Fence()
}

func (s *SingleSlab) blockSize(th *persist.Thread, block mem.Addr) uint64 {
	return th.LoadU64(block)
}

func (s *SingleSlab) blockState(th *persist.Thread, block mem.Addr) uint64 {
	return th.LoadU64(block + 8)
}

// Alloc returns the address of a data region of at least size bytes, or 0
// if the slab is exhausted. The returned address points past the block
// header. Each allocation persists one or two header updates (two when the
// chosen block is split), each in its own epoch — the singleton-epoch
// behaviour of §5.1.
func (s *SingleSlab) Alloc(th *persist.Thread, size int) mem.Addr {
	need := uint64(headerSize + align8(size))
	for i, blk := range s.free {
		bs := s.blockSize(th, blk)
		th.VLoad(1) // free-list traversal
		if bs < need {
			continue
		}
		if bs >= need+headerSize+8 {
			// Split: format the remainder as a free block first so a crash
			// between the two header writes never loses bytes.
			rest := blk + mem.Addr(need)
			s.writeHeader(th, rest, bs-need, StateFree)
			s.writeHeader(th, blk, need, StatePersistent)
			s.free[i] = rest
		} else {
			s.writeHeader(th, blk, bs, StatePersistent)
			s.free = append(s.free[:i], s.free[i+1:]...)
		}
		th.VStore(1)
		return blk + headerSize
	}
	return 0
}

// SetState updates the block's persistent state label in its own epoch —
// N-store's FREE/VOLATILE/PERSISTENT transitions, a major source of
// self-dependencies (§5.1).
func (s *SingleSlab) SetState(th *persist.Thread, data mem.Addr, state uint64) {
	blk := data - headerSize
	th.StoreU64(blk+8, state)
	th.Flush(blk+8, 8)
	th.Fence()
}

func (s *SingleSlab) inSlab(a mem.Addr) bool {
	return a >= s.base && a < s.base+mem.Addr(s.size)
}

// Recover rebuilds the volatile free list by walking the persistent header
// chain, the post-crash path of a header-based allocator.
func (s *SingleSlab) Recover(th *persist.Thread) {
	s.free = s.free[:0]
	a := s.base
	for s.inSlab(a) {
		bs := s.blockSize(th, a)
		if bs < headerSize {
			break // unformatted tail (crash during the very first format)
		}
		if s.blockState(th, a) == StateFree {
			s.free = append(s.free, a)
		}
		a += mem.Addr(bs)
	}
}

func align8(n int) int { return (n + 7) &^ 7 }
