// Package ctree reimplements the C-tree micro-benchmark shipped with NVML
// (§3.2.2): a persistent crit-bit tree (a radix/PATRICIA variant;
// cr.yp.to/critbit.html) whose inserts and deletes run in pmemobj-style
// undo-log transactions. The paper uses it as the second
// simulator-suitable NVML workload (median 11 epochs/tx, ~79%
// self-dependencies).
package ctree

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Node layouts. An internal node discriminates on one bit of the 64-bit
// key; a leaf stores the key and value. The low bit of a child pointer
// tags it as a leaf (PM allocations are 8-byte aligned, so bit 0 is free).
const (
	// internal: bit u64 | child0 u64 | child1 u64
	nBit    = 0
	nChild0 = 8
	nChild1 = 16
	nSize   = 24

	// leaf: key u64 | value u64
	lKey     = 0
	lVal     = 8
	lSize    = 16
	rootSlot = 1

	leafTag = uint64(1)
)

// Tree is a persistent crit-bit tree over uint64 keys.
type Tree struct {
	rt   *persist.Runtime
	pool *nvml.Pool
	// rootPtr is the persistent word holding the (tagged) root pointer.
	rootPtr mem.Addr
	count   int
}

// New creates an empty tree inside pool.
func New(rt *persist.Runtime, pool *nvml.Pool) *Tree {
	t := &Tree{rt: rt, pool: pool}
	th := rt.Thread(0)
	pool.Run(th, func(tx *nvml.Tx) error {
		t.rootPtr = tx.Alloc(8)
		return nil
	})
	pool.SetRoot(th, rootSlot, t.rootPtr)
	return t
}

func isLeaf(p uint64) bool       { return p&leafTag != 0 }
func leafAddr(p uint64) mem.Addr { return mem.Addr(p &^ leafTag) }

// critBit returns the index (63..0) of the highest bit where a and b
// differ; a == b is the caller's responsibility.
func critBit(a, b uint64) uint {
	x := a ^ b
	bit := uint(63)
	for x>>bit == 0 {
		bit--
	}
	return bit
}

// Insert adds or updates key -> value in one durable transaction.
func (t *Tree) Insert(tid int, key, value uint64) error {
	th := t.rt.Thread(tid)
	return t.pool.Run(th, func(tx *nvml.Tx) error {
		root := tx.ReadU64(t.rootPtr)
		if root == 0 {
			leaf := t.newLeaf(tx, key, value)
			tx.SetU64(t.rootPtr, uint64(leaf)|leafTag)
			th.UserData(16)
			t.count++
			return nil
		}
		// Walk to the closest leaf.
		slot := t.rootPtr
		p := root
		for !isLeaf(p) {
			node := mem.Addr(p)
			bit := uint(tx.ReadU64(node + nBit))
			if key>>bit&1 == 0 {
				slot = node + nChild0
			} else {
				slot = node + nChild1
			}
			p = tx.ReadU64(slot)
			th.VLoad(1)
		}
		leaf := leafAddr(p)
		existing := tx.ReadU64(leaf + lKey)
		if existing == key {
			tx.SetU64(leaf+lVal, value)
			th.UserData(8)
			return nil
		}
		// Split: find the crit bit against the found leaf, then descend
		// again from the root to the correct insertion point (standard
		// crit-bit insertion).
		bit := critBit(key, existing)
		slot = t.rootPtr
		p = tx.ReadU64(slot)
		for !isLeaf(p) {
			node := mem.Addr(p)
			nbit := uint(tx.ReadU64(node + nBit))
			if nbit <= bit {
				break
			}
			if key>>nbit&1 == 0 {
				slot = node + nChild0
			} else {
				slot = node + nChild1
			}
			p = tx.ReadU64(slot)
		}
		newLeaf := t.newLeaf(tx, key, value)
		node := tx.Alloc(nSize)
		var buf [nSize]byte
		binary.LittleEndian.PutUint64(buf[nBit:], uint64(bit))
		if key>>bit&1 == 0 {
			binary.LittleEndian.PutUint64(buf[nChild0:], uint64(newLeaf)|leafTag)
			binary.LittleEndian.PutUint64(buf[nChild1:], p)
		} else {
			binary.LittleEndian.PutUint64(buf[nChild0:], p)
			binary.LittleEndian.PutUint64(buf[nChild1:], uint64(newLeaf)|leafTag)
		}
		tx.Write(node, buf[:])
		tx.SetU64(slot, uint64(node))
		th.UserData(16)
		t.count++
		return nil
	})
}

func (t *Tree) newLeaf(tx *nvml.Tx, key, value uint64) mem.Addr {
	leaf := tx.Alloc(lSize)
	var buf [lSize]byte
	binary.LittleEndian.PutUint64(buf[lKey:], key)
	binary.LittleEndian.PutUint64(buf[lVal:], value)
	tx.Write(leaf, buf[:])
	return leaf
}

// Get returns the value for key.
func (t *Tree) Get(tid int, key uint64) (uint64, bool) {
	th := t.rt.Thread(tid)
	p := th.LoadU64(t.rootPtr)
	if p == 0 {
		return 0, false
	}
	for !isLeaf(p) {
		node := mem.Addr(p)
		bit := uint(th.LoadU64(node + nBit))
		if key>>bit&1 == 0 {
			p = th.LoadU64(node + nChild0)
		} else {
			p = th.LoadU64(node + nChild1)
		}
	}
	leaf := leafAddr(p)
	if th.LoadU64(leaf+lKey) != key {
		return 0, false
	}
	return th.LoadU64(leaf + lVal), true
}

// Delete removes key in one durable transaction; returns false if absent.
func (t *Tree) Delete(tid int, key uint64) (bool, error) {
	th := t.rt.Thread(tid)
	found := false
	err := t.pool.Run(th, func(tx *nvml.Tx) error {
		p := tx.ReadU64(t.rootPtr)
		if p == 0 {
			return nil
		}
		if isLeaf(p) {
			leaf := leafAddr(p)
			if tx.ReadU64(leaf+lKey) != key {
				return nil
			}
			tx.SetU64(t.rootPtr, 0)
			tx.Free(leaf)
			found = true
			t.count--
			return nil
		}
		// Track grandparent slot, parent node, and which side we took.
		gpSlot := t.rootPtr
		node := mem.Addr(p)
		for {
			bit := uint(tx.ReadU64(node + nBit))
			var slot, sibling mem.Addr
			if key>>bit&1 == 0 {
				slot, sibling = node+nChild0, node+nChild1
			} else {
				slot, sibling = node+nChild1, node+nChild0
			}
			c := tx.ReadU64(slot)
			if isLeaf(c) {
				leaf := leafAddr(c)
				if tx.ReadU64(leaf+lKey) != key {
					return nil
				}
				// Splice: grandparent adopts the sibling subtree.
				tx.SetU64(gpSlot, tx.ReadU64(sibling))
				tx.Free(leaf)
				tx.Free(node)
				found = true
				t.count--
				return nil
			}
			gpSlot = slot
			node = mem.Addr(c)
		}
	})
	return found, err
}

// Len returns the volatile element count.
func (t *Tree) Len() int { return t.count }

// CountPersistent walks the tree and counts leaves (recovery ground
// truth); it also refreshes the volatile count.
func (t *Tree) CountPersistent(tid int) int {
	th := t.rt.Thread(tid)
	n := t.countFrom(th, th.LoadU64(t.rootPtr))
	t.count = n
	return n
}

func (t *Tree) countFrom(th *persist.Thread, p uint64) int {
	if p == 0 {
		return 0
	}
	if isLeaf(p) {
		return 1
	}
	node := mem.Addr(p)
	return t.countFrom(th, th.LoadU64(node+nChild0)) +
		t.countFrom(th, th.LoadU64(node+nChild1))
}

// Recover reopens the tree after a crash: the pool's undo logs are applied
// (rolling back any in-flight transaction), the root pointer is reread from
// the pool root table, and the volatile count is rebuilt from the leaves.
func (t *Tree) Recover() {
	th := t.rt.Thread(0)
	t.pool.Recover(th)
	t.rootPtr = t.pool.Root(th, rootSlot)
	t.CountPersistent(0)
}

// CheckInvariants verifies the crit-bit structural invariants over the
// persistent image: bit indices strictly decrease from parent to child,
// no child pointer is nil below the root, every leaf's key matches the
// bit pattern of the path taken to reach it, and the tree is acyclic
// (depth-bounded by the 64-bit key width).
func (t *Tree) CheckInvariants(tid int) error {
	th := t.rt.Thread(tid)
	root := th.LoadU64(t.rootPtr)
	if root == 0 {
		return nil
	}
	return t.checkNode(th, root, 64, 0, 0)
}

// checkNode validates the subtree at p. Every leaf key k under p must
// satisfy k&mask == want (the bits fixed by the path so far), and every
// internal bit index must be < parentBit.
func (t *Tree) checkNode(th *persist.Thread, p uint64, parentBit uint, mask, want uint64) error {
	if isLeaf(p) {
		key := th.LoadU64(leafAddr(p) + lKey)
		if key&mask != want {
			return fmt.Errorf("ctree: leaf key %#x violates path prefix (mask %#x want %#x)", key, mask, want)
		}
		return nil
	}
	node := mem.Addr(p)
	bit := uint(th.LoadU64(node + nBit))
	if bit >= parentBit {
		return fmt.Errorf("ctree: node bit %d not below parent bit %d", bit, parentBit)
	}
	c0 := th.LoadU64(node + nChild0)
	c1 := th.LoadU64(node + nChild1)
	if c0 == 0 || c1 == 0 {
		return fmt.Errorf("ctree: internal node with nil child (bit %d)", bit)
	}
	if err := t.checkNode(th, c0, bit, mask|1<<bit, want); err != nil {
		return err
	}
	return t.checkNode(th, c1, bit, mask|1<<bit, want|1<<bit)
}

// Workload is the ctree workload: the paper's INSERT transactions over
// fresh random keys ("100K INSERT transactions"), or under
// workload.Checker the checker's insert/delete/get mix over 256 keys.
type Workload struct {
	rt    *persist.Runtime
	kv    workload.KV[uint64, uint64]
	keys  []*rand.Rand
	check *workload.KVCheck[uint64, uint64]
}

// Setup prepares clients' generators over kv: a *Tree, or an oracle
// wrapping one.
func Setup(rt *persist.Runtime, kv workload.KV[uint64, uint64], mix workload.Mix, clients int, seed int64) *Workload {
	w := &Workload{rt: rt, kv: kv}
	if mix == workload.Checker {
		w.check = workload.NewKVCheck(kv, clients, seed, 256, workload.NonZero)
	}
	for c := 0; c < clients; c++ {
		w.keys = append(w.keys, rand.New(rand.NewSource(seed+int64(c))))
	}
	return w
}

// Op runs client tid's i-th operation.
func (w *Workload) Op(tid, i int) {
	if w.check != nil {
		w.check.Op(tid)
	} else {
		w.kv.Insert(tid, w.keys[tid].Uint64(), uint64(i))
	}
	th := w.rt.Thread(tid)
	th.Compute(21000)
	// Benchmark driver, key generation (Figure 6: ~3.3% PM).
	th.VLoad(1200)
	th.VStore(400)
}
