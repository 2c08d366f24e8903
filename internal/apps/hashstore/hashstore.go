// Package hashstore reimplements the Hashmap micro-benchmark shipped with
// NVML (§3.2.2): a persistent hash map with chaining whose inserts and
// deletes run in pmemobj-style undo-log transactions. The paper uses it as
// a simulator-suitable stand-in for larger NVML applications (Figures 3-6,
// 10: median 11 epochs/tx, ~81% self-dependencies).
package hashstore

import (
	"encoding/binary"
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Entry layout: key u64 | value u64 | next u64.
const (
	eKey     = 0
	eVal     = 8
	eNext    = 16
	eSize    = 24
	rootSlot = 0
)

// Map is a persistent hash map.
type Map struct {
	rt      *persist.Runtime
	pool    *nvml.Pool
	buckets mem.Addr
	nbucket uint64
	count   int // volatile size hint
}

// New creates a map with nbuckets chains inside pool. The bucket array is
// allocated and published transactionally.
func New(rt *persist.Runtime, pool *nvml.Pool, nbuckets int) *Map {
	m := &Map{rt: rt, pool: pool, nbucket: uint64(nbuckets)}
	th := rt.Thread(0)
	pool.Run(th, func(tx *nvml.Tx) error {
		m.buckets = tx.Alloc(nbuckets * 8)
		return nil
	})
	pool.SetRoot(th, rootSlot, m.buckets)
	return m
}

// Attach reopens a map over an existing pool after recovery.
func Attach(rt *persist.Runtime, pool *nvml.Pool, nbuckets int) *Map {
	th := rt.Thread(0)
	return &Map{rt: rt, pool: pool, nbucket: uint64(nbuckets),
		buckets: pool.Root(th, rootSlot)}
}

func (m *Map) bucketAddr(key uint64) mem.Addr {
	return m.buckets + mem.Addr((key%m.nbucket)*8)
}

// Insert adds or updates key -> value in one durable transaction.
func (m *Map) Insert(tid int, key, value uint64) error {
	th := m.rt.Thread(tid)
	return m.pool.Run(th, func(tx *nvml.Tx) error {
		bucket := m.bucketAddr(key)
		// Search the chain for an existing key.
		e := mem.Addr(tx.ReadU64(bucket))
		for e != 0 {
			if tx.ReadU64(e+eKey) == key {
				tx.SetU64(e+eVal, value)
				th.UserData(8)
				return nil
			}
			e = mem.Addr(tx.ReadU64(e + eNext))
		}
		// Allocate and link a fresh entry at the head.
		ne := tx.Alloc(eSize)
		var buf [eSize]byte
		binary.LittleEndian.PutUint64(buf[eKey:], key)
		binary.LittleEndian.PutUint64(buf[eVal:], value)
		binary.LittleEndian.PutUint64(buf[eNext:], tx.ReadU64(bucket))
		tx.Write(ne, buf[:])
		tx.SetU64(bucket, uint64(ne))
		th.UserData(16)
		m.count++
		th.VStore(1)
		return nil
	})
}

// Get returns the value for key.
func (m *Map) Get(tid int, key uint64) (uint64, bool) {
	th := m.rt.Thread(tid)
	e := mem.Addr(th.LoadU64(m.bucketAddr(key)))
	for e != 0 {
		if th.LoadU64(e+eKey) == key {
			return th.LoadU64(e + eVal), true
		}
		e = mem.Addr(th.LoadU64(e + eNext))
	}
	return 0, false
}

// Delete removes key in one durable transaction; returns false if absent.
func (m *Map) Delete(tid int, key uint64) (bool, error) {
	th := m.rt.Thread(tid)
	found := false
	err := m.pool.Run(th, func(tx *nvml.Tx) error {
		prev := m.bucketAddr(key)
		e := mem.Addr(tx.ReadU64(prev))
		for e != 0 {
			if tx.ReadU64(e+eKey) == key {
				tx.SetU64(prev, tx.ReadU64(e+eNext))
				tx.Free(e)
				found = true
				m.count--
				th.VStore(1)
				return nil
			}
			prev = e + eNext
			e = mem.Addr(tx.ReadU64(prev))
		}
		return nil
	})
	return found, err
}

// Len returns the volatile element count.
func (m *Map) Len() int { return m.count }

// CountPersistent walks the persistent chains and returns the number of
// entries — the recovery-time ground truth.
func (m *Map) CountPersistent(tid int) int {
	th := m.rt.Thread(tid)
	n := 0
	for b := uint64(0); b < m.nbucket; b++ {
		e := mem.Addr(th.LoadU64(m.buckets + mem.Addr(b*8)))
		for e != 0 {
			n++
			e = mem.Addr(th.LoadU64(e + eNext))
		}
	}
	m.count = n
	return n
}

// Recover reopens the map after a crash: the pool's undo logs are applied
// (rolling back any in-flight transaction), the bucket array is reread from
// the pool root table, and the volatile count is rebuilt from the chains.
func (m *Map) Recover() {
	th := m.rt.Thread(0)
	m.pool.Recover(th)
	m.buckets = m.pool.Root(th, rootSlot)
	m.CountPersistent(0)
}

// CheckInvariants verifies the persistent structure: every chain is
// acyclic, every entry hangs off the bucket its key hashes to, and no key
// appears twice in a chain.
func (m *Map) CheckInvariants(tid int) error {
	th := m.rt.Thread(tid)
	for b := uint64(0); b < m.nbucket; b++ {
		seen := make(map[mem.Addr]bool)
		keys := make(map[uint64]bool)
		e := mem.Addr(th.LoadU64(m.buckets + mem.Addr(b*8)))
		for e != 0 {
			if seen[e] {
				return fmt.Errorf("hashstore: cycle in bucket %d at %v", b, e)
			}
			seen[e] = true
			key := th.LoadU64(e + eKey)
			if key%m.nbucket != b {
				return fmt.Errorf("hashstore: key %#x in bucket %d, belongs in %d", key, b, key%m.nbucket)
			}
			if keys[key] {
				return fmt.Errorf("hashstore: duplicate key %#x in bucket %d", key, b)
			}
			keys[key] = true
			e = mem.Addr(th.LoadU64(e + eNext))
		}
	}
	return nil
}

// Workload is the hashmap workload: the paper's INSERT transactions over
// fresh keys ("100K INSERT transactions"), or under workload.Checker the
// checker's insert/delete/get mix over 256 keys.
type Workload struct {
	rt    *persist.Runtime
	kv    workload.KV[uint64, uint64]
	check *workload.KVCheck[uint64, uint64]
}

// Setup prepares the workload over kv: a *Map, or an oracle wrapping one.
func Setup(rt *persist.Runtime, kv workload.KV[uint64, uint64], mix workload.Mix, clients int, seed int64) *Workload {
	w := &Workload{rt: rt, kv: kv}
	if mix == workload.Checker {
		w.check = workload.NewKVCheck(kv, clients, seed, 256, workload.NonZero)
	}
	return w
}

// Op runs client tid's i-th operation.
func (w *Workload) Op(tid, i int) {
	if w.check != nil {
		w.check.Op(tid)
	} else {
		w.kv.Insert(tid, uint64(tid)<<32|uint64(i), uint64(i))
	}
	th := w.rt.Thread(tid)
	th.Compute(16000)
	// Benchmark driver, key generation (Figure 6: ~2.6% PM).
	th.VLoad(680)
	th.VStore(220)
}
