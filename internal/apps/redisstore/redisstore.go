// Package redisstore reimplements the NVML-enhanced Redis of WHISPER
// (§3.2.2, github.com/pmem/redis): a REmote DIctionary Server storing
// string keys and values in a persistent hash table with chaining,
// accessed through pmemobj-style undo-log transactions, served by a
// single-threaded event loop. The paper drives it with redis-cli's
// lru-test over one million keys (Table 1: 1.3 M epochs/s, Figure 3:
// median 6 epochs/tx, Figure 5: ~82.5% self-dependencies).
package redisstore

import (
	"encoding/binary"
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Entry layout: hash u64 | keyLen u32 | valLen u32 | next u64 | key... | val...
const (
	eHash    = 0
	eLens    = 8
	eNext    = 16
	eData    = 24
	maxKV    = 96 // key+value bytes per entry (lru-test uses short strings)
	eSize    = eData + maxKV
	rootSlot = 2
)

// Store is the persistent dictionary.
type Store struct {
	rt      *persist.Runtime
	pool    *nvml.Pool
	buckets mem.Addr
	nbucket uint64
	// serverTID is the event-loop thread: Redis is single-threaded, so
	// every command executes on it regardless of which client sent it.
	serverTID int
	count     int
}

// New creates a store with nbuckets chains.
func New(rt *persist.Runtime, pool *nvml.Pool, nbuckets int) *Store {
	s := &Store{rt: rt, pool: pool, nbucket: uint64(nbuckets)}
	th := rt.Thread(0)
	pool.Run(th, func(tx *nvml.Tx) error {
		s.buckets = tx.Alloc(nbuckets * 8)
		return nil
	})
	pool.SetRoot(th, rootSlot, s.buckets)
	return s
}

func (s *Store) bucketAddr(h uint64) mem.Addr {
	return s.buckets + mem.Addr((h%s.nbucket)*8)
}

// Insert stores key -> value durably (the SET command). Like every
// command it runs on the event-loop thread, whichever client tid sent it.
func (s *Store) Insert(_ int, key, value string) error {
	if len(key)+len(value) > maxKV {
		value = value[:maxKV-len(key)]
	}
	th := s.rt.Thread(s.serverTID)
	h := workload.HashKey(key)
	return s.pool.Run(th, func(tx *nvml.Tx) error {
		bucket := s.bucketAddr(h)
		e := mem.Addr(tx.ReadU64(bucket))
		for e != 0 {
			if tx.ReadU64(e+eHash) == h && s.entryKey(tx, e) == key {
				// Update in place: undo-log the value region then write.
				kl := int(tx.ReadU64(e+eLens) & 0xffffffff)
				tx.AddRange(e+eLens, 8)
				var lens [8]byte
				binary.LittleEndian.PutUint32(lens[0:], uint32(kl))
				binary.LittleEndian.PutUint32(lens[4:], uint32(len(value)))
				tx.Write(e+eLens, lens[:])
				tx.AddRange(e+eData+mem.Addr(kl), len(value))
				tx.Write(e+eData+mem.Addr(kl), []byte(value))
				th.UserData(len(value))
				return nil
			}
			e = mem.Addr(tx.ReadU64(e + eNext))
		}
		// Fresh entry at the chain head.
		ne := tx.Alloc(eSize)
		buf := make([]byte, eData+len(key)+len(value))
		binary.LittleEndian.PutUint64(buf[eHash:], h)
		binary.LittleEndian.PutUint32(buf[eLens:], uint32(len(key)))
		binary.LittleEndian.PutUint32(buf[eLens+4:], uint32(len(value)))
		binary.LittleEndian.PutUint64(buf[eNext:], tx.ReadU64(bucket))
		copy(buf[eData:], key)
		copy(buf[eData+len(key):], value)
		tx.Write(ne, buf)
		tx.SetU64(bucket, uint64(ne))
		th.UserData(len(key) + len(value))
		s.count++
		th.VStore(2)
		return nil
	})
}

func (s *Store) entryKey(tx *nvml.Tx, e mem.Addr) string {
	kl := int(tx.ReadU64(e+eLens) & 0xffffffff)
	return string(tx.Read(e+eData, kl))
}

// Get returns the value for key (the GET command).
func (s *Store) Get(_ int, key string) (string, bool) {
	th := s.rt.Thread(s.serverTID)
	h := workload.HashKey(key)
	e := mem.Addr(th.LoadU64(s.bucketAddr(h)))
	for e != 0 {
		if th.LoadU64(e+eHash) == h {
			lens := th.LoadU64(e + eLens)
			kl := int(lens & 0xffffffff)
			vl := int(lens >> 32)
			if string(th.Load(e+eData, kl)) == key {
				return string(th.Load(e+eData+mem.Addr(kl), vl)), true
			}
		}
		e = mem.Addr(th.LoadU64(e + eNext))
	}
	th.VLoad(2)
	return "", false
}

// Delete removes key (the DEL command); returns whether it existed.
func (s *Store) Delete(_ int, key string) (bool, error) {
	th := s.rt.Thread(s.serverTID)
	h := workload.HashKey(key)
	found := false
	err := s.pool.Run(th, func(tx *nvml.Tx) error {
		prev := s.bucketAddr(h)
		e := mem.Addr(tx.ReadU64(prev))
		for e != 0 {
			if tx.ReadU64(e+eHash) == h && s.entryKey(tx, e) == key {
				tx.SetU64(prev, tx.ReadU64(e+eNext))
				tx.Free(e)
				found = true
				s.count--
				return nil
			}
			prev = e + eNext
			e = mem.Addr(tx.ReadU64(prev))
		}
		return nil
	})
	return found, err
}

// Len returns the volatile entry count.
func (s *Store) Len() int { return s.count }

// CountPersistent walks the chains (recovery ground truth).
func (s *Store) CountPersistent() int {
	th := s.rt.Thread(s.serverTID)
	n := 0
	for b := uint64(0); b < s.nbucket; b++ {
		e := mem.Addr(th.LoadU64(s.buckets + mem.Addr(b*8)))
		for e != 0 {
			n++
			e = mem.Addr(th.LoadU64(e + eNext))
		}
	}
	s.count = n
	return n
}

// Recover reopens the store after a crash: the pool's undo logs are applied
// (rolling back any in-flight command), the bucket array is reread from the
// pool root table, and the volatile count is rebuilt from the chains.
func (s *Store) Recover() {
	th := s.rt.Thread(s.serverTID)
	s.pool.Recover(th)
	s.buckets = s.pool.Root(th, rootSlot)
	s.CountPersistent()
}

// CheckInvariants verifies the persistent dictionary structure: chains are
// acyclic, every entry's stored hash matches its key bytes and selects the
// bucket the entry hangs off, lengths are within the allocation, and no key
// appears twice in a chain.
func (s *Store) CheckInvariants(int) error {
	th := s.rt.Thread(s.serverTID)
	for b := uint64(0); b < s.nbucket; b++ {
		seen := make(map[mem.Addr]bool)
		keys := make(map[string]bool)
		e := mem.Addr(th.LoadU64(s.buckets + mem.Addr(b*8)))
		for e != 0 {
			if seen[e] {
				return fmt.Errorf("redisstore: cycle in bucket %d at %v", b, e)
			}
			seen[e] = true
			h := th.LoadU64(e + eHash)
			lens := th.LoadU64(e + eLens)
			kl, vl := int(lens&0xffffffff), int(lens>>32)
			if kl+vl > maxKV {
				return fmt.Errorf("redisstore: entry %v lens %d+%d exceed allocation", e, kl, vl)
			}
			key := string(th.Load(e+eData, kl))
			if workload.HashKey(key) != h {
				return fmt.Errorf("redisstore: entry %v stored hash %#x != HashKey(%q)", e, h, key)
			}
			if h%s.nbucket != b {
				return fmt.Errorf("redisstore: key %q in bucket %d, belongs in %d", key, b, h%s.nbucket)
			}
			if keys[key] {
				return fmt.Errorf("redisstore: duplicate key %q in bucket %d", key, b)
			}
			keys[key] = true
			e = mem.Addr(th.LoadU64(e + eNext))
		}
	}
	return nil
}

// Workload is the redis workload: the lru-test profile over 1M keys, or
// under workload.Checker the checker's insert/delete/get mix over 128
// keys. Redis serves every command on its one event-loop thread, so the
// workload is one client: run it as a single thread of every client's
// operations.
type Workload struct {
	rt    *persist.Runtime
	kv    workload.KV[string, string]
	lru   *workload.LRUTest
	check *workload.KVCheck[string, string]
}

// Setup prepares the generator over kv: a *Store, or an oracle wrapping
// one.
func Setup(rt *persist.Runtime, kv workload.KV[string, string], mix workload.Mix, seed int64) *Workload {
	w := &Workload{rt: rt, kv: kv, lru: workload.NewLRUTest(seed, 1<<20)}
	if mix == workload.Checker {
		w.check = workload.NewKVCheck(kv, 1, seed, 128, workload.Strings)
	}
	return w
}

// Op runs the server thread tid's i-th command.
func (w *Workload) Op(tid, i int) {
	if w.check != nil {
		w.check.Op(tid)
	} else if op := w.lru.Next(); op.Kind == workload.OpInsert {
		w.kv.Insert(tid, op.Key, string(op.Value))
	} else {
		w.kv.Get(tid, op.Key)
	}
	th := w.rt.Thread(tid)
	th.Compute(4000)
	// Event loop, RESP protocol parsing, reply buffers (Figure 6: only
	// ~0.74% of redis accesses touch PM).
	th.VLoad(1050)
	th.VStore(350)
}
