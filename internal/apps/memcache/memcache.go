// Package memcache reimplements Memcached as modified for WHISPER
// (§3.2.2): the object cache's hash table lives in PM segments allocated
// through Mnemosyne, every table access executes in a durable transaction,
// and the locks that used to guard the table are replaced by transactions
// (so GETs are read-only transactions). The LRU replacement policy — pure
// cache policy, not recovery state — stays volatile.
//
// Table 1 drives it with memslap: 4 clients, 5% SET; Figure 3 reports a
// median of 4 epochs per transaction (GETs dominate and are cheap).
package memcache

import (
	"container/list"
	"encoding/binary"
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Item layout: hash u64 | keyLen u32 | valLen u32 | next u64 | bytes...
const (
	iHash    = 0
	iLens    = 8
	iNext    = 16
	iData    = 24
	maxKV    = 104
	iSize    = iData + maxKV
	rootSlot = 3
)

// Cache is the persistent object cache.
type Cache struct {
	rt       *persist.Runtime
	heap     *mnemosyne.Heap
	buckets  mem.Addr
	nbucket  uint64
	maxItems int

	// Volatile LRU: front = most recent. Entries hold item addresses.
	lru    *list.List
	byAddr map[mem.Addr]*list.Element
	count  int
}

// New creates a cache with nbuckets chains, evicting above maxItems.
func New(rt *persist.Runtime, heap *mnemosyne.Heap, nbuckets, maxItems int) *Cache {
	c := &Cache{
		rt: rt, heap: heap, nbucket: uint64(nbuckets), maxItems: maxItems,
		lru: list.New(), byAddr: make(map[mem.Addr]*list.Element),
	}
	th := rt.Thread(0)
	heap.Run(th, func(tx *mnemosyne.Tx) error {
		c.buckets = tx.Alloc(nbuckets * 8)
		return nil
	})
	heap.SetRoot(th, rootSlot, c.buckets)
	return c
}

// Recover brings the cache back after a crash: the heap replays its
// committed redo logs and rebuilds the allocator, the bucket array is
// reread from the root table, and the volatile LRU is rebuilt from the
// chains (recency order is cache policy and is legitimately lost).
func (c *Cache) Recover() {
	th := c.rt.Thread(0)
	c.heap.Recover(th)
	c.buckets = c.heap.Root(th, rootSlot)
	c.CountPersistent(0)
}

// CheckInvariants verifies the persistent table structure: chains are
// acyclic, every item's stored hash matches its key bytes and selects the
// bucket it hangs off, lengths fit the allocation, and no key appears twice
// in a chain.
func (c *Cache) CheckInvariants(tid int) error {
	th := c.rt.Thread(tid)
	for b := uint64(0); b < c.nbucket; b++ {
		seen := make(map[mem.Addr]bool)
		keys := make(map[string]bool)
		item := mem.Addr(th.LoadU64(c.buckets + mem.Addr(b*8)))
		for item != 0 {
			if seen[item] {
				return fmt.Errorf("memcache: cycle in bucket %d at %v", b, item)
			}
			seen[item] = true
			h := th.LoadU64(item + iHash)
			lens := th.LoadU64(item + iLens)
			kl, vl := int(lens&0xffffffff), int(lens>>32)
			if kl+vl > maxKV {
				return fmt.Errorf("memcache: item %v lens %d+%d exceed allocation", item, kl, vl)
			}
			key := string(th.Load(item+iData, kl))
			if workload.HashKey(key) != h {
				return fmt.Errorf("memcache: item %v stored hash %#x != HashKey(%q)", item, h, key)
			}
			if h%c.nbucket != b {
				return fmt.Errorf("memcache: key %q in bucket %d, belongs in %d", key, b, h%c.nbucket)
			}
			if keys[key] {
				return fmt.Errorf("memcache: duplicate key %q in bucket %d", key, b)
			}
			keys[key] = true
			item = mem.Addr(th.LoadU64(item + iNext))
		}
	}
	return nil
}

func (c *Cache) bucketAddr(h uint64) mem.Addr {
	return c.buckets + mem.Addr((h%c.nbucket)*8)
}

// Insert stores key -> value (the SET command) in a durable transaction,
// evicting the LRU item if the cache is full.
func (c *Cache) Insert(tid int, key, value string) error {
	if len(key)+len(value) > maxKV {
		value = value[:maxKV-len(key)]
	}
	th := c.rt.Thread(tid)
	h := workload.HashKey(key)
	return c.heap.Run(th, func(tx *mnemosyne.Tx) error {
		if item, prev := c.find(tx, h, key); item != 0 {
			_ = prev
			// Overwrite the value in place (transactionally logged).
			kl := int(tx.ReadU64(item+iLens) & 0xffffffff)
			var lens [8]byte
			binary.LittleEndian.PutUint32(lens[0:], uint32(kl))
			binary.LittleEndian.PutUint32(lens[4:], uint32(len(value)))
			tx.Write(item+iLens, lens[:])
			tx.Write(item+iData+mem.Addr(kl), []byte(value))
			th.UserData(len(value))
			c.touch(item)
			return nil
		}
		if c.count >= c.maxItems {
			c.evictLRU(tx)
		}
		item := tx.Alloc(iSize)
		buf := make([]byte, iData+len(key)+len(value))
		binary.LittleEndian.PutUint64(buf[iHash:], h)
		binary.LittleEndian.PutUint32(buf[iLens:], uint32(len(key)))
		binary.LittleEndian.PutUint32(buf[iLens+4:], uint32(len(value)))
		binary.LittleEndian.PutUint64(buf[iNext:], tx.ReadU64(c.bucketAddr(h)))
		copy(buf[iData:], key)
		copy(buf[iData+len(key):], value)
		tx.Write(item, buf)
		tx.WriteU64(c.bucketAddr(h), uint64(item))
		th.UserData(len(key) + len(value))
		c.count++
		c.byAddr[item] = c.lru.PushFront(item)
		th.VStore(3)
		return nil
	})
}

// find locates the item for (h, key) and its predecessor pointer word.
func (c *Cache) find(tx *mnemosyne.Tx, h uint64, key string) (mem.Addr, mem.Addr) {
	prev := c.bucketAddr(h)
	item := mem.Addr(tx.ReadU64(prev))
	for item != 0 {
		if tx.ReadU64(item+iHash) == h {
			kl := int(tx.ReadU64(item+iLens) & 0xffffffff)
			if string(tx.Read(item+iData, kl)) == key {
				return item, prev
			}
		}
		prev = item + iNext
		item = mem.Addr(tx.ReadU64(prev))
	}
	return 0, prev
}

// Get returns the value for key (the GET command): a read-only durable
// transaction plus a volatile LRU bump.
func (c *Cache) Get(tid int, key string) (string, bool) {
	th := c.rt.Thread(tid)
	h := workload.HashKey(key)
	var out string
	found := false
	c.heap.Run(th, func(tx *mnemosyne.Tx) error {
		item, _ := c.find(tx, h, key)
		if item == 0 {
			return nil
		}
		lens := tx.ReadU64(item + iLens)
		kl, vl := int(lens&0xffffffff), int(lens>>32)
		out = string(tx.Read(item+iData+mem.Addr(kl), vl))
		found = true
		c.touch(item)
		return nil
	})
	th.VLoad(4)
	return out, found
}

// Delete removes key (the DELETE command).
func (c *Cache) Delete(tid int, key string) (bool, error) {
	th := c.rt.Thread(tid)
	h := workload.HashKey(key)
	found := false
	err := c.heap.Run(th, func(tx *mnemosyne.Tx) error {
		item, prev := c.find(tx, h, key)
		if item == 0 {
			return nil
		}
		tx.WriteU64(prev, tx.ReadU64(item+iNext))
		tx.Free(item)
		c.dropVolatile(item)
		found = true
		return nil
	})
	return found, err
}

// evictLRU unlinks the least-recently-used item inside tx.
func (c *Cache) evictLRU(tx *mnemosyne.Tx) {
	back := c.lru.Back()
	if back == nil {
		return
	}
	item := back.Value.(mem.Addr)
	h := tx.ReadU64(item + iHash)
	// Find its predecessor in the chain.
	prev := c.bucketAddr(h)
	cur := mem.Addr(tx.ReadU64(prev))
	for cur != 0 && cur != item {
		prev = cur + iNext
		cur = mem.Addr(tx.ReadU64(prev))
	}
	if cur == item {
		tx.WriteU64(prev, tx.ReadU64(item+iNext))
		tx.Free(item)
	}
	c.dropVolatile(item)
}

func (c *Cache) touch(item mem.Addr) {
	if e, ok := c.byAddr[item]; ok {
		c.lru.MoveToFront(e)
	}
}

func (c *Cache) dropVolatile(item mem.Addr) {
	if e, ok := c.byAddr[item]; ok {
		c.lru.Remove(e)
		delete(c.byAddr, item)
		c.count--
	}
}

// Len returns the volatile item count.
func (c *Cache) Len() int { return c.count }

// CountPersistent walks the persistent chains and rebuilds the volatile
// LRU (recovery path: order is lost, contents are not).
func (c *Cache) CountPersistent(tid int) int {
	th := c.rt.Thread(tid)
	c.lru.Init()
	c.byAddr = make(map[mem.Addr]*list.Element)
	n := 0
	for b := uint64(0); b < c.nbucket; b++ {
		item := mem.Addr(th.LoadU64(c.buckets + mem.Addr(b*8)))
		for item != 0 {
			n++
			c.byAddr[item] = c.lru.PushBack(item)
			item = mem.Addr(th.LoadU64(item + iNext))
		}
	}
	c.count = n
	return n
}

// Workload is the memcached workload: the memslap profile (5% SETs over
// 16K keys), or under workload.Checker the checker's insert/delete/get mix
// over 128 keys.
type Workload struct {
	rt    *persist.Runtime
	kv    workload.KV[string, string]
	slap  []*workload.YCSB
	check *workload.KVCheck[string, string]
}

// Setup prepares clients' generators over kv: a *Cache, or an oracle
// wrapping one.
func Setup(rt *persist.Runtime, kv workload.KV[string, string], mix workload.Mix, clients int, seed int64) *Workload {
	w := &Workload{rt: rt, kv: kv}
	if mix == workload.Checker {
		w.check = workload.NewKVCheck(kv, clients, seed, 128, workload.Strings)
	}
	for c := 0; c < clients; c++ {
		w.slap = append(w.slap, workload.Memslap(seed+int64(c), 1<<14, 5, 40))
	}
	return w
}

// Op runs client tid's i-th operation.
func (w *Workload) Op(tid, i int) {
	if w.check != nil {
		w.check.Op(tid)
	} else if op := w.slap[tid].Next(); op.Kind == workload.OpUpdate {
		w.kv.Insert(tid, op.Key, string(op.Value))
	} else {
		w.kv.Get(tid, op.Key)
	}
	w.rt.Thread(tid).Compute(700)
	w.rt.Thread(tid).VLoad(15)
}
