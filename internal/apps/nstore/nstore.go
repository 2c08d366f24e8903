// Package nstore reimplements N-store (Arulraj et al., SIGMOD 2015) with
// its OPTWAL engine, the relational half of WHISPER's native tier
// (§3.2.1).
//
// Following the paper:
//
//   - the database is partitioned: each client thread executes
//     transactions against its own partition of every table;
//   - tables, indexes and logs live in PM; thread stacks and transient
//     state stay volatile (the WHISPER modification);
//   - OPTWAL is an undo write-ahead log talking directly to PM: undo
//     records use cacheable stores, flushes and fences, data is updated
//     in place, and log entries are cleared per entry;
//   - blocks from the persistent single-slab allocator carry a state
//     variable walked FREE → VOLATILE → PERSISTENT; state-changing
//     transactions write it three times, a self-dependency source (§5.1).
package nstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/whisper-pm/whisper/internal/alloc"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Tuple layout: key u64 | 4 numeric attributes u64 | varchar[32].
const (
	tKey   = 0
	tAttrs = 8
	nAttrs = 4
	tVar   = tAttrs + nAttrs*8
	varLen = 32
	tSize  = tVar + varLen
)

// Undo log geometry (per partition): descriptor {status, count} plus
// fixed 96-byte records {addr u64, len|gen u64, checksum u64, old data up
// to 72}. Records straddle cache lines (96 > 64), so a crash between a
// record's stores and its fence can leave the header durable while the old
// image is torn — the checksum lets recovery reject such records instead
// of restoring garbage. A rejected record is always the newest (records
// are fenced in order) and its protected in-place write never executed, so
// skipping it is safe.
const (
	walIdle      = uint64(0)
	walActive    = uint64(1)
	walCommitted = uint64(2)

	walEntrySize = 96
	walHeader    = 24
	walMaxData   = walEntrySize - walHeader
	walEntries   = 1024
)

// walSum is the FNV-style record checksum over the header words and the
// old image; recovery recomputes it to detect torn records.
func walSum(addr, lengen uint64, data []byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(addr)
	mix(lengen)
	for i := 0; i < len(data); i += 8 {
		var v uint64
		for j := i; j < i+8 && j < len(data); j++ {
			v |= uint64(data[j]) << (8 * (j - i))
		}
		mix(v)
	}
	return h
}

// Partition sizes: the database has one partition per client thread, each
// with its own index and allocator arena.
const (
	numBuckets = 1024    // persistent index buckets
	slabBytes  = 8 << 20 // single-slab allocator arena
)

// partition is one thread's shard: slab, index, undo log. The WAL is
// circular: slots advance across transactions so log writes do not revisit
// recently written lines (long reuse distance, like a real WAL).
type partition struct {
	slab    *alloc.SingleSlab
	buckets mem.Addr // numBuckets * 8 (persistent index)
	walDesc mem.Addr // status u64 | generation u64 | start slot u64
	walLog  mem.Addr
	walNext int                 // next free slot (volatile, circular)
	walGen  uint64              // current generation
	index   map[uint64]mem.Addr // volatile key -> tuple (rebuilt on recover)
}

// DB is an N-store database instance.
type DB struct {
	rt    *persist.Runtime
	parts []*partition
	// commits holds one flush group per thread, reused by every commit
	// that thread makes. Like the indexes it is volatile: Recover starts
	// it afresh, since a crash inside a commit can strand spans in it.
	commits []*persist.Group
}

// Open creates a database with one partition per thread of rt.
func Open(rt *persist.Runtime) *DB {
	db := &DB{rt: rt}
	db.resetCommits()
	th := rt.Thread(0)
	for i := 0; i < rt.Threads(); i++ {
		db.parts = append(db.parts, &partition{
			slab:    alloc.NewSingleSlab(rt, th, slabBytes),
			buckets: rt.Dev.Map(numBuckets * 8),
			walDesc: rt.Dev.Map(16),
			walLog:  rt.Dev.Map(walEntries * walEntrySize),
			index:   make(map[uint64]mem.Addr),
		})
	}
	return db
}

// Tx is an OPTWAL transaction on one partition.
type Tx struct {
	db    *DB
	p     *partition
	th    *persist.Thread
	start int // first WAL slot of this transaction
	n     int // undo entries
	// dirty tracks the cache lines of deferred in-place writes. The value
	// records whether the line still needs the commit-time flush: inline
	// flushes issued later in the transaction (an undo record, a
	// neighbouring tuple's insert or its allocator header — 72-byte
	// tuples straddle lines, so slab neighbours share them) clear it via
	// the thread's flush hook, because a line-granular flush covers the
	// deferred bytes too and every inline flush here is immediately
	// fenced. Re-flushing such a line at commit is exactly Bentō's
	// redundant-flush smell.
	dirty map[mem.Line]bool
	// indexUndo records volatile-index mutations so Abort can roll the
	// in-DRAM index back in step with the persistent chains it mirrors.
	indexUndo []indexUndo
}

type indexUndo struct {
	key  uint64
	prev mem.Addr
	had  bool
}

// Txn is the method set of an open transaction: a *Tx, or a crash
// oracle's wrapper that forwards every call to one unchanged.
type Txn interface {
	Insert(key uint64, attrs [nAttrs]uint64, varchar string)
	Update(key uint64, idx int, val uint64, varchar string) bool
	Read(key uint64, idx int) (uint64, bool)
	Commit()
	Abort()
}

// Store is the method set the workloads drive: a *DB, or an oracle
// wrapping one.
type Store interface {
	Begin(tid int) Txn
}

// Begin opens a transaction for thread tid on its partition.
func (db *DB) Begin(tid int) Txn {
	th := db.rt.Thread(tid)
	p := db.parts[tid%len(db.parts)]
	th.TxBegin()
	p.walGen++
	th.StoreU64(p.walDesc, walActive)
	th.StoreU64(p.walDesc+8, p.walGen)
	th.StoreU64(p.walDesc+16, uint64(p.walNext))
	th.FlushFence(p.walDesc, 24)
	tx := &Tx{db: db, p: p, th: th, start: p.walNext, dirty: make(map[mem.Line]bool)}
	th.SetFlushHook(tx.noteFlushed)
	return tx
}

// noteFlushed marks deferred-dirty lines covered by an inline flush as
// clean; commit skips them. Runs for every flush the thread issues while
// the transaction is open.
func (tx *Tx) noteFlushed(a mem.Addr, size int) {
	for l, n := mem.LineOf(a), mem.LinesSpanned(a, size); n > 0; l, n = l+1, n-1 {
		if tx.dirty[l] {
			tx.dirty[l] = false
		}
	}
}

func (p *partition) slotAddr(slot int) mem.Addr {
	return p.walLog + mem.Addr((slot%walEntries)*walEntrySize)
}

// undo captures the old image of [a, a+size) before an in-place update.
func (tx *Tx) undo(a mem.Addr, size int) {
	for size > 0 {
		n := size
		if n > walMaxData {
			n = walMaxData
		}
		if tx.n >= walEntries {
			panic("nstore: WAL overflow")
		}
		// Records carry the generation in the length word's high half so
		// recovery never trusts stale slots; entries are fenced in order,
		// so a durable record implies all earlier records are durable.
		e := tx.p.slotAddr(tx.start + tx.n)
		old := tx.th.Load(a, n)
		lengen := uint64(n) | tx.p.walGen<<32
		var hdr [walHeader]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(a))
		binary.LittleEndian.PutUint64(hdr[8:], lengen)
		binary.LittleEndian.PutUint64(hdr[16:], walSum(uint64(a), lengen, old))
		tx.th.Store(e, hdr[:])
		tx.th.Store(e+walHeader, old)
		tx.th.Flush(e, walHeader+n)
		tx.th.Fence()
		tx.n++
		a += mem.Addr(n)
		size -= n
	}
}

// write updates [a, a+len(data)) in place; the flush is deferred to
// commit (OPTWAL/NVML behaviour the paper observes in §5.1).
func (tx *Tx) write(a mem.Addr, data []byte) {
	tx.th.Store(a, data)
	for l, n := mem.LineOf(a), mem.LinesSpanned(a, len(data)); n > 0; l, n = l+1, n-1 {
		tx.dirty[l] = true
	}
}

// Insert adds a tuple with the given key, attributes and varchar payload.
func (tx *Tx) Insert(key uint64, attrs [nAttrs]uint64, varchar string) {
	p, th := tx.p, tx.th
	t := p.slab.Alloc(th, tSize)
	if t == 0 {
		panic("nstore: partition slab exhausted")
	}
	// N-store labels freshly allocated blocks: VOLATILE while being
	// built, PERSISTENT once owned by the table — with the FREE->VOLATILE
	// transition this is the three-write state pattern of §5.1.
	p.slab.SetState(th, t, alloc.StateVolatile)

	// The bucket chain head becomes the new tuple's chain pointer; bake
	// it into the tuple image so a single store+flush+fence persists the
	// complete tuple. (Writing the chain word in place after the tuple
	// flush deferred its line to the commit-time flush — redundant
	// whenever a neighbouring tuple's flush had already covered the
	// shared line, since 72-byte tuples straddle cache lines. No undo is
	// needed for the chain word: an aborted insert's block is reclaimed
	// via the state variable.)
	bucket := p.buckets + mem.Addr(int(key%numBuckets)*8)
	head := th.LoadU64(bucket)

	var buf [tSize]byte
	binary.LittleEndian.PutUint64(buf[tKey:], key)
	for i, v := range attrs {
		binary.LittleEndian.PutUint64(buf[tAttrs+i*8:], v)
	}
	copy(buf[tVar:tSize-8], varchar) // the last word is the chain slot
	binary.LittleEndian.PutUint64(buf[tSize-8:], head)
	th.Store(t, buf[:])
	th.Flush(t, tSize)
	th.Fence()
	th.UserData(tSize)

	p.slab.SetState(th, t, alloc.StatePersistent)

	// Publish: link the tuple at the head of the bucket chain under undo
	// protection — the bucket pointer is the only index word mutated.
	tx.undo(bucket, 8)
	var ptr [8]byte
	binary.LittleEndian.PutUint64(ptr[:], uint64(t))
	tx.write(bucket, ptr[:])

	prev, had := p.index[key]
	tx.indexUndo = append(tx.indexUndo, indexUndo{key: key, prev: prev, had: had})
	p.index[key] = t
	th.VStore(2)
}

// Update overwrites attribute idx and the varchar of the tuple with key.
// Returns false if the key is absent.
func (tx *Tx) Update(key uint64, idx int, val uint64, varchar string) bool {
	p, th := tx.p, tx.th
	t, ok := p.index[key]
	th.VLoad(1)
	if !ok {
		return false
	}
	// set_varchar/set_attr from Figure 2: undo then in-place write.
	tx.undo(t+tAttrs+mem.Addr(idx*8), 8)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	tx.write(t+tAttrs+mem.Addr(idx*8), buf[:])

	if varchar != "" {
		vb := make([]byte, varLen-8) // last word is the chain slot
		copy(vb, varchar)
		tx.undo(t+tVar, len(vb))
		tx.write(t+tVar, vb)
	}
	th.UserData(8 + varLen - 8)
	return true
}

// Read returns attribute idx of the tuple with key.
func (tx *Tx) Read(key uint64, idx int) (uint64, bool) {
	p, th := tx.p, tx.th
	t, ok := p.index[key]
	th.VLoad(1)
	if !ok {
		return 0, false
	}
	return th.LoadU64(t + tAttrs + mem.Addr(idx*8)), true
}

// Commit flushes data in place, persists the commit record, and clears
// the log entries one epoch each.
func (tx *Tx) Commit() {
	th := tx.th
	th.SetFlushHook(nil)
	// Flush each still-dirty line exactly once, in address order (the
	// map is iterated via the group's coalescing sort, so commit event
	// streams are deterministic). Lines an inline flush already covered
	// are skipped.
	g := tx.db.commits[th.ID()]
	for l, need := range tx.dirty {
		if need {
			g.Add(mem.LineAddr(l), mem.LineSize)
		}
	}
	g.Commit()
	th.StoreU64(tx.p.walDesc, walCommitted)
	th.FlushFence(tx.p.walDesc, 8)
	tx.clearLog()
	th.TxEnd()
}

// Abort rolls back from the undo log (reverse order) and releases.
func (tx *Tx) Abort() {
	th := tx.th
	th.SetFlushHook(nil)
	for i := tx.n - 1; i >= 0; i-- {
		e := tx.p.slotAddr(tx.start + i)
		a := mem.Addr(th.LoadU64(e))
		size := int(th.LoadU64(e+8) & 0xffffffff)
		old := th.Load(e+walHeader, size)
		th.Store(a, old)
		th.Flush(a, size)
		th.Fence()
	}
	// Roll the volatile index back in step with the persistent chains:
	// without this an aborted Insert leaves a dangling index entry for a
	// tuple the chain rollback just unlinked.
	for i := len(tx.indexUndo) - 1; i >= 0; i-- {
		u := tx.indexUndo[i]
		if u.had {
			tx.p.index[u.key] = u.prev
		} else {
			delete(tx.p.index, u.key)
		}
	}
	tx.clearLog()
	th.TxEnd()
}

func (tx *Tx) clearLog() {
	th := tx.th
	for i := 0; i < tx.n; i++ {
		e := tx.p.slotAddr(tx.start + i)
		th.StoreU64(e, 0)
		th.StoreU64(e+8, 0)
		th.Flush(e, 16)
		th.Fence()
	}
	th.StoreU64(tx.p.walDesc, walIdle)
	th.FlushFence(tx.p.walDesc, 8)
	tx.p.walNext = (tx.start + tx.n) % walEntries
}

// resetCommits gives every thread an empty commit group.
func (db *DB) resetCommits() {
	db.commits = db.commits[:0]
	for i := 0; i < db.rt.Threads(); i++ {
		db.commits = append(db.commits, persist.NewGroup(db.rt.Thread(i)))
	}
}

// Recover rolls back uncommitted transactions in every partition and
// rebuilds the volatile indexes from the persistent bucket chains.
func (db *DB) Recover() {
	db.resetCommits()
	th := db.rt.Thread(0)
	for _, p := range db.parts {
		status := th.LoadU64(p.walDesc)
		gen := th.LoadU64(p.walDesc + 8)
		start := int(th.LoadU64(p.walDesc+16)) % walEntries
		p.walGen = gen
		p.walNext = start
		if status == walActive {
			// Find the valid run of this generation's records, then undo
			// newest-first. A record with a bad checksum is torn (its fence
			// never completed); it is necessarily the newest record and the
			// write it protects never happened, so the run ends there.
			n := 0
			for n < walEntries {
				e := p.slotAddr(start + n)
				addr := th.LoadU64(e)
				raw := th.LoadU64(e + 8)
				size := raw & 0xffffffff
				if addr == 0 || raw>>32 != gen&0xffffffff ||
					size == 0 || size > walMaxData ||
					th.LoadU64(e+16) != walSum(addr, raw, th.Load(e+walHeader, int(size))) {
					break
				}
				n++
			}
			for i := n - 1; i >= 0; i-- {
				e := p.slotAddr(start + i)
				a := mem.Addr(th.LoadU64(e))
				size := int(th.LoadU64(e+8) & 0xffffffff)
				old := th.Load(e+walHeader, size)
				th.Store(a, old)
				th.Flush(a, size)
				th.Fence()
			}
			// Clear the undone records.
			for i := 0; i < n; i++ {
				e := p.slotAddr(start + i)
				th.StoreU64(e, 0)
				th.StoreU64(e+8, 0)
				th.Flush(e, 16)
				th.Fence()
			}
		}
		th.StoreU64(p.walDesc, walIdle)
		th.FlushFence(p.walDesc, 8)

		// Rebuild the index by walking bucket chains.
		p.slab.Recover(th)
		p.index = make(map[uint64]mem.Addr)
		for b := 0; b < numBuckets; b++ {
			t := mem.Addr(th.LoadU64(p.buckets + mem.Addr(b*8)))
			for t != 0 {
				key := th.LoadU64(t + tKey)
				if _, dup := p.index[key]; !dup {
					p.index[key] = t
				}
				t = mem.Addr(th.LoadU64(t + tSize - 8))
			}
		}
	}
}

// Get reads attribute idx of the tuple with key on tid's partition without
// opening a transaction — the read path recovery oracles use, so checking
// state does not itself create WAL traffic.
func (db *DB) Get(tid int, key uint64, idx int) (uint64, bool) {
	p := db.parts[tid%len(db.parts)]
	t, ok := p.index[key]
	if !ok {
		return 0, false
	}
	return db.rt.Thread(tid).LoadU64(t + tAttrs + mem.Addr(idx*8)), true
}

// CheckInvariants verifies every partition's persistent structure: bucket
// chains are acyclic, each tuple hangs off the bucket its key hashes to,
// and the volatile index is exactly what a fresh chain walk would rebuild.
func (db *DB) CheckInvariants() error {
	th := db.rt.Thread(0)
	for pi, p := range db.parts {
		rebuilt := make(map[uint64]mem.Addr)
		for b := 0; b < numBuckets; b++ {
			seen := make(map[mem.Addr]bool)
			t := mem.Addr(th.LoadU64(p.buckets + mem.Addr(b*8)))
			for t != 0 {
				if seen[t] {
					return fmt.Errorf("nstore: partition %d bucket %d chain cycle at %v", pi, b, t)
				}
				seen[t] = true
				key := th.LoadU64(t + tKey)
				if int(key%numBuckets) != b {
					return fmt.Errorf("nstore: partition %d key %d in bucket %d, belongs in %d",
						pi, key, b, key%numBuckets)
				}
				if _, dup := rebuilt[key]; !dup {
					rebuilt[key] = t
				}
				t = mem.Addr(th.LoadU64(t + tSize - 8))
			}
		}
		if len(rebuilt) != len(p.index) {
			return fmt.Errorf("nstore: partition %d index has %d keys, chains have %d",
				pi, len(p.index), len(rebuilt))
		}
		for key, t := range p.index {
			if rebuilt[key] != t {
				return fmt.Errorf("nstore: partition %d index[%d]=%v but chain walk finds %v",
					pi, key, t, rebuilt[key])
			}
		}
	}
	return nil
}

// YCSB is the YCSB-like profile (§4, Table 1: 4 clients, 80% writes):
// each transaction performs seven operations on the client's partition.
// Under workload.Checker it is the checker's mix instead: one to three
// writes, inserts of fresh keys and updates of preloaded ones, and one
// transaction in ten aborted.
type YCSB struct {
	rt    *persist.Runtime
	db    Store
	gens  []*workload.YCSB
	check []*rand.Rand
}

// SetupYCSB preloads 64 keys into each client's partition of db and
// prepares the clients' generators.
func SetupYCSB(rt *persist.Runtime, db Store, mix workload.Mix, clients int, seed int64) *YCSB {
	w := &YCSB{rt: rt, db: db}
	for c := 0; c < clients; c++ {
		tx := db.Begin(c)
		for k := uint64(0); k < 64; k++ {
			tx.Insert(k, [nAttrs]uint64{k, k, k, k}, "init")
		}
		tx.Commit()
		w.gens = append(w.gens, workload.NewYCSB(seed+int64(c), 2048, 80, 24))
		if mix == workload.Checker {
			w.check = append(w.check, rand.New(rand.NewSource(seed+int64(c))))
		}
	}
	return w
}

// Op runs client tid's i-th transaction.
func (w *YCSB) Op(tid, i int) {
	th := w.rt.Thread(tid)
	tx := w.db.Begin(tid)
	if w.check != nil {
		w.checkerTx(tx, th, w.check[tid], i)
		return
	}
	for n := 0; n < 7; n++ {
		op := w.gens[tid].Next()
		key := workload.HashKey(op.Key) % 2048
		if op.Kind == workload.OpUpdate {
			if !tx.Update(key, int(key%nAttrs), key, string(op.Value)) {
				tx.Insert(key, [nAttrs]uint64{key, 0, 0, 0}, string(op.Value))
			}
		} else {
			tx.Read(key, 0)
		}
		charge(th)
	}
	tx.Commit()
}

// checkerTx is one transaction of the checker's mix. A fresh key is
// unique per (transaction, write), so an aborted insert's key is never
// reused.
func (w *YCSB) checkerTx(tx Txn, th *persist.Thread, rng *rand.Rand, i int) {
	abort := rng.Intn(100) < 10
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if rng.Intn(100) < 45 {
			key := uint64(1<<20 + i*4 + n)
			var attrs [nAttrs]uint64
			for j := range attrs {
				attrs[j] = rng.Uint64() % 100_000
			}
			tx.Insert(key, attrs, fmt.Sprintf("row-%d", key))
		} else {
			tx.Update(uint64(rng.Intn(64)), rng.Intn(nAttrs), rng.Uint64()%100_000, fmt.Sprintf("upd-%d", i))
		}
		charge(th)
	}
	if abort {
		tx.Abort()
	} else {
		tx.Commit()
	}
}

// charge is the volatile side of one YCSB operation: SQL executor,
// volatile index probes (Figure 6: ~8.7% PM).
func charge(th *persist.Thread) {
	th.Compute(2000)
	th.VLoad(150)
	th.VStore(45)
}

// TPCC is the TPC-C-like profile (4 clients, 40% writes).
type TPCC struct {
	rt       *persist.Runtime
	db       Store
	gens     []*workload.TPCC
	orderSeq uint64
}

// SetupTPCC preloads 128 stock/district rows into each client's
// partition of db and prepares the clients' generators.
func SetupTPCC(rt *persist.Runtime, db Store, clients int, seed int64) *TPCC {
	w := &TPCC{rt: rt, db: db, orderSeq: 1 << 20}
	for c := 0; c < clients; c++ {
		tx := db.Begin(c)
		for k := uint64(0); k < 128; k++ {
			tx.Insert(k, [nAttrs]uint64{100, 0, 0, 0}, "stock")
		}
		tx.Commit()
		w.gens = append(w.gens, workload.NewTPCC(seed+int64(c), clients, 128))
	}
	return w
}

// Op runs client tid's i-th transaction.
func (w *TPCC) Op(tid, i int) {
	t := w.gens[tid].Next()
	tx := w.db.Begin(tid)
	switch t.Kind {
	case workload.TPCCNewOrder:
		// Insert the order row and one row per order line, and decrement
		// stock.
		w.orderSeq++
		tx.Insert(w.orderSeq, [nAttrs]uint64{uint64(t.Warehouse), uint64(t.District), 0, 0}, "order")
		for i, item := range t.Items {
			w.orderSeq++
			tx.Insert(w.orderSeq, [nAttrs]uint64{uint64(item), uint64(t.Quantity[i]), 0, 0}, "line")
			if v, ok := tx.Read(uint64(item), 0); ok {
				tx.Update(uint64(item), 0, v-uint64(t.Quantity[i]), "")
			}
		}
	case workload.TPCCPayment:
		// Warehouse YTD, district YTD, customer balance, plus a
		// history-row insert.
		tx.Update(uint64(t.Warehouse), 1, w.orderSeq, "")
		tx.Update(uint64(t.District), 1, uint64(t.Warehouse), "payment")
		tx.Update(uint64(16+t.District), 2, w.orderSeq, "")
		w.orderSeq++
		tx.Insert(w.orderSeq, [nAttrs]uint64{uint64(t.Warehouse), uint64(t.District), 0, 0}, "hist")
	case workload.TPCCStockLevel, workload.TPCCOrderStatus:
		for k := uint64(0); k < 10; k++ {
			tx.Read(k, 0)
		}
	}
	th := w.rt.Thread(tid)
	th.Compute(15000)
	th.VLoad(40)
	tx.Commit()
}
