// Package workload provides the deterministic workload generators that
// drive the WHISPER applications with the paper's configurations (Table 1):
// YCSB-like and TPC-C-like mixes for N-store, echo-test for Echo, memslap
// for Memcached, redis-cli lru-test for Redis, INSERT streams for the NVML
// micro-benchmarks, the vacation mix, and the filebench fileserver, postal
// and sysbench OLTP profiles for the PMFS applications.
package workload

import (
	"fmt"
	"math/rand"
)

// Zipf generates skewed key indexes in [0, n) with exponent s — the usual
// access-skew model for key-value workloads.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a Zipf generator over n items with skew s (>1). A
// keyspace smaller than one item is clamped to one: rand.NewZipf takes
// the *maximum* value, so passing n-1 for n == 0 would underflow to
// MaxUint64 and silently generate keys over the full uint64 range.
func NewZipf(rng *rand.Rand, s float64, n uint64) *Zipf {
	if s <= 1 {
		s = 1.01
	}
	if n < 1 {
		n = 1
	}
	return &Zipf{z: rand.NewZipf(rng, s, 1, n-1)}
}

// Next returns the next key index.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Hotspot generates key indexes in [0, keys) where hotPct percent of
// draws land in a contiguous window of hotKeys keys and the rest are
// uniform over the cold complement. Every rotate draws the window slides
// forward by its own size (mod keys), modelling the phase changes the
// scenario engine uses to shift an app's working set under load.
type Hotspot struct {
	rng     *rand.Rand
	keys    uint64
	hotKeys uint64
	hotPct  int
	rotate  int
	draws   int
	base    uint64
}

// NewHotspot creates a hotspot generator. Degenerate parameters are
// clamped: keys and hotKeys to at least 1, hotKeys to at most keys,
// hotPct into [0, 100]. rotate <= 0 disables rotation.
func NewHotspot(rng *rand.Rand, keys, hotKeys uint64, hotPct, rotate int) *Hotspot {
	if keys < 1 {
		keys = 1
	}
	if hotKeys < 1 {
		hotKeys = 1
	}
	if hotKeys > keys {
		hotKeys = keys
	}
	if hotPct < 0 {
		hotPct = 0
	}
	if hotPct > 100 {
		hotPct = 100
	}
	return &Hotspot{rng: rng, keys: keys, hotKeys: hotKeys, hotPct: hotPct, rotate: rotate}
}

// Next returns the next key index, advancing the hot window first when a
// rotation boundary is crossed.
func (h *Hotspot) Next() uint64 {
	if h.rotate > 0 && h.draws > 0 && h.draws%h.rotate == 0 {
		h.base = (h.base + h.hotKeys) % h.keys
	}
	h.draws++
	if h.rng.Intn(100) < h.hotPct {
		return (h.base + h.rng.Uint64()%h.hotKeys) % h.keys
	}
	cold := h.keys - h.hotKeys
	if cold == 0 {
		return h.rng.Uint64() % h.keys
	}
	// Uniform over the cold keys: offset past the hot window and wrap.
	return (h.base + h.hotKeys + h.rng.Uint64()%cold) % h.keys
}

// OpKind is a generic key-value operation type.
type OpKind int

const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpDelete
)

// KVOp is one key-value operation.
type KVOp struct {
	Kind  OpKind
	Key   string
	Value []byte
}

// HashKey is the key hash of the key-value apps: FNV-1a, 64-bit, with 0
// mapped to 1 so that zero can stay a bucket's "absent" sentinel. Echo
// applies a batch in ascending hash order, so a crash oracle needs the same
// hash to know which update prefixes are legal crash states.
func HashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// YCSB generates a YCSB-like stream: zipf-distributed keys over a fixed
// keyspace with a configurable write fraction (the paper runs 80% writes).
type YCSB struct {
	rng      *rand.Rand
	zipf     *Zipf
	keys     uint64
	writePct int
	valueLen int
}

// NewYCSB creates a generator over `keys` keys with writePct percent
// updates (the rest are reads).
func NewYCSB(seed int64, keys uint64, writePct, valueLen int) *YCSB {
	rng := rand.New(rand.NewSource(seed))
	return &YCSB{
		rng:      rng,
		zipf:     NewZipf(rng, 1.1, keys),
		keys:     keys,
		writePct: writePct,
		valueLen: valueLen,
	}
}

// Next returns the next operation.
func (y *YCSB) Next() KVOp {
	k := fmt.Sprintf("user%08d", y.zipf.Next())
	if y.rng.Intn(100) < y.writePct {
		return KVOp{Kind: OpUpdate, Key: k, Value: y.value()}
	}
	return KVOp{Kind: OpRead, Key: k}
}

func (y *YCSB) value() []byte {
	v := make([]byte, y.valueLen)
	for i := range v {
		v[i] = byte('a' + y.rng.Intn(26))
	}
	return v
}

// TPCCTx is a TPC-C-like transaction profile: the paper uses a simple
// implementation shipped with N-store (40% writes). Each transaction
// touches a district/warehouse row, inserts an order and order lines, or
// reads stock levels.
type TPCCTx struct {
	Kind                TPCCKind
	Warehouse, District int
	Items               []int
	Quantity            []int
}

// TPCCKind is the transaction type.
type TPCCKind int

const (
	TPCCNewOrder TPCCKind = iota
	TPCCPayment
	TPCCStockLevel
	TPCCOrderStatus
)

// TPCC generates the transaction mix.
type TPCC struct {
	rng        *rand.Rand
	warehouses int
	items      int
}

// NewTPCC creates a generator over the given scale.
func NewTPCC(seed int64, warehouses, items int) *TPCC {
	return &TPCC{rng: rand.New(rand.NewSource(seed)), warehouses: warehouses, items: items}
}

// Next returns the next transaction. The mix follows N-store's simple
// TPC-C implementation, which is NewOrder-heavy (55/35/6/4); the paper
// reports a median transaction of well over a hundred epochs, which only
// a NewOrder-majority mix produces.
func (t *TPCC) Next() TPCCTx {
	tx := TPCCTx{
		Warehouse: t.rng.Intn(t.warehouses),
		District:  t.rng.Intn(10),
	}
	switch p := t.rng.Intn(100); {
	case p < 55:
		tx.Kind = TPCCNewOrder
		n := 10 + t.rng.Intn(16) // 10..25 order lines (N-store's config)
		for i := 0; i < n; i++ {
			tx.Items = append(tx.Items, t.rng.Intn(t.items))
			tx.Quantity = append(tx.Quantity, 1+t.rng.Intn(10))
		}
	case p < 90:
		tx.Kind = TPCCPayment
	case p < 96:
		tx.Kind = TPCCStockLevel
	default:
		tx.Kind = TPCCOrderStatus
	}
	return tx
}

// Memslap generates the memslap profile used for Memcached: 5% SET, 95%
// GET over a zipf keyspace.
func Memslap(seed int64, keys uint64, setPct, valueLen int) *YCSB {
	y := NewYCSB(seed, keys, setPct, valueLen)
	return y
}

// LRUTest generates the redis-cli lru-test profile: a stream of SETs and
// GETs over a large keyspace that stresses eviction and chaining; roughly
// half the operations insert fresh keys.
type LRUTest struct {
	rng  *rand.Rand
	keys uint64
	next uint64
}

// NewLRUTest creates the generator over `keys` possible keys.
func NewLRUTest(seed int64, keys uint64) *LRUTest {
	return &LRUTest{rng: rand.New(rand.NewSource(seed)), keys: keys}
}

// Next returns the next operation.
func (l *LRUTest) Next() KVOp {
	if l.rng.Intn(2) == 0 {
		k := fmt.Sprintf("lru:%d", l.next%l.keys)
		l.next++
		return KVOp{Kind: OpInsert, Key: k, Value: []byte("v0123456789abcdef")}
	}
	k := fmt.Sprintf("lru:%d", l.rng.Uint64()%l.keys)
	return KVOp{Kind: OpRead, Key: k}
}

// VacationTx is one travel-reservation transaction.
type VacationTx struct {
	Kind     VacationKind
	Customer int
	Objects  []int // car/flight/room ids touched
	Table    int   // 0=car, 1=flight, 2=room
}

// VacationKind is the operation type.
type VacationKind int

const (
	VacationReserve VacationKind = iota
	VacationCancel
	VacationUpdate // add/remove inventory
)

// Vacation generates the STAMP vacation mix.
type Vacation struct {
	rng       *rand.Rand
	customers int
	relations int
}

// NewVacation creates a generator: `relations` tuples per table.
func NewVacation(seed int64, customers, relations int) *Vacation {
	return &Vacation{rng: rand.New(rand.NewSource(seed)), customers: customers, relations: relations}
}

// Next returns the next transaction (90% reservations, 5% cancellations,
// 5% inventory updates — vacation's "high contention" default).
func (v *Vacation) Next() VacationTx {
	tx := VacationTx{
		Customer: v.rng.Intn(v.customers),
		Table:    v.rng.Intn(3),
	}
	n := 1 + v.rng.Intn(2)
	for i := 0; i < n; i++ {
		tx.Objects = append(tx.Objects, v.rng.Intn(v.relations))
	}
	switch p := v.rng.Intn(100); {
	case p < 90:
		tx.Kind = VacationReserve
	case p < 95:
		tx.Kind = VacationCancel
	default:
		tx.Kind = VacationUpdate
	}
	return tx
}

// FileOp is a filesystem operation for the PMFS profiles.
type FileOp struct {
	Kind FileOpKind
	Path string
	Size int
}

// FileOpKind enumerates file operations.
type FileOpKind int

const (
	FileCreate FileOpKind = iota
	FileWrite
	FileRead
	FileDelete
	FileStat
	FileAppend
)

// Fileserver generates the filebench fileserver profile: create/write/
// read/append/delete over a directory tree, mean file size ~128 KB scaled
// down for simulation (we use 16 KB to keep traces tractable).
type Fileserver struct {
	rng     *rand.Rand
	nfiles  int
	meanKB  int
	created map[int]bool
	order   []int
}

// NewFileserver creates the generator over nfiles files.
func NewFileserver(seed int64, nfiles, meanKB int) *Fileserver {
	return &Fileserver{
		rng:     rand.New(rand.NewSource(seed)),
		nfiles:  nfiles,
		meanKB:  meanKB,
		created: make(map[int]bool),
	}
}

// Next returns the next file operation.
func (f *Fileserver) Next() FileOp {
	id := f.rng.Intn(f.nfiles)
	path := fmt.Sprintf("/files/f%05d", id)
	if !f.created[id] {
		f.created[id] = true
		f.order = append(f.order, id)
		return FileOp{Kind: FileCreate, Path: path}
	}
	switch f.rng.Intn(10) {
	case 0, 1, 2:
		return FileOp{Kind: FileWrite, Path: path, Size: f.size()}
	case 3, 4:
		return FileOp{Kind: FileAppend, Path: path, Size: f.size() / 4}
	case 5, 6, 7:
		return FileOp{Kind: FileRead, Path: path, Size: f.size()}
	case 8:
		return FileOp{Kind: FileStat, Path: path}
	default:
		delete(f.created, id)
		return FileOp{Kind: FileDelete, Path: path}
	}
}

func (f *Fileserver) size() int {
	// Exponential-ish around the mean.
	kb := 1 + f.rng.Intn(2*f.meanKB)
	return kb << 10
}

// Postal generates the postal mail-server profile for Exim: each delivery
// receives a message of msgKB kilobytes for a random mailbox, appends it,
// and logs the delivery.
type Postal struct {
	rng       *rand.Rand
	mailboxes int
	msgKB     int
	seq       int
}

// Delivery is one mail delivery.
type Delivery struct {
	Mailbox string
	Spool   string
	Size    int
}

// NewPostal creates the generator (the paper: 100 KB messages, 250
// mailboxes; we default to smaller messages for simulation tractability).
func NewPostal(seed int64, mailboxes, msgKB int) *Postal {
	return &Postal{rng: rand.New(rand.NewSource(seed)), mailboxes: mailboxes, msgKB: msgKB}
}

// Next returns the next delivery.
func (p *Postal) Next() Delivery {
	p.seq++
	return Delivery{
		Mailbox: fmt.Sprintf("/mail/user%03d", p.rng.Intn(p.mailboxes)),
		Spool:   fmt.Sprintf("/spool/msg%06d", p.seq),
		Size:    p.msgKB << 10,
	}
}

// Sysbench generates the OLTP-complex profile for MySQL: point selects,
// range scans, and index updates over one table, issued as transactions.
type Sysbench struct {
	rng  *rand.Rand
	rows uint64
}

// SysbenchTx is one OLTP transaction: a mix of reads and an update.
type SysbenchTx struct {
	PointSelects int
	RangeSize    int
	UpdateRow    uint64
	InsertRow    uint64
	DeleteRow    uint64
	Write        bool
}

// NewSysbench creates the generator over `rows` rows.
func NewSysbench(seed int64, rows uint64) *Sysbench {
	return &Sysbench{rng: rand.New(rand.NewSource(seed)), rows: rows}
}

// Next returns the next transaction.
func (s *Sysbench) Next() SysbenchTx {
	tx := SysbenchTx{
		PointSelects: 10,
		RangeSize:    20,
		UpdateRow:    s.rng.Uint64() % s.rows,
	}
	if s.rng.Intn(100) < 30 { // oltp-complex default read/write mix
		tx.Write = true
		tx.InsertRow = s.rng.Uint64() % s.rows
		tx.DeleteRow = s.rng.Uint64() % s.rows
	}
	return tx
}

// Mix selects the operation mix an application's workload issues.
type Mix int

const (
	// Paper is the Table 1 mix: what the suite records and the figures
	// measure.
	Paper Mix = iota
	// Checker is the crash checker's mix, for the apps whose paper mix
	// never issues an operation recovery must handle: deletes for the
	// key-value stores, aborts for N-store.
	Checker
)

func (m Mix) String() string { return [...]string{"paper", "checker"}[m] }

// KV is the method set the key-value workloads drive: the store itself,
// or a crash oracle that wraps it and forwards every call unchanged.
type KV[K, V any] interface {
	Insert(tid int, key K, value V) error
	Get(tid int, key K) (V, bool)
	Delete(tid int, key K) (bool, error)
}

// KVCheck is the checker's key-value mix: each client issues 60% inserts,
// 20% deletes and 20% gets of keys drawn uniformly from `keys` of them, so
// deletes hit live keys and inserts overwrite them. render turns a raw key
// and value draw into the store's types.
type KVCheck[K, V any] struct {
	kv     KV[K, V]
	rngs   []*rand.Rand
	keys   int
	render func(key, val uint64) (K, V)
}

// NewKVCheck creates the mix over kv for clients clients.
func NewKVCheck[K, V any](kv KV[K, V], clients int, seed int64, keys int, render func(key, val uint64) (K, V)) *KVCheck[K, V] {
	g := &KVCheck[K, V]{kv: kv, keys: keys, render: render}
	for c := 0; c < clients; c++ {
		g.rngs = append(g.rngs, rand.New(rand.NewSource(seed+int64(c))))
	}
	return g
}

// Op issues client tid's next operation.
func (g *KVCheck[K, V]) Op(tid int) {
	rng := g.rngs[tid]
	key, val := g.render(uint64(rng.Intn(g.keys)), rng.Uint64()%1_000_000)
	switch r := rng.Intn(100); {
	case r < 60:
		g.kv.Insert(tid, key, val)
	case r < 80:
		g.kv.Delete(tid, key)
	default:
		g.kv.Get(tid, key)
	}
}

// NonZero renders a KVCheck draw for the uint64 stores, which treat key
// and value 0 as ambiguous.
func NonZero(key, val uint64) (uint64, uint64) { return key + 1, val + 1 }

// Strings renders a KVCheck draw for the string stores.
func Strings(key, val uint64) (string, string) {
	return fmt.Sprintf("key-%03d", key), fmt.Sprintf("value-%06d", val)
}
