package crashcheck

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"

	"github.com/whisper-pm/whisper/internal/apps/echo"
	"github.com/whisper-pm/whisper/internal/apps/fsapps"
	"github.com/whisper-pm/whisper/internal/apps/nstore"
	"github.com/whisper-pm/whisper/internal/apps/vacation"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/persist"
)

// entry registers one checkable suite application.
type entry struct {
	name    string
	layer   string
	factory func() App
}

// registry lists the paper's ten applications (the two N-store benchmarks
// share one application; the checker drives it with the YCSB-style mix).
var registry = []entry{
	{"echo", "native", func() App { return &echoApp{} }},
	{"ycsb", "native", func() App { return &nstoreApp{} }},
	{"redis", "nvml", func() App { return newStrApp("redis") }},
	{"ctree", "nvml", func() App { return newU64App("ctree") }},
	{"hashmap", "nvml", func() App { return newU64App("hashmap") }},
	{"vacation", "mnemosyne", func() App { return &vacationApp{} }},
	{"memcached", "mnemosyne", func() App { return newStrApp("memcached") }},
	{"nfs", "pmfs", func() App { return fsapps.NewCrashApp("nfs") }},
	{"exim", "pmfs", func() App { return fsapps.NewCrashApp("exim") }},
	{"mysql", "pmfs", func() App { return fsapps.NewCrashApp("mysql") }},
}

// Apps returns the registered application names in suite order.
func Apps() []string {
	var names []string
	for _, e := range registry {
		names = append(names, e.name)
	}
	return names
}

func lookup(name string) (entry, error) {
	for _, e := range registry {
		if e.name == name {
			return e, nil
		}
	}
	return entry{}, fmt.Errorf("crashcheck: unknown app %q (have %v)", name, Apps())
}

// ---------------------------------------------------------------------------
// Key-value apps: ctree and hashmap (uint64), redis and memcached (string).

const (
	opInsert = iota
	opDelete
	opGet
)

// kvOp is one scripted operation; key and val are the raw draws the app's
// render function turns into its store's key and value types.
type kvOp struct {
	kind     int
	key, val uint64
}

// kvApp scripts an insert/delete/get mix against one key-value store and
// leaves every judgement to its Model.
type kvApp[K cmp.Ordered, V comparable] struct {
	name     string
	open     func(app string, rt *persist.Runtime) KV[K, V]
	keyspace int
	render   func(key, val uint64) (K, V)
	clients  int
	script   []kvOp
	m        *Model[K, V]
}

func newU64App(name string) App {
	// The stores treat key/value 0 as ambiguous; keep both nonzero.
	return &kvApp[uint64, uint64]{name: name, open: OpenU64, keyspace: 256,
		render: func(k, v uint64) (uint64, uint64) { return k + 1, v + 1 }}
}

func newStrApp(name string) App {
	return &kvApp[string, string]{name: name, open: OpenStr, keyspace: 128,
		render: func(k, v uint64) (string, string) {
			return fmt.Sprintf("key-%03d", k), fmt.Sprintf("value-%06d", v)
		}}
}

func (a *kvApp[K, V]) Setup(rt *persist.Runtime, clients, ops int, seed int64) {
	a.m = NewModel(a.open(a.name, rt))
	a.clients = clients
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < ops; k++ {
		op := kvOp{key: uint64(rng.Intn(a.keyspace)), val: rng.Uint64() % 1_000_000}
		switch r := rng.Intn(100); {
		case r < 60:
			op.kind = opInsert
		case r < 80:
			op.kind = opDelete
		default:
			op.kind = opGet
		}
		a.script = append(a.script, op)
	}
}

func (a *kvApp[K, V]) Do(k int) {
	op := a.script[k]
	tid := k % a.clients
	key, val := a.render(op.key, op.val)
	switch op.kind {
	case opInsert:
		a.m.Insert(tid, key, val)
	case opDelete:
		a.m.Delete(tid, key)
	case opGet:
		a.m.Get(tid, key)
	}
}

func (a *kvApp[K, V]) Recover() { a.m.Recover() }

func (a *kvApp[K, V]) Check() error { return a.m.Check(0) }

// ---------------------------------------------------------------------------
// N-store (YCSB mix): multi-write OPTWAL transactions, all-or-nothing.

type nsWrite struct {
	insert  bool
	key     uint64
	idx     int
	val     uint64
	attrs   [4]uint64
	varchar string
}

type nsTx struct {
	writes []nsWrite
	abort  bool
}

// nsPending snapshots the model rows a transaction touches, before and
// after. The recovered image must match one side for every touched key —
// the undo WAL makes partial transactions illegal.
type nsPending struct {
	before map[uint64]nsRow
	after  map[uint64]nsRow
}

type nsRow struct {
	attrs [4]uint64
	ok    bool
}

type nstoreApp struct {
	rt      *persist.Runtime
	db      *nstore.DB
	clients int
	script  []nsTx
	model   map[uint64][4]uint64
	touched map[uint64]bool
	pending *nsPending
}

func (a *nstoreApp) Setup(rt *persist.Runtime, clients, ops int, seed int64) {
	a.rt = rt
	a.clients = clients
	a.db = nstore.Open(rt, nstore.Config{Partitions: clients, Buckets: 128, SlabBytes: 1 << 20})
	a.model = make(map[uint64][4]uint64)
	a.touched = make(map[uint64]bool)
	rng := rand.New(rand.NewSource(seed))
	// Keys are partitioned by construction: key ≡ tid (mod clients), so
	// every transaction touches only its own partition's index.
	live := make(map[int][]uint64)
	for k := 0; k < ops; k++ {
		tid := k % clients
		tx := nsTx{abort: rng.Intn(100) < 10}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			if len(live[tid]) == 0 || rng.Intn(100) < 45 {
				// Unique per (transaction, write): an aborted insert's key is
				// never reused, so re-insert ambiguity cannot arise.
				key := uint64(tid + clients*(k*4+i+1))
				var attrs [4]uint64
				for j := range attrs {
					attrs[j] = rng.Uint64() % 100_000
				}
				tx.writes = append(tx.writes, nsWrite{
					insert: true, key: key, attrs: attrs,
					varchar: fmt.Sprintf("row-%d", key),
				})
				if !tx.abort {
					live[tid] = append(live[tid], key)
				}
			} else {
				key := live[tid][rng.Intn(len(live[tid]))]
				tx.writes = append(tx.writes, nsWrite{
					key: key, idx: rng.Intn(4), val: rng.Uint64() % 100_000,
					varchar: fmt.Sprintf("upd-%d", k),
				})
			}
		}
		a.script = append(a.script, tx)
	}
}

func (a *nstoreApp) Do(k int) {
	script := a.script[k]
	tid := k % a.clients
	// Predict the transaction's outcome on copies of the touched rows.
	p := &nsPending{before: make(map[uint64]nsRow), after: make(map[uint64]nsRow)}
	for _, w := range script.writes {
		if _, seen := p.before[w.key]; !seen {
			attrs, ok := a.model[w.key]
			p.before[w.key] = nsRow{attrs: attrs, ok: ok}
			p.after[w.key] = nsRow{attrs: attrs, ok: ok}
		}
		row := p.after[w.key]
		if w.insert {
			row = nsRow{attrs: w.attrs, ok: true}
		} else if row.ok {
			row.attrs[w.idx] = w.val
		}
		p.after[w.key] = row
	}
	if script.abort {
		p.after = p.before
	}
	a.pending = p
	for key := range p.before {
		a.touched[key] = true
	}

	tx := a.db.Begin(tid)
	for _, w := range script.writes {
		if w.insert {
			tx.Insert(w.key, w.attrs, w.varchar)
		} else {
			tx.Update(w.key, w.idx, w.val, w.varchar)
		}
	}
	if script.abort {
		tx.Abort()
	} else {
		tx.Commit()
	}
	for key, row := range p.after {
		if row.ok {
			a.model[key] = row.attrs
		} else {
			delete(a.model, key)
		}
	}
	a.pending = nil
}

func (a *nstoreApp) Recover() { a.db.Recover() }

// owner returns the tid whose partition holds key (by script construction).
func (a *nstoreApp) owner(key uint64) int { return int(key % uint64(a.clients)) }

func (a *nstoreApp) rowMatches(key uint64, want nsRow) bool {
	for idx := 0; idx < 4; idx++ {
		got, ok := a.db.Get(a.owner(key), key, idx)
		if ok != want.ok {
			return false
		}
		if ok && got != want.attrs[idx] {
			return false
		}
	}
	return true
}

func (a *nstoreApp) Check() error {
	if err := a.db.CheckInvariants(); err != nil {
		return err
	}
	p := a.pending
	// An in-flight transaction must land entirely before or entirely
	// after: mixing rows from both sides breaks OPTWAL atomicity.
	matchBefore, matchAfter := true, true
	for _, key := range SortedKeys(a.touched) {
		if p != nil {
			if before, inflight := p.before[key]; inflight {
				if !a.rowMatches(key, before) {
					matchBefore = false
				}
				if !a.rowMatches(key, p.after[key]) {
					matchAfter = false
				}
				continue
			}
		}
		attrs, ok := a.model[key]
		if !a.rowMatches(key, nsRow{attrs: attrs, ok: ok}) {
			got, gok := a.db.Get(a.owner(key), key, 0)
			return fmt.Errorf("key %d: recovered (%d,%v) diverged from model (%v,%v)", key, got, gok, attrs, ok)
		}
	}
	if p != nil && !matchBefore && !matchAfter {
		return fmt.Errorf("in-flight transaction is neither rolled back nor committed (partial writes visible)")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Echo: batched updates, committed per update in ascending hash order, so
// the legal crash states of a batch are exactly its sorted-order prefixes.

type echoKV struct {
	key string
	val uint64
}

type echoApp struct {
	rt      *persist.Runtime
	st      *echo.Store
	clients int
	batches [][]echoKV
	model   map[string]uint64
	touched map[string]bool
	pending []echoKV // in-flight batch, sorted in application (hash) order
	err     error
}

func (a *echoApp) Setup(rt *persist.Runtime, clients, ops int, seed int64) {
	a.rt = rt
	a.clients = clients
	a.st = echo.New(rt, echo.Config{Buckets: 256, SlabBytes: 1 << 20, BatchSize: 8})
	a.model = make(map[string]uint64)
	a.touched = make(map[string]bool)
	rng := rand.New(rand.NewSource(seed))
	const keyspace = 64
	const batch = 4
	for k := 0; k < ops; k++ {
		seen := make(map[int]bool)
		var kvs []echoKV
		for len(kvs) < batch {
			id := rng.Intn(keyspace)
			if seen[id] {
				continue
			}
			seen[id] = true
			kvs = append(kvs, echoKV{key: fmt.Sprintf("key-%02d", id), val: rng.Uint64()%1_000_000 + 1})
		}
		a.batches = append(a.batches, kvs)
	}
}

func (a *echoApp) Do(k int) {
	tid := k % a.clients
	kvs := append([]echoKV(nil), a.batches[k]...)
	// The store applies a batch in ascending key-hash order; keep the
	// pending copy in that order so prefixes line up.
	sort.Slice(kvs, func(i, j int) bool {
		return echo.HashKey(kvs[i].key) < echo.HashKey(kvs[j].key)
	})
	a.pending = kvs
	for _, kv := range kvs {
		a.touched[kv.key] = true
		a.st.Put(tid, kv.key, kv.val)
	}
	a.st.SubmitBatch(tid)
	for _, kv := range kvs {
		a.model[kv.key] = kv.val
	}
	a.pending = nil
}

func (a *echoApp) Recover() { a.st.Recover() }

func (a *echoApp) Check() error {
	if a.err != nil {
		return a.err
	}
	if err := a.st.CheckInvariants(); err != nil {
		return err
	}
	// Candidate states: the committed model, or (with a batch in flight)
	// the model plus any prefix of the batch in application order.
	candidates := [][]echoKV{nil}
	for i := 1; i <= len(a.pending); i++ {
		candidates = append(candidates, a.pending[:i])
	}
	for _, prefix := range candidates {
		if a.matches(prefix) {
			return nil
		}
	}
	if a.pending == nil {
		// Diagnose the mismatch precisely when no batch was in flight.
		for _, key := range SortedKeys(a.model) {
			want := a.model[key]
			got, ok := a.st.Get(0, key)
			if !ok || got != want {
				return fmt.Errorf("key %s: recovered (%d,%v), model wants %d", key, got, ok, want)
			}
		}
		return fmt.Errorf("recovered state diverged from model")
	}
	return fmt.Errorf("recovered state is no sorted-order prefix of the in-flight batch")
}

// matches reports whether the recovered store equals the committed model
// with `prefix` of the in-flight batch applied on top.
func (a *echoApp) matches(prefix []echoKV) bool {
	want := make(map[string]uint64, len(a.model))
	for k, v := range a.model {
		want[k] = v
	}
	for _, kv := range prefix {
		want[kv.key] = kv.val
	}
	for key := range a.touched {
		got, ok := a.st.Get(0, key)
		wv, wok := want[key]
		if ok != wok || (ok && got != wv) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Vacation: reservation transactions over red-black trees with global
// counters; Mnemosyne redo transactions are all-or-nothing.

type vacOp struct {
	kind     int // 0 reserve, 1 cancel, 2 add-inventory
	customer uint64
	table    int
	id       uint64
	delta    uint64
}

// vacModel mirrors the persistent reservation state.
type vacModel struct {
	free     map[[2]uint64]uint64 // (table, id) -> free slots
	counters [3]uint64
	resv     map[uint64][]vacOp // customer -> reservation stack (newest first)
}

func (m *vacModel) clone() *vacModel {
	c := &vacModel{free: make(map[[2]uint64]uint64, len(m.free)), counters: m.counters,
		resv: make(map[uint64][]vacOp, len(m.resv))}
	for k, v := range m.free {
		c.free[k] = v
	}
	for k, v := range m.resv {
		c.resv[k] = append([]vacOp(nil), v...)
	}
	return c
}

// apply mutates the model with op's predicted effect and returns the
// predicted success flag.
func (m *vacModel) apply(op vacOp) bool {
	switch op.kind {
	case 0: // reserve
		k := [2]uint64{uint64(op.table), op.id}
		if m.free[k] == 0 {
			return false
		}
		m.free[k]--
		m.counters[op.table]--
		m.resv[op.customer] = append([]vacOp{op}, m.resv[op.customer]...)
		return true
	case 1: // cancel newest reservation in table
		list := m.resv[op.customer]
		for i, r := range list {
			if r.table == op.table {
				m.resv[op.customer] = append(append([]vacOp(nil), list[:i]...), list[i+1:]...)
				m.free[[2]uint64{uint64(op.table), r.id}]++
				m.counters[op.table]++
				return true
			}
		}
		return false
	default: // add inventory
		m.free[[2]uint64{uint64(op.table), op.id}] += op.delta
		m.counters[op.table] += op.delta
		return true
	}
}

type vacPending struct {
	before *vacModel
	after  *vacModel
}

type vacationApp struct {
	rt        *persist.Runtime
	mgr       *vacation.Manager
	clients   int
	relations int
	script    []vacOp
	model     *vacModel
	customers map[uint64]bool
	pending   *vacPending
	err       error
}

func (a *vacationApp) Setup(rt *persist.Runtime, clients, ops int, seed int64) {
	a.rt = rt
	a.clients = clients
	a.relations = 48
	const capacity = 4
	heap := mnemosyne.New(rt, 1<<15, mnemosyne.Options{})
	a.mgr = vacation.NewManager(rt, heap, a.relations, capacity)
	a.model = &vacModel{free: make(map[[2]uint64]uint64), resv: make(map[uint64][]vacOp)}
	a.customers = make(map[uint64]bool)
	for t := 0; t < 3; t++ {
		for id := 0; id < a.relations; id++ {
			a.model.free[[2]uint64{uint64(t), uint64(id)}] = capacity
		}
		a.model.counters[t] = uint64(a.relations) * capacity
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < ops; k++ {
		op := vacOp{
			customer: uint64(rng.Intn(24)),
			table:    rng.Intn(3),
			id:       uint64(rng.Intn(a.relations)),
			delta:    uint64(rng.Intn(3) + 1),
		}
		switch r := rng.Intn(100); {
		case r < 60:
			op.kind = 0
		case r < 85:
			op.kind = 1
		default:
			op.kind = 2
		}
		a.script = append(a.script, op)
	}
}

func (a *vacationApp) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

func (a *vacationApp) Do(k int) {
	op := a.script[k]
	tid := k % a.clients
	a.customers[op.customer] = true
	after := a.model.clone()
	predicted := after.apply(op)
	a.pending = &vacPending{before: a.model, after: after}
	var ok bool
	var err error
	switch op.kind {
	case 0:
		ok, err = a.mgr.Reserve(tid, op.customer, op.table, op.id)
	case 1:
		ok, err = a.mgr.Cancel(tid, op.customer, op.table)
	default:
		err = a.mgr.AddInventory(tid, op.table, op.id, op.delta)
		ok = true
	}
	if err != nil {
		a.fail("op %d: %v", k, err)
	} else if ok != predicted {
		a.fail("op %d: store returned %v, model predicted %v", k, ok, predicted)
	}
	a.model = after
	a.pending = nil
}

func (a *vacationApp) Recover() { a.mgr.Recover() }

// compare checks the full persistent state against one model state.
func (a *vacationApp) compare(m *vacModel) error {
	for t := 0; t < 3; t++ {
		if got := a.mgr.Counter(0, t); got != m.counters[t] {
			return fmt.Errorf("table %d counter: recovered %d, model %d", t, got, m.counters[t])
		}
		for id := 0; id < a.relations; id++ {
			got, found := a.mgr.FreeSlots(0, t, uint64(id))
			want := m.free[[2]uint64{uint64(t), uint64(id)}]
			if !found || got != want {
				return fmt.Errorf("table %d id %d: recovered free (%d,%v), model %d", t, id, got, found, want)
			}
		}
	}
	for _, c := range SortedKeys(a.customers) {
		if got, want := a.mgr.Reservations(0, c), len(m.resv[c]); got != want {
			return fmt.Errorf("customer %d: recovered %d reservations, model %d", c, got, want)
		}
	}
	return nil
}

func (a *vacationApp) Check() error {
	if a.err != nil {
		return a.err
	}
	if !a.mgr.CheckTrees(0) {
		return fmt.Errorf("red-black tree invariants violated after recovery")
	}
	if p := a.pending; p != nil {
		errBefore := a.compare(p.before)
		if errBefore == nil {
			return nil
		}
		if errAfter := a.compare(p.after); errAfter == nil {
			return nil
		}
		return fmt.Errorf("in-flight transaction is neither rolled back nor committed: %v", errBefore)
	}
	return a.compare(a.model)
}
