package crashcheck

import (
	"fmt"
	"sort"

	"github.com/whisper-pm/whisper/internal/apps/echo"
	"github.com/whisper-pm/whisper/internal/apps/nstore"
	"github.com/whisper-pm/whisper/internal/apps/vacation"
	"github.com/whisper-pm/whisper/internal/workload"
)

// The oracles of the apps that are neither key-value stores (Model) nor
// filesystems (fsapps.Oracle).

// ---------------------------------------------------------------------------
// N-store (ycsb, tpcc): multi-write OPTWAL transactions, all-or-nothing.

// nsKey names a row: N-store keys are per partition, and a client's
// transactions run on the partition of its thread.
type nsKey struct {
	part int
	key  uint64
}

type nsRow struct {
	attrs [4]uint64
	ok    bool
}

// nstoreOracle wraps a database. A transaction's writes go to its before
// and after images of the rows it touches as they are issued, so a crash
// anywhere inside it finds the rows the recovered image must match on one
// side or the other — the undo WAL makes a mix of both illegal.
type nstoreOracle struct {
	db      *nstore.DB
	model   map[nsKey][4]uint64
	touched map[nsKey]bool
	open    *nsTx // the transaction in flight, nil between transactions
	firstErr
}

func newNStoreOracle(db *nstore.DB) *nstoreOracle {
	return &nstoreOracle{db: db, model: make(map[nsKey][4]uint64), touched: make(map[nsKey]bool)}
}

// nsTx wraps one transaction: before and after hold the touched rows as
// they were at Begin and as the transaction has left them.
type nsTx struct {
	o             *nstoreOracle
	tx            nstore.Txn
	part          int
	before, after map[uint64]nsRow
}

// Begin forwards to the database.
func (o *nstoreOracle) Begin(tid int) nstore.Txn {
	t := &nsTx{o: o, part: tid, before: make(map[uint64]nsRow), after: make(map[uint64]nsRow)}
	o.open = t
	t.tx = o.db.Begin(tid)
	return t
}

// row returns key's row as the transaction sees it, noting the key touched.
func (t *nsTx) row(key uint64) nsRow {
	k := nsKey{t.part, key}
	t.o.touched[k] = true
	if r, seen := t.after[key]; seen {
		return r
	}
	attrs, ok := t.o.model[k]
	r := nsRow{attrs, ok}
	t.before[key], t.after[key] = r, r
	return r
}

func (t *nsTx) Insert(key uint64, attrs [4]uint64, varchar string) {
	t.row(key)
	t.after[key] = nsRow{attrs, true}
	t.tx.Insert(key, attrs, varchar)
}

func (t *nsTx) Update(key uint64, idx int, val uint64, varchar string) bool {
	r := t.row(key)
	if r.ok {
		r.attrs[idx] = val
		t.after[key] = r
	}
	ok := t.tx.Update(key, idx, val, varchar)
	if ok != r.ok {
		t.o.fail("update partition %d key %d: store found it %v, model %v", t.part, key, ok, r.ok)
	}
	return ok
}

func (t *nsTx) Read(key uint64, idx int) (uint64, bool) {
	got, ok := t.tx.Read(key, idx)
	if r := t.row(key); ok != r.ok || ok && got != r.attrs[idx] {
		t.o.fail("read partition %d key %d: store (%d,%v), model (%d,%v)", t.part, key, got, ok, r.attrs[idx], r.ok)
	}
	return got, ok
}

func (t *nsTx) Commit() {
	t.tx.Commit()
	for key, r := range t.after {
		if r.ok {
			t.o.model[nsKey{t.part, key}] = r.attrs
		} else {
			delete(t.o.model, nsKey{t.part, key})
		}
	}
	t.o.open = nil
}

func (t *nsTx) Abort() {
	// A crash inside the rollback must leave the rows as they were.
	t.after = t.before
	t.tx.Abort()
	t.o.open = nil
}

func (o *nstoreOracle) Recover() { o.db.Recover() }

func (o *nstoreOracle) rowMatches(k nsKey, want nsRow) bool {
	for idx := 0; idx < 4; idx++ {
		got, ok := o.db.Get(k.part, k.key, idx)
		if ok != want.ok || ok && got != want.attrs[idx] {
			return false
		}
	}
	return true
}

func (o *nstoreOracle) Check(int) error {
	if o.err != nil {
		return o.err
	}
	if err := o.db.CheckInvariants(); err != nil {
		return err
	}
	keys := make([]nsKey, 0, len(o.touched))
	for k := range o.touched {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].part < keys[j].part || keys[i].part == keys[j].part && keys[i].key < keys[j].key
	})
	// An in-flight transaction must land entirely before or entirely
	// after: mixing rows from both sides breaks OPTWAL atomicity.
	t := o.open
	matchBefore, matchAfter := true, true
	for _, k := range keys {
		if t != nil && k.part == t.part {
			if before, inflight := t.before[k.key]; inflight {
				matchBefore = matchBefore && o.rowMatches(k, before)
				matchAfter = matchAfter && o.rowMatches(k, t.after[k.key])
				continue
			}
		}
		attrs, ok := o.model[k]
		if !o.rowMatches(k, nsRow{attrs, ok}) {
			got, gok := o.db.Get(k.part, k.key, 0)
			return fmt.Errorf("partition %d key %d: recovered (%d,%v) diverged from model (%v,%v)", k.part, k.key, got, gok, attrs, ok)
		}
	}
	if t != nil && !matchBefore && !matchAfter {
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

// echoOracle wraps a store. Like the store it stages a client's updates by
// key hash, so an update repeated within a batch is last-put-wins.
type echoOracle struct {
	*echo.Store
	staged  map[int]map[uint64]echoKV // client -> key hash -> last put
	model   map[string]uint64
	touched map[string]bool
	pending []echoKV // in-flight batch, in application (hash) order
	firstErr
}

func newEchoOracle(st *echo.Store) *echoOracle {
	return &echoOracle{Store: st, staged: make(map[int]map[uint64]echoKV),
		model: make(map[string]uint64), touched: make(map[string]bool)}
}

// Put forwards to the store and stages the update in the model.
func (o *echoOracle) Put(tid int, key string, value uint64) {
	if o.staged[tid] == nil {
		o.staged[tid] = make(map[uint64]echoKV)
	}
	o.staged[tid][workload.HashKey(key)] = echoKV{key, value}
	o.Store.Put(tid, key, value)
}

// SubmitBatch forwards to the store. The batch in flight is the client's
// staged updates in the ascending hash order the store applies them in.
func (o *echoOracle) SubmitBatch(tid int) int {
	staged := o.staged[tid]
	hashes := make([]uint64, 0, len(staged))
	for h := range staged {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	kvs := make([]echoKV, len(hashes))
	for i, h := range hashes {
		kvs[i] = staged[h]
		o.touched[kvs[i].key] = true
	}
	delete(o.staged, tid)
	o.pending = kvs
	n := o.Store.SubmitBatch(tid)
	if n != len(kvs) {
		o.fail("batch of %d staged updates applied %d", len(kvs), n)
	}
	for _, kv := range kvs {
		o.model[kv.key] = kv.val
	}
	o.pending = nil
	return n
}

func (o *echoOracle) Check(tid int) error {
	if o.err != nil {
		return o.err
	}
	if err := o.CheckInvariants(); err != nil {
		return err
	}
	// Candidate states: the committed model, or (with a batch in flight)
	// the model plus any prefix of the batch in application order.
	for i := 0; i <= len(o.pending); i++ {
		if o.matches(tid, o.pending[:i]) {
			return nil
		}
	}
	if o.pending == nil {
		// Diagnose the mismatch precisely when no batch was in flight.
		for _, key := range SortedKeys(o.model) {
			want := o.model[key]
			got, ok := o.Get(tid, key)
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
func (o *echoOracle) matches(tid int, prefix []echoKV) bool {
	want := make(map[string]uint64, len(o.model))
	for k, v := range o.model {
		want[k] = v
	}
	for _, kv := range prefix {
		want[kv.key] = kv.val
	}
	for key := range o.touched {
		got, ok := o.Get(tid, key)
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

// vacationOracle wraps a reservation manager.
type vacationOracle struct {
	*vacation.Manager
	model     *vacModel
	customers map[uint64]bool
	pending   *vacPending
	firstErr
}

// newVacationOracle wraps mgr, freshly built with vacation.Relations
// tuples per table of vacation.Capacity free slots each.
func newVacationOracle(mgr *vacation.Manager) *vacationOracle {
	o := &vacationOracle{Manager: mgr,
		model:     &vacModel{free: make(map[[2]uint64]uint64), resv: make(map[uint64][]vacOp)},
		customers: make(map[uint64]bool)}
	for t := 0; t < 3; t++ {
		for id := 0; id < vacation.Relations; id++ {
			o.model.free[[2]uint64{uint64(t), uint64(id)}] = vacation.Capacity
		}
		o.model.counters[t] = vacation.Relations * vacation.Capacity
	}
	return o
}

// do runs call, the store's half of op, between the model's before and
// after states.
func (o *vacationOracle) do(op vacOp, call func() (bool, error)) (bool, error) {
	after := o.model.clone()
	predicted := after.apply(op)
	o.pending = &vacPending{before: o.model, after: after}
	ok, err := call()
	if err != nil {
		o.fail("%+v: %v", op, err)
	} else if ok != predicted {
		o.fail("%+v: store returned %v, model predicted %v", op, ok, predicted)
	}
	o.model = after
	o.pending = nil
	return ok, err
}

// FreeSlots forwards the read-only query and holds it to the model.
func (o *vacationOracle) FreeSlots(tid int, table int, id uint64) (uint64, bool) {
	got, found := o.Manager.FreeSlots(tid, table, id)
	if want := o.model.free[[2]uint64{uint64(table), id}]; !found || got != want {
		o.fail("table %d id %d: store free (%d,%v), model %d", table, id, got, found, want)
	}
	return got, found
}

func (o *vacationOracle) Reserve(tid int, customer uint64, table int, id uint64) (bool, error) {
	o.customers[customer] = true
	return o.do(vacOp{kind: 0, customer: customer, table: table, id: id}, func() (bool, error) {
		return o.Manager.Reserve(tid, customer, table, id)
	})
}

func (o *vacationOracle) Cancel(tid int, customer uint64, table int) (bool, error) {
	o.customers[customer] = true
	return o.do(vacOp{kind: 1, customer: customer, table: table}, func() (bool, error) {
		return o.Manager.Cancel(tid, customer, table)
	})
}

func (o *vacationOracle) AddInventory(tid int, table int, id, delta uint64) error {
	_, err := o.do(vacOp{kind: 2, table: table, id: id, delta: delta}, func() (bool, error) {
		return true, o.Manager.AddInventory(tid, table, id, delta)
	})
	return err
}

// compare checks the full persistent state against one model state.
func (o *vacationOracle) compare(tid int, m *vacModel) error {
	for t := 0; t < 3; t++ {
		if got := o.Counter(tid, t); got != m.counters[t] {
			return fmt.Errorf("table %d counter: recovered %d, model %d", t, got, m.counters[t])
		}
		for id := 0; id < vacation.Relations; id++ {
			got, found := o.Manager.FreeSlots(tid, t, uint64(id))
			want := m.free[[2]uint64{uint64(t), uint64(id)}]
			if !found || got != want {
				return fmt.Errorf("table %d id %d: recovered free (%d,%v), model %d", t, id, got, found, want)
			}
		}
	}
	for _, c := range SortedKeys(o.customers) {
		if got, want := o.Reservations(tid, c), len(m.resv[c]); got != want {
			return fmt.Errorf("customer %d: recovered %d reservations, model %d", c, got, want)
		}
	}
	return nil
}

func (o *vacationOracle) Check(tid int) error {
	if o.err != nil {
		return o.err
	}
	if !o.CheckTrees(tid) {
		return fmt.Errorf("red-black tree invariants violated after recovery")
	}
	if p := o.pending; p != nil {
		errBefore := o.compare(tid, p.before)
		if errBefore == nil {
			return nil
		}
		if errAfter := o.compare(tid, p.after); errAfter == nil {
			return nil
		}
		return fmt.Errorf("in-flight transaction is neither rolled back nor committed: %v", errBefore)
	}
	return o.compare(tid, o.model)
}
