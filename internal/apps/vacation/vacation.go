// Package vacation reimplements Vacation from the STAMP suite as modified
// for WHISPER (§3.2.2): an OLTP travel-reservation system whose red-black
// trees and linked lists live in persistent memory via Mnemosyne durable
// transactions. The WHISPER port fixed stray non-transactional updates and
// made every PM access atomic; the global car/flight/room counters updated
// inside transactions are the paper's example source of
// cross-dependencies (§5.1).
package vacation

import (
	"encoding/binary"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Resource tables.
const (
	TableCar = iota
	TableFlight
	TableRoom
	numTables
)

// Relations is the number of resources seeded per table, and Capacity the
// free units each starts with: the suite's vacation configuration.
const (
	Relations = 512
	Capacity  = 8
)

// Resource record layout: numFree u64 | numTotal u64 | price u64.
const (
	resFree  = 0
	resTotal = 8
	resPrice = 16
	resSize  = 24
)

// Reservation list node: table u64 | id u64 | next u64.
const (
	rvTable = 0
	rvID    = 8
	rvNext  = 16
	rvSize  = 24
)

// Persistent root directory: the addresses of the four tree root words and
// the counter array, published in the heap's root table so a reopened
// process can find every structure. Before this directory existed, the
// manager's layout lived only in volatile Go fields and a crash at even a
// quiescent point lost the store.
const (
	dirTables    = 0 // numTables root-word addresses
	dirCustomers = numTables * 8
	dirCounters  = dirCustomers + 8
	dirSize      = dirCounters + 8
	rootSlot     = 4
)

// Manager is the travel-reservation system.
type Manager struct {
	rt   *persist.Runtime
	heap *mnemosyne.Heap

	tables    [numTables]*RBTree
	customers *RBTree // customer id -> reservation list head node

	// counters is a persistent array of per-table totals, the shared
	// variables that produce cross-thread WAW dependencies.
	counters mem.Addr
}

// NewManager builds the manager and seeds Relations resources per table
// with Capacity slots each.
func NewManager(rt *persist.Runtime, heap *mnemosyne.Heap) *Manager {
	m := &Manager{rt: rt, heap: heap}
	th := rt.Thread(0)
	var dir mem.Addr
	heap.Run(th, func(tx *mnemosyne.Tx) error {
		for i := range m.tables {
			m.tables[i] = NewRBTree(heap, tx)
		}
		m.customers = NewRBTree(heap, tx)
		m.counters = tx.Alloc(numTables * 8)
		// Persist the directory in the same transaction so the published
		// root is never a dangling pointer.
		dir = tx.Alloc(dirSize)
		for i := range m.tables {
			tx.WriteU64(dir+mem.Addr(dirTables+i*8), uint64(m.tables[i].RootPtr()))
		}
		tx.WriteU64(dir+dirCustomers, uint64(m.customers.RootPtr()))
		tx.WriteU64(dir+dirCounters, uint64(m.counters))
		return nil
	})
	heap.SetRoot(th, rootSlot, dir)
	// Seed resources in batched transactions (vacation's setup phase).
	const batch = 32
	for start := 0; start < Relations; start += batch {
		end := min(start+batch, Relations)
		heap.Run(th, func(tx *mnemosyne.Tx) error {
			for id := start; id < end; id++ {
				for tbl := range m.tables {
					rec := tx.Alloc(resSize)
					var buf [resSize]byte
					binary.LittleEndian.PutUint64(buf[resFree:], Capacity)
					binary.LittleEndian.PutUint64(buf[resTotal:], Capacity)
					binary.LittleEndian.PutUint64(buf[resPrice:], 100+uint64(id%400))
					tx.Write(rec, buf[:])
					m.tables[tbl].Insert(tx, uint64(id), uint64(rec))
				}
			}
			for tbl := 0; tbl < numTables; tbl++ {
				tx.WriteU64(m.counters+mem.Addr(tbl*8), uint64(end)*Capacity)
			}
			return nil
		})
	}
	return m
}

// AttachManager reopens a manager over an existing heap purely from
// persistent state: the root directory published in the heap's root table
// supplies the tree root words and the counter array.
func AttachManager(rt *persist.Runtime, heap *mnemosyne.Heap) *Manager {
	th := rt.Thread(0)
	dir := heap.Root(th, rootSlot)
	m := &Manager{rt: rt, heap: heap}
	for i := range m.tables {
		m.tables[i] = AttachRBTree(heap, mem.Addr(th.LoadU64(dir+mem.Addr(dirTables+i*8))))
	}
	m.customers = AttachRBTree(heap, mem.Addr(th.LoadU64(dir+dirCustomers)))
	m.counters = mem.Addr(th.LoadU64(dir + dirCounters))
	return m
}

// Recover brings the manager back after a crash: the heap replays its
// committed redo logs and rebuilds the allocator, then every structure is
// re-attached from the persistent root directory (discarding the volatile
// pointers, which may predate the crash).
func (m *Manager) Recover() {
	th := m.rt.Thread(0)
	m.heap.Recover(th)
	*m = *AttachManager(m.rt, m.heap)
}

// Reserve books one unit of (table, id) for customer in a durable
// transaction. Returns false when sold out or unknown.
func (m *Manager) Reserve(tid int, customer uint64, table int, id uint64) (bool, error) {
	th := m.rt.Thread(tid)
	ok := false
	err := m.heap.Run(th, func(tx *mnemosyne.Tx) error {
		rec, found := m.tables[table].Lookup(tx, id)
		th.VLoad(4)
		if !found {
			return nil
		}
		free := tx.ReadU64(mem.Addr(rec) + resFree)
		if free == 0 {
			return nil
		}
		tx.WriteU64(mem.Addr(rec)+resFree, free-1)

		// Append the reservation to the customer's list (allocate the
		// customer node on first use).
		head, _ := m.customers.Lookup(tx, customer)
		rv := tx.Alloc(rvSize)
		var buf [rvSize]byte
		binary.LittleEndian.PutUint64(buf[rvTable:], uint64(table))
		binary.LittleEndian.PutUint64(buf[rvID:], id)
		binary.LittleEndian.PutUint64(buf[rvNext:], head)
		tx.Write(rv, buf[:])
		m.customers.Insert(tx, customer, uint64(rv))

		// The global counter update: the cross-dependency generator.
		cnt := m.counters + mem.Addr(table*8)
		tx.WriteU64(cnt, tx.ReadU64(cnt)-1)
		th.UserData(rvSize + 8)
		ok = true
		return nil
	})
	return ok, err
}

// Cancel releases the customer's most recent reservation in table.
func (m *Manager) Cancel(tid int, customer uint64, table int) (bool, error) {
	th := m.rt.Thread(tid)
	ok := false
	err := m.heap.Run(th, func(tx *mnemosyne.Tx) error {
		head, found := m.customers.Lookup(tx, customer)
		if !found || head == 0 {
			return nil
		}
		// Find the first reservation in this table.
		prevPtr := mem.Addr(0)
		rv := mem.Addr(head)
		for rv != 0 {
			if tx.ReadU64(rv+rvTable) == uint64(table) {
				break
			}
			prevPtr = rv + rvNext
			rv = mem.Addr(tx.ReadU64(rv + rvNext))
		}
		if rv == 0 {
			return nil
		}
		next := tx.ReadU64(rv + rvNext)
		if prevPtr == 0 {
			m.customers.Insert(tx, customer, next)
		} else {
			tx.WriteU64(prevPtr, next)
		}
		id := tx.ReadU64(rv + rvID)
		if rec, found := m.tables[table].Lookup(tx, id); found {
			free := mem.Addr(rec) + resFree
			tx.WriteU64(free, tx.ReadU64(free)+1)
		}
		cnt := m.counters + mem.Addr(table*8)
		tx.WriteU64(cnt, tx.ReadU64(cnt)+1)
		ok = true
		return nil
	})
	return ok, err
}

// AddInventory grows (or shrinks) the capacity of (table, id).
func (m *Manager) AddInventory(tid int, table int, id, delta uint64) error {
	th := m.rt.Thread(tid)
	return m.heap.Run(th, func(tx *mnemosyne.Tx) error {
		rec, found := m.tables[table].Lookup(tx, id)
		if !found {
			return nil
		}
		free := mem.Addr(rec) + resFree
		total := mem.Addr(rec) + resTotal
		tx.WriteU64(free, tx.ReadU64(free)+delta)
		tx.WriteU64(total, tx.ReadU64(total)+delta)
		cnt := m.counters + mem.Addr(table*8)
		tx.WriteU64(cnt, tx.ReadU64(cnt)+delta)
		return nil
	})
}

// Counter returns the persistent global counter of table.
func (m *Manager) Counter(tid int, table int) uint64 {
	return m.rt.Thread(tid).LoadU64(m.counters + mem.Addr(table*8))
}

// FreeSlots returns the free units for (table, id).
func (m *Manager) FreeSlots(tid int, table int, id uint64) (uint64, bool) {
	th := m.rt.Thread(tid)
	var out uint64
	found := false
	m.heap.Run(th, func(tx *mnemosyne.Tx) error {
		if rec, ok := m.tables[table].Lookup(tx, id); ok {
			out = tx.ReadU64(mem.Addr(rec) + resFree)
			found = true
		}
		return nil
	})
	return out, found
}

// Reservations returns how many reservations customer holds.
func (m *Manager) Reservations(tid int, customer uint64) int {
	th := m.rt.Thread(tid)
	n := 0
	m.heap.Run(th, func(tx *mnemosyne.Tx) error {
		head, found := m.customers.Lookup(tx, customer)
		if !found {
			return nil
		}
		rv := mem.Addr(head)
		for rv != 0 {
			n++
			rv = mem.Addr(tx.ReadU64(rv + rvNext))
		}
		return nil
	})
	return n
}

// CheckTrees validates the red-black invariants of every table. Test
// helper.
func (m *Manager) CheckTrees(tid int) bool {
	th := m.rt.Thread(tid)
	ok := true
	m.heap.Run(th, func(tx *mnemosyne.Tx) error {
		for _, t := range m.tables {
			if !t.CheckInvariants(tx) {
				ok = false
			}
		}
		if !m.customers.CheckInvariants(tx) {
			ok = false
		}
		return nil
	})
	return ok
}

// Store is the method set the vacation workload drives: a *Manager, or an
// oracle wrapping one and forwarding every call unchanged.
type Store interface {
	FreeSlots(tid int, table int, id uint64) (uint64, bool)
	Reserve(tid int, customer uint64, table int, id uint64) (bool, error)
	Cancel(tid int, customer uint64, table int) (bool, error)
	AddInventory(tid int, table int, id, delta uint64) error
}

// Workload is the vacation client mix over Relations tuples per table.
type Workload struct {
	rt   *persist.Runtime
	m    Store
	gens []*workload.Vacation
}

// Setup prepares clients' transaction generators over m.
func Setup(rt *persist.Runtime, m Store, clients int, seed int64) *Workload {
	w := &Workload{rt: rt, m: m}
	for c := 0; c < clients; c++ {
		w.gens = append(w.gens, workload.NewVacation(seed+int64(c), 256, Relations))
	}
	return w
}

// Op runs client tid's i-th transaction.
func (w *Workload) Op(tid, i int) {
	switch t := w.gens[tid].Next(); t.Kind {
	case workload.VacationReserve:
		// STAMP's MAKE_RESERVATION queries candidates first, then books
		// the chosen one; the queries are read-only transactions.
		for _, obj := range t.Objects {
			w.m.FreeSlots(tid, t.Table, uint64(obj))
		}
		w.m.Reserve(tid, uint64(t.Customer), t.Table, uint64(t.Objects[0]))
	case workload.VacationCancel:
		w.m.Cancel(tid, uint64(t.Customer), t.Table)
	case workload.VacationUpdate:
		w.m.AddInventory(tid, t.Table, uint64(t.Objects[0]), 2)
	}
	th := w.rt.Thread(tid)
	th.Compute(10000)
	// STM bookkeeping, client tables, itinerary building: vacation
	// touches PM for only ~0.36% of its accesses (Figure 6).
	th.VLoad(140000)
	th.VStore(46000)
}
