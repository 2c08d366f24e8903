package crashcheck

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/whisper-pm/whisper/internal/apps/ctree"
	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/apps/memcache"
	"github.com/whisper-pm/whisper/internal/apps/redisstore"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/workload"
)

// SortedKeys returns m's keys in ascending order. Oracle loops that report
// the FIRST mismatching key must walk the key space in a fixed order — a
// bare Go map range would make the violation message (and hence the
// checker's output) depend on map iteration order.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// KV is the store surface Model wraps: the key-value workloads' method set,
// plus recovery and the store's own invariants. ctree.Tree, hashstore.Map,
// redisstore.Store and memcache.Cache satisfy it as they are.
type KV[K, V any] interface {
	workload.KV[K, V]
	Recover()
	CheckInvariants(tid int) error
}

// OpenU64 builds the named uint64 key-value application on rt.
func OpenU64(app string, rt *persist.Runtime) KV[uint64, uint64] {
	switch app {
	case "ctree":
		return ctree.New(rt, nvml.Open(rt, poolBlocks, nvml.Options{}))
	case "hashmap":
		return hashstore.New(rt, nvml.Open(rt, poolBlocks, nvml.Options{}), 256)
	}
	panic("crashcheck: not a uint64 key-value app: " + app)
}

// OpenStr builds the named string key-value application on rt.
func OpenStr(app string, rt *persist.Runtime) KV[string, string] {
	switch app {
	case "redis":
		return redisstore.New(rt, nvml.Open(rt, poolBlocks, nvml.Options{}), 256)
	case "memcached":
		// maxItems far above any driven keyspace: LRU eviction never fires,
		// so the model needs no eviction mirror.
		return memcache.New(rt, mnemosyne.New(rt, poolBlocks, mnemosyne.Options{}), 256, 1<<20)
	}
	panic("crashcheck: not a string key-value app: " + app)
}

// firstErr keeps the first disagreement between a store and its oracle
// seen during the run; the oracle's Check reports it.
type firstErr struct{ err error }

func (f *firstErr) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

// inflight is the operation executing when a crash stopped the world: its
// key may recover to the before or the after state, atomically.
type inflight[K, V any] struct {
	key               K
	before, after     V
	beforeOk, afterOk bool
}

// Model is the volatile oracle of a key-value store, and the single
// definition of a legal recovered state: every acknowledged insert and
// delete is visible, the one operation in flight at the crash is present
// entirely or not at all, and the store's own invariants hold. It has the
// store's workload.KV method set and forwards each call unchanged. The
// Model survives the simulated crash; an operation a crash aborts never
// returns, so its before/after record is still set when Check runs.
type Model[K cmp.Ordered, V comparable] struct {
	kv       KV[K, V]
	mirror   map[K]V
	touched  map[K]bool
	pending  *inflight[K, V]
	firstErr // first store error or read divergence
}

// NewModel wraps kv, which must be empty.
func NewModel[K cmp.Ordered, V comparable](kv KV[K, V]) *Model[K, V] {
	return &Model[K, V]{kv: kv, mirror: make(map[K]V), touched: make(map[K]bool)}
}

// Insert writes key=val through to the store and, once acknowledged, to
// the mirror.
func (m *Model[K, V]) Insert(tid int, key K, val V) error {
	before, ok := m.mirror[key]
	m.touched[key] = true
	m.pending = &inflight[K, V]{key: key, before: before, beforeOk: ok, after: val, afterOk: true}
	err := m.kv.Insert(tid, key, val)
	if err != nil {
		m.fail("insert %v: %v", key, err)
	} else {
		m.mirror[key] = val
	}
	m.pending = nil
	return err
}

// Delete removes key from the store and, once acknowledged, from the mirror.
func (m *Model[K, V]) Delete(tid int, key K) (bool, error) {
	before, ok := m.mirror[key]
	m.touched[key] = true
	m.pending = &inflight[K, V]{key: key, before: before, beforeOk: ok}
	found, err := m.kv.Delete(tid, key)
	if err != nil {
		m.fail("delete %v: %v", key, err)
	} else {
		delete(m.mirror, key)
	}
	m.pending = nil
	return found, err
}

// Get reads key and holds the store to the mirror.
func (m *Model[K, V]) Get(tid int, key K) (V, bool) {
	m.touched[key] = true
	got, ok := m.kv.Get(tid, key)
	if want, wok := m.mirror[key]; !same(got, ok, want, wok) {
		m.fail("get %v: store (%v,%v) diverged from model (%v,%v)", key, got, ok, want, wok)
	}
	return got, ok
}

// same reports whether two (value, present) lookups agree.
func same[V comparable](got V, ok bool, want V, wok bool) bool {
	return ok == wok && (!ok || got == want)
}

// Recover reboots the store from the durable image.
func (m *Model[K, V]) Recover() { m.kv.Recover() }

// Check reads every touched key back as thread tid, in ascending order so
// the first mismatch named is always the lowest key.
func (m *Model[K, V]) Check(tid int) error {
	if m.err != nil {
		return m.err
	}
	if err := m.kv.CheckInvariants(tid); err != nil {
		return err
	}
	for _, key := range SortedKeys(m.touched) {
		got, ok := m.kv.Get(tid, key)
		if p := m.pending; p != nil && p.key == key {
			if !same(got, ok, p.before, p.beforeOk) && !same(got, ok, p.after, p.afterOk) {
				return fmt.Errorf("in-flight key %v: (%v,%v) is neither before (%v,%v) nor after (%v,%v)",
					key, got, ok, p.before, p.beforeOk, p.after, p.afterOk)
			}
			continue
		}
		if want, wok := m.mirror[key]; !same(got, ok, want, wok) {
			return fmt.Errorf("key %v: recovered (%v,%v), model (%v,%v)", key, got, ok, want, wok)
		}
	}
	return nil
}
