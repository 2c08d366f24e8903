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

// KV is the store surface Model drives. ctree.Tree and hashstore.Map
// satisfy it as they are; redisKV and memcacheKV adapt the string stores.
type KV[K, V any] interface {
	Insert(tid int, key K, value V) error
	Get(tid int, key K) (V, bool)
	Delete(tid int, key K) (bool, error)
	Recover()
	CheckInvariants(tid int) error
}

type redisKV struct{ s *redisstore.Store }

func (r redisKV) Insert(_ int, k, v string) error      { return r.s.Set(k, v) }
func (r redisKV) Get(_ int, k string) (string, bool)   { return r.s.Get(k) }
func (r redisKV) Delete(_ int, k string) (bool, error) { return r.s.Del(k) }
func (r redisKV) Recover()                             { r.s.Recover() }
func (r redisKV) CheckInvariants(int) error            { return r.s.CheckInvariants() }

// memcacheKV: the cache already has Get, Delete, Recover and
// CheckInvariants in KV's shape; only its write is named differently.
type memcacheKV struct{ *memcache.Cache }

func (m memcacheKV) Insert(tid int, k, v string) error { return m.Set(tid, k, v) }

// OpenU64 builds the named uint64 key-value application on rt.
func OpenU64(app string, rt *persist.Runtime) KV[uint64, uint64] {
	switch app {
	case "ctree":
		return ctree.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}))
	case "hashmap":
		return hashstore.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}), 256)
	}
	panic("crashcheck: not a uint64 key-value app: " + app)
}

// OpenStr builds the named string key-value application on rt.
func OpenStr(app string, rt *persist.Runtime) KV[string, string] {
	switch app {
	case "redis":
		return redisKV{redisstore.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}), 256)}
	case "memcached":
		// maxItems far above any driven keyspace: LRU eviction never fires,
		// so the model needs no eviction mirror.
		return memcacheKV{memcache.New(rt, mnemosyne.New(rt, 1<<15, mnemosyne.Options{}), 256, 1<<20)}
	}
	panic("crashcheck: not a string key-value app: " + app)
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
// entirely or not at all, and the store's own invariants hold. The Model
// object survives the simulated crash; an operation a crash aborts never
// returns, so its before/after record is still set when Check runs.
type Model[K cmp.Ordered, V comparable] struct {
	kv      KV[K, V]
	mirror  map[K]V
	touched map[K]bool
	pending *inflight[K, V]
	err     error // first store error or read divergence; Check reports it
}

// NewModel wraps kv, which must be empty.
func NewModel[K cmp.Ordered, V comparable](kv KV[K, V]) *Model[K, V] {
	return &Model[K, V]{kv: kv, mirror: make(map[K]V), touched: make(map[K]bool)}
}

func (m *Model[K, V]) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf(format, args...)
	}
}

// Insert writes key=val through to the store and, once acknowledged, to
// the mirror.
func (m *Model[K, V]) Insert(tid int, key K, val V) {
	before, ok := m.mirror[key]
	m.touched[key] = true
	m.pending = &inflight[K, V]{key: key, before: before, beforeOk: ok, after: val, afterOk: true}
	if err := m.kv.Insert(tid, key, val); err != nil {
		m.fail("insert %v: %v", key, err)
	} else {
		m.mirror[key] = val
	}
	m.pending = nil
}

// Delete removes key from the store and, once acknowledged, from the mirror.
func (m *Model[K, V]) Delete(tid int, key K) {
	before, ok := m.mirror[key]
	m.touched[key] = true
	m.pending = &inflight[K, V]{key: key, before: before, beforeOk: ok}
	if _, err := m.kv.Delete(tid, key); err != nil {
		m.fail("delete %v: %v", key, err)
	} else {
		delete(m.mirror, key)
	}
	m.pending = nil
}

// Get reads key and holds the store to the mirror.
func (m *Model[K, V]) Get(tid int, key K) {
	m.touched[key] = true
	got, ok := m.kv.Get(tid, key)
	if want, wok := m.mirror[key]; !same(got, ok, want, wok) {
		m.fail("get %v: store (%v,%v) diverged from model (%v,%v)", key, got, ok, want, wok)
	}
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
