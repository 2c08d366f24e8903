package scenario

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/whisper-pm/whisper/internal/apps/ctree"
	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/apps/memcache"
	"github.com/whisper-pm/whisper/internal/apps/redisstore"
	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
)

// op is one generated operation, already resolved to a key and value.
type op struct {
	kind  int // opRead, opWrite, opDel
	key   uint64
	val   uint64
	vlen  int
	think int
}

const (
	opRead = iota
	opWrite
	opDel
)

// target is one tenant's store plus its volatile oracle. Every operation
// completes (durably acknowledges) before apply returns, so the oracle is
// exact at crash boundaries — the engine checks it after every recovery.
type target interface {
	label() string
	apply(o op)
	recoverState()
	check() error
	// crashed tells the target its persistence domain just power-failed
	// (unacknowledged service batches are gone).
	crashed()
	counts() (reads, writes, deletes uint64)
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// base carries the bookkeeping all targets share.
type base struct {
	name    string
	reads   uint64
	writes  uint64
	deletes uint64
	failure error
}

func (b *base) label() string { return b.name }
func (b *base) counts() (uint64, uint64, uint64) {
	return b.reads, b.writes, b.deletes
}
func (b *base) fail(format string, args ...any) {
	if b.failure == nil {
		b.failure = fmt.Errorf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// uint64 key-value tenants: ctree and hashmap on the shared runtime.

// u64KV is the surface ctree.Tree and hashstore.Map share.
type u64KV interface {
	Insert(tid int, key, value uint64) error
	Get(tid int, key uint64) (uint64, bool)
	Delete(tid int, key uint64) (bool, error)
	Recover()
	CheckInvariants(tid int) error
}

type u64Target struct {
	base
	kv      u64KV
	tid     int
	model   map[uint64]uint64
	touched map[uint64]bool
}

func newU64Target(name, app string, rt *persist.Runtime, tid int) *u64Target {
	var kv u64KV
	switch app {
	case "ctree":
		kv = ctree.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}))
	case "hashmap":
		kv = hashstore.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}), 256)
	default:
		panic("scenario: not a u64 app: " + app)
	}
	return &u64Target{
		base:    base{name: name},
		kv:      kv,
		tid:     tid,
		model:   make(map[uint64]uint64),
		touched: make(map[uint64]bool),
	}
}

func (t *u64Target) apply(o op) {
	key := o.key + 1 // stores treat key/value 0 as ambiguous; keep both nonzero
	val := o.val%1_000_000 + 1
	t.touched[key] = true
	switch o.kind {
	case opWrite:
		t.writes++
		if err := t.kv.Insert(t.tid, key, val); err != nil {
			t.fail("insert %d: %v", key, err)
			return
		}
		t.model[key] = val
	case opDel:
		t.deletes++
		if _, err := t.kv.Delete(t.tid, key); err != nil {
			t.fail("delete %d: %v", key, err)
			return
		}
		delete(t.model, key)
	default:
		t.reads++
		got, ok := t.kv.Get(t.tid, key)
		want, wok := t.model[key]
		if ok != wok || (ok && got != want) {
			t.fail("get %d: store (%d,%v) diverged from model (%d,%v)", key, got, ok, want, wok)
		}
	}
}

func (t *u64Target) recoverState() { t.kv.Recover() }
func (t *u64Target) crashed()      {}

func (t *u64Target) check() error {
	if t.failure != nil {
		return t.failure
	}
	if err := t.kv.CheckInvariants(t.tid); err != nil {
		return err
	}
	for _, key := range sortedKeys(t.touched) {
		got, ok := t.kv.Get(t.tid, key)
		want, wok := t.model[key]
		if ok != wok || (ok && got != want) {
			return fmt.Errorf("key %d: recovered (%d,%v), model (%d,%v)", key, got, ok, want, wok)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// string key-value tenants: redis (NVML) and memcached (Mnemosyne).

type strKV interface {
	set(tid int, key, val string) error
	get(tid int, key string) (string, bool)
	del(tid int, key string) (bool, error)
	recover()
	check() error
}

type redisKV struct{ s *redisstore.Store }

func (r redisKV) set(_ int, k, v string) error       { return r.s.Set(k, v) }
func (r redisKV) get(_ int, k string) (string, bool) { return r.s.Get(k) }
func (r redisKV) del(_ int, k string) (bool, error)  { return r.s.Del(k) }
func (r redisKV) recover()                           { r.s.Recover() }
func (r redisKV) check() error                       { return r.s.CheckInvariants() }

type memcacheKV struct{ c *memcache.Cache }

func (m memcacheKV) set(tid int, k, v string) error       { return m.c.Set(tid, k, v) }
func (m memcacheKV) get(tid int, k string) (string, bool) { return m.c.Get(tid, k) }
func (m memcacheKV) del(tid int, k string) (bool, error)  { return m.c.Delete(tid, k) }
func (m memcacheKV) recover()                             { m.c.Recover() }
func (m memcacheKV) check() error                         { return m.c.CheckInvariants(0) }

type strTarget struct {
	base
	kv      strKV
	tid     int
	model   map[string]string
	touched map[string]bool
}

func newStrTarget(name, app string, rt *persist.Runtime, tid int) *strTarget {
	var kv strKV
	switch app {
	case "redis":
		kv = redisKV{redisstore.New(rt, nvml.Open(rt, 1<<15, nvml.Options{}), 256)}
	case "memcached":
		// maxItems far above any scenario keyspace: LRU eviction never
		// fires, so the oracle needs no eviction mirror.
		kv = memcacheKV{memcache.New(rt, mnemosyne.New(rt, 1<<15, mnemosyne.Options{}), 256, 1<<20)}
	default:
		panic("scenario: not a string app: " + app)
	}
	return &strTarget{
		base:    base{name: name},
		kv:      kv,
		tid:     tid,
		model:   make(map[string]string),
		touched: make(map[string]bool),
	}
}

func scenarioKey(k uint64) string { return fmt.Sprintf("k%06d", k) }

// scenarioVal builds a deterministic value of exactly vlen bytes.
func scenarioVal(o op) string {
	v := fmt.Sprintf("v%d-%d", o.key, o.val)
	for len(v) < o.vlen {
		v += "."
	}
	return v[:max(1, o.vlen)]
}

func (t *strTarget) apply(o op) {
	key := scenarioKey(o.key)
	t.touched[key] = true
	switch o.kind {
	case opWrite:
		t.writes++
		if err := t.kv.set(t.tid, key, scenarioVal(o)); err != nil {
			t.fail("set %s: %v", key, err)
			return
		}
		t.model[key] = scenarioVal(o)
	case opDel:
		t.deletes++
		if _, err := t.kv.del(t.tid, key); err != nil {
			t.fail("del %s: %v", key, err)
			return
		}
		delete(t.model, key)
	default:
		t.reads++
		got, ok := t.kv.get(t.tid, key)
		want, wok := t.model[key]
		if ok != wok || (ok && got != want) {
			t.fail("get %s: store (%q,%v) diverged from model (%q,%v)", key, got, ok, want, wok)
		}
	}
}

func (t *strTarget) recoverState() { t.kv.recover() }
func (t *strTarget) crashed()      {}

func (t *strTarget) check() error {
	if t.failure != nil {
		return t.failure
	}
	if err := t.kv.check(); err != nil {
		return err
	}
	for _, key := range sortedKeys(t.touched) {
		got, ok := t.kv.get(t.tid, key)
		want, wok := t.model[key]
		if ok != wok || (ok && got != want) {
			return fmt.Errorf("key %s: recovered (%q,%v), model (%q,%v)", key, got, ok, want, wok)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// kvservice tenant: a sharded service with its own persistence domains.

type kvPair struct {
	k, v string
	del  bool
}

// svcTarget mirrors the service's group-commit batching: a put or delete
// is only promoted into the committed oracle when its shard's batch
// commits, and a crash throws away whatever was still pending — exactly
// the service's durability contract. Reads see pending writes
// (read-your-batch, with pending deletes reading as misses), so the
// oracle tracks both layers.
type svcTarget struct {
	base
	svc       *kvservice.Service
	batch     int
	committed map[string]string
	pending   [][]kvPair
	touched   map[string]bool
}

func newSvcTarget(name string, t Tenant, reg *obs.Registry) *svcTarget {
	svc := kvservice.New(kvservice.Config{
		Shards:   t.Shards,
		Batch:    t.Batch,
		SegBytes: t.SegBytes,
		Metrics:  reg,
	})
	return &svcTarget{
		base:      base{name: name},
		svc:       svc,
		batch:     t.Batch,
		committed: make(map[string]string),
		pending:   make([][]kvPair, t.Shards),
		touched:   make(map[string]bool),
	}
}

// lookup resolves the newest oracle value: last pending write in the
// key's shard wins over the committed layer.
func (t *svcTarget) lookup(key string) (string, bool) {
	sh := t.svc.ShardFor(key)
	for i := len(t.pending[sh]) - 1; i >= 0; i-- {
		if p := t.pending[sh][i]; p.k == key {
			if p.del {
				return "", false
			}
			return p.v, true
		}
	}
	v, ok := t.committed[key]
	return v, ok
}

func (t *svcTarget) apply(o op) {
	key := scenarioKey(o.key)
	t.touched[key] = true
	if o.kind == opRead {
		t.reads++
		got, ok := t.svc.Get(key)
		want, wok := t.lookup(key)
		if ok != wok || (ok && string(got) != want) {
			t.fail("get %s: service (%q,%v) diverged from model (%q,%v)", key, got, ok, want, wok)
		}
		return
	}
	sh := t.svc.ShardFor(key)
	if o.kind == opDel {
		t.deletes++
		t.svc.Delete(key)
		t.pending[sh] = append(t.pending[sh], kvPair{k: key, del: true})
	} else {
		t.writes++
		val := scenarioVal(o)
		if err := t.svc.Put(key, []byte(val)); err != nil {
			t.fail("put %s: %v", key, err)
			return
		}
		t.pending[sh] = append(t.pending[sh], kvPair{k: key, v: val})
	}
	if len(t.pending[sh]) >= t.batch {
		t.commitShard(sh)
	}
}

// commitShard promotes shard sh's mirrored batch into the committed layer.
func (t *svcTarget) commitShard(sh int) {
	for _, p := range t.pending[sh] {
		if p.del {
			delete(t.committed, p.k)
		} else {
			t.committed[p.k] = p.v
		}
	}
	t.pending[sh] = t.pending[sh][:0]
}

// pendingShard returns the lowest shard index with a pending batch and
// its size, or (-1, 0) when every batch is empty.
func (t *svcTarget) pendingShard() (int, int) {
	for sh, p := range t.pending {
		if len(p) > 0 {
			return sh, len(p)
		}
	}
	return -1, 0
}

func (t *svcTarget) recoverState() {} // svc.Crash already reopened the shards

func (t *svcTarget) crashed() {
	for sh := range t.pending {
		t.pending[sh] = t.pending[sh][:0]
	}
}

func (t *svcTarget) check() error {
	if t.failure != nil {
		return t.failure
	}
	for _, key := range sortedKeys(t.touched) {
		got, ok := t.svc.Get(key)
		want, wok := t.lookup(key)
		if ok != wok || (ok && string(got) != want) {
			return fmt.Errorf("key %s: recovered (%q,%v), model (%q,%v)", key, got, ok, want, wok)
		}
	}
	return nil
}

// compute charges think cycles to a tenant's clock domain.
func computeOn(th *persist.Thread, c int) {
	if c > 0 {
		th.Compute(mem.Cycles(c))
	}
}
