package scenario

import (
	"cmp"
	"fmt"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/kvservice"
	"github.com/whisper-pm/whisper/internal/mem"
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
// app tenants: ctree, hashmap, redis and memcached on the shared runtime.

// appTarget drives one crashcheck.Model — the store, its mirror and the
// definition of a legal recovered state all live there. The tenant only
// counts ops and renders the engine's numeric keys and values.
type appTarget[K cmp.Ordered, V comparable] struct {
	base
	m   *crashcheck.Model[K, V]
	tid int
	key func(o op) K
	val func(o op) V
}

func newU64Target(name, app string, rt *persist.Runtime, tid int) target {
	// The stores treat key/value 0 as ambiguous; keep both nonzero.
	return &appTarget[uint64, uint64]{
		base: base{name: name}, m: crashcheck.NewModel(crashcheck.OpenU64(app, rt)), tid: tid,
		key: func(o op) uint64 { return o.key + 1 },
		val: func(o op) uint64 { return o.val%1_000_000 + 1 },
	}
}

func newStrTarget(name, app string, rt *persist.Runtime, tid int) target {
	return &appTarget[string, string]{
		base: base{name: name}, m: crashcheck.NewModel(crashcheck.OpenStr(app, rt)), tid: tid,
		key: func(o op) string { return scenarioKey(o.key) },
		val: scenarioVal,
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

func (t *appTarget[K, V]) apply(o op) {
	switch o.kind {
	case opWrite:
		t.writes++
		t.m.Insert(t.tid, t.key(o), t.val(o))
	case opDel:
		t.deletes++
		t.m.Delete(t.tid, t.key(o))
	default:
		t.reads++
		t.m.Get(t.tid, t.key(o))
	}
}

func (t *appTarget[K, V]) recoverState() { t.m.Recover() }
func (t *appTarget[K, V]) crashed()      {}
func (t *appTarget[K, V]) check() error  { return t.m.Check(t.tid) }

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
		Record:   true, // engine.analyze reads the merged trace
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
	for _, key := range crashcheck.SortedKeys(t.touched) {
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
