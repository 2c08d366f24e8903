// Package prims is the PM-primitives microsuite: the four canonical
// update primitives — in-place flush, copy-on-write publish, log append,
// and PMwCAS-style CAS-publish — implemented directly on pmem.Device /
// persist.Runtime and benchmarked under identical scenario traffic. Each
// app's fence/flush/epoch profile can then be decomposed into these
// primitive costs ("Data Structure Primitives on Persistent Memory"; MOD's
// ordering-point counting): the suite reports fences, flushes, NT stores,
// persisted lines, bytes, and simulated ns per op for every primitive
// under the exact same key/value stream.
package prims

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/whisper-pm/whisper/internal/crashcheck"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/obs"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Config tunes the microsuite. Every primitive sees the identical
// operation stream: same seed, same skew, same slots and payload.
type Config struct {
	Ops     int     // updates per primitive (default 2000)
	Slots   uint64  // distinct update targets (default 256)
	Payload int     // payload bytes per update (default 64)
	Zipf    float64 // key skew (default 1.1)
	Seed    int64
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if c.Slots == 0 {
		c.Slots = 256
	}
	if c.Payload < 8 {
		c.Payload = 64
	}
	c.Payload = (c.Payload + 7) &^ 7 // whole words: PMwCAS updates word sets
	if c.Zipf == 0 {
		c.Zipf = 1.1
	}
	return c
}

// Row is one primitive's cost decomposition under the shared traffic.
type Row struct {
	Primitive     string  `json:"primitive"`
	Ops           int     `json:"ops"`
	FencesPerOp   float64 `json:"fences_per_op"`
	FlushesPerOp  float64 `json:"flushes_per_op"`
	NTStoresPerOp float64 `json:"nt_stores_per_op"`
	LinesPerOp    float64 `json:"lines_persisted_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	SimNsPerOp    float64 `json:"sim_ns_per_op"`
}

// primitive is one durable update discipline over fixed slots.
type primitive interface {
	init(rt *persist.Runtime, cfg Config)
	update(slot, val uint64)
	read(slot uint64) (uint64, bool)
	recoverState()
}

// Names lists the primitive classes in suite order.
func Names() []string {
	return []string{"inplace-flush", "cow-publish", "log-append", "pmwcas"}
}

func newPrimitive(name string) primitive {
	switch name {
	case "inplace-flush":
		return &inplace{}
	case "cow-publish":
		return &cow{}
	case "log-append":
		return &logAppend{}
	case "pmwcas":
		return &pmwcas{}
	}
	panic("prims: unknown primitive " + name)
}

// payload builds the deterministic update image: val in the first word,
// mixed filler after it.
func payload(buf []byte, slot, val uint64) {
	binary.LittleEndian.PutUint64(buf, val)
	for i := 8; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], val^(slot*0x9e3779b97f4a7c15)+uint64(i))
	}
}

// lineAligned rounds payload up to whole cache lines so slots never share
// a line and flush counts decompose cleanly.
func lineAligned(n int) int {
	return (n + int(mem.LineSize) - 1) &^ (int(mem.LineSize) - 1)
}

// RunSuite benchmarks every primitive under the shared traffic, verifies
// each against a volatile model through a strict crash+recovery, and
// returns the decomposition rows in suite order.
func RunSuite(cfg Config) ([]Row, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	rows := make([]Row, 0, len(Names()))
	for _, name := range Names() {
		row, err := runOne(name, cfg, reg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runOne(name string, cfg Config, reg *obs.Registry) (Row, error) {
	rt := persist.NewRuntime("prims", "native", 1, persist.Config{
		Metrics:  reg,
		Instance: name,
		NoTrace:  true, // the rows come from device stats and the clock
	})
	p := newPrimitive(name)
	p.init(rt, cfg)

	// Identical traffic per primitive: the generator stack is re-seeded
	// from cfg.Seed for each one.
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := workload.NewZipf(rng, cfg.Zipf, cfg.Slots)
	model := make(map[uint64]uint64, cfg.Slots)

	rt.Dev.ResetStats()
	t0 := rt.Clock.Now()
	for i := 0; i < cfg.Ops; i++ {
		slot := gen.Next()
		val := rng.Uint64() | 1 // nonzero: zero means "never written"
		p.update(slot, val)
		model[slot] = val
	}
	st := rt.Dev.Stats()
	dt := rt.Clock.Now() - t0

	per := func(v uint64) float64 {
		return math.Round(10000*float64(v)/float64(cfg.Ops)) / 10000
	}
	row := Row{
		Primitive:     name,
		Ops:           cfg.Ops,
		FencesPerOp:   per(st.Fences),
		FlushesPerOp:  per(st.Flushes),
		NTStoresPerOp: per(st.NTStores),
		LinesPerOp:    per(st.LinesPersist),
		BytesPerOp:    per(st.BytesStored),
		SimNsPerOp:    per(uint64(dt)),
	}

	// Every acknowledged update must survive a strict crash: recover and
	// sweep the model, lowest slot first so the mismatch named is fixed.
	rt.Crash(pmem.Strict, cfg.Seed)
	p.recoverState()
	for _, slot := range crashcheck.SortedKeys(model) {
		want := model[slot]
		got, ok := p.read(slot)
		if !ok || got != want {
			return Row{}, fmt.Errorf("prims %s: slot %d recovered (%d,%v), model %d", name, slot, got, ok, want)
		}
	}
	return row, nil
}

// Artifact is the committed decomposition table (BENCH_pm_primitives.json).
type Artifact struct {
	Ops     int     `json:"ops"`
	Slots   uint64  `json:"slots"`
	Payload int     `json:"payload_bytes"`
	Zipf    float64 `json:"zipf"`
	Seed    int64   `json:"seed"`
	Rows    []Row   `json:"rows"`
}

// WriteJSON renders the suite result in the committed artifact format.
// The suite is deterministic, so the bytes reproduce on any machine.
func WriteJSON(w io.Writer, cfg Config, rows []Row) error {
	cfg = cfg.withDefaults()
	a := Artifact{Ops: cfg.Ops, Slots: cfg.Slots, Payload: cfg.Payload, Zipf: cfg.Zipf, Seed: cfg.Seed, Rows: rows}
	buf, err := json.MarshalIndent(&a, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ---------------------------------------------------------------------------
// in-place flush: store the payload over the old value, flush, fence.
// One ordering point per update; not atomic beyond one word — the
// cheapest primitive and the weakest contract.

type inplace struct {
	th     *persist.Thread
	base   mem.Addr
	stride int
	size   int
	buf    []byte
}

func (p *inplace) init(rt *persist.Runtime, cfg Config) {
	p.th = rt.Thread(0)
	p.stride = lineAligned(cfg.Payload)
	p.size = cfg.Payload
	p.base = rt.Dev.Map(int(cfg.Slots) * p.stride)
	p.buf = make([]byte, cfg.Payload)
}

func (p *inplace) addr(slot uint64) mem.Addr {
	return p.base + mem.Addr(slot)*mem.Addr(p.stride)
}

func (p *inplace) update(slot, val uint64) {
	payload(p.buf, slot, val)
	a := p.addr(slot)
	p.th.Store(a, p.buf)
	p.th.FlushFence(a, p.size)
}

func (p *inplace) read(slot uint64) (uint64, bool) {
	v := p.th.LoadU64(p.addr(slot))
	return v, v != 0
}

func (p *inplace) recoverState() {}

// ---------------------------------------------------------------------------
// copy-on-write publish: write a fresh copy, flush+fence it, then publish
// an 8-byte pointer with its own flush+fence. Two ordering points; the
// pointer swing makes arbitrarily large updates atomic.

type cow struct {
	th      *persist.Thread
	rt      *persist.Runtime
	ptrBase mem.Addr
	size    int
	stride  int
	buf     []byte
}

func (p *cow) init(rt *persist.Runtime, cfg Config) {
	p.th = rt.Thread(0)
	p.rt = rt
	p.size = cfg.Payload
	p.stride = lineAligned(cfg.Payload)
	p.ptrBase = rt.Dev.Map(int(cfg.Slots) * 8)
	p.buf = make([]byte, cfg.Payload)
}

func (p *cow) update(slot, val uint64) {
	payload(p.buf, slot, val)
	copyAddr := p.rt.Dev.Map(p.stride)
	p.th.Store(copyAddr, p.buf)
	p.th.FlushFence(copyAddr, p.size)
	ptr := p.ptrBase + mem.Addr(slot*8)
	p.th.StoreU64(ptr, uint64(copyAddr))
	p.th.FlushFence(ptr, 8)
}

func (p *cow) read(slot uint64) (uint64, bool) {
	a := p.th.LoadU64(p.ptrBase + mem.Addr(slot*8))
	if a == 0 {
		return 0, false
	}
	return p.th.LoadU64(mem.Addr(a)), true
}

func (p *cow) recoverState() {} // the pointer table is the root; nothing to rebuild

// ---------------------------------------------------------------------------
// log append: append [slot][val][payload] records, flush+fence the record,
// then publish a durable head with its own flush+fence. Two ordering
// points plus header amplification; recovery replays the log up to the
// head, so torn tails past it are invisible.

const logRecHeader = 16 // slot u64, payload length u64

type logAppend struct {
	th       *persist.Thread
	logBase  mem.Addr
	headAddr mem.Addr
	head     uint64
	size     int
	index    map[uint64]mem.Addr
	buf      []byte
}

func (p *logAppend) init(rt *persist.Runtime, cfg Config) {
	p.th = rt.Thread(0)
	p.size = cfg.Payload
	p.headAddr = rt.Dev.Map(int(mem.LineSize))
	p.logBase = rt.Dev.Map(cfg.Ops*(logRecHeader+cfg.Payload) + int(mem.LineSize))
	p.index = make(map[uint64]mem.Addr, cfg.Slots)
	p.buf = make([]byte, logRecHeader+cfg.Payload)
	p.th.StoreU64(p.headAddr, 0)
	p.th.FlushFence(p.headAddr, 8)
}

func (p *logAppend) update(slot, val uint64) {
	binary.LittleEndian.PutUint64(p.buf, slot)
	binary.LittleEndian.PutUint64(p.buf[8:], uint64(p.size))
	payload(p.buf[logRecHeader:], slot, val)
	rec := p.logBase + mem.Addr(p.head)
	p.th.Store(rec, p.buf)
	p.th.FlushFence(rec, len(p.buf))
	p.head += uint64(len(p.buf))
	p.th.StoreU64(p.headAddr, p.head)
	p.th.FlushFence(p.headAddr, 8)
	p.index[slot] = rec + logRecHeader
}

func (p *logAppend) read(slot uint64) (uint64, bool) {
	a, ok := p.index[slot]
	if !ok {
		return 0, false
	}
	return p.th.LoadU64(a), true
}

// recoverState rebuilds the index by replaying the log up to the durable
// head.
func (p *logAppend) recoverState() {
	p.head = p.th.LoadU64(p.headAddr)
	p.index = make(map[uint64]mem.Addr)
	for off := uint64(0); off < p.head; {
		rec := p.logBase + mem.Addr(off)
		slot := p.th.LoadU64(rec)
		n := p.th.LoadU64(rec + 8)
		p.index[slot] = rec + logRecHeader
		off += logRecHeader + n
	}
}

// ---------------------------------------------------------------------------
// PMwCAS-style CAS-publish: persist a descriptor naming every target word
// and its new value (flush+fence), then install the words with NT stores
// and fence. Two ordering points; recovery rolls an installed descriptor
// forward, so the multi-word update is atomic without copying payloads.

type pmwcas struct {
	th       *persist.Thread
	base     mem.Addr
	descAddr mem.Addr
	stride   int
	words    int
	buf      []byte
}

const (
	descIdle    = 0
	descInstall = 1
)

func (p *pmwcas) init(rt *persist.Runtime, cfg Config) {
	p.th = rt.Thread(0)
	p.stride = lineAligned(cfg.Payload)
	p.words = cfg.Payload / 8
	p.base = rt.Dev.Map(int(cfg.Slots) * p.stride)
	// Descriptor: [status u64][count u64][addr,new u64 pairs...]
	p.buf = make([]byte, 16+16*p.words)
	p.descAddr = rt.Dev.Map(lineAligned(len(p.buf)))
	p.th.StoreU64(p.descAddr, descIdle)
	p.th.FlushFence(p.descAddr, 8)
}

func (p *pmwcas) addr(slot uint64) mem.Addr {
	return p.base + mem.Addr(slot)*mem.Addr(p.stride)
}

func (p *pmwcas) update(slot, val uint64) {
	payload(p.buf[16:16+8*p.words], slot, val) // staging for the new words
	binary.LittleEndian.PutUint64(p.buf, descInstall)
	binary.LittleEndian.PutUint64(p.buf[8:], uint64(p.words))
	// Rewrite staging into (addr, new) pairs back-to-front so the word
	// values laid down by payload() are consumed before being overwritten.
	newVals := make([]uint64, p.words)
	for j := 0; j < p.words; j++ {
		newVals[j] = binary.LittleEndian.Uint64(p.buf[16+8*j:])
	}
	for j := 0; j < p.words; j++ {
		binary.LittleEndian.PutUint64(p.buf[16+16*j:], uint64(p.addr(slot))+uint64(8*j))
		binary.LittleEndian.PutUint64(p.buf[24+16*j:], newVals[j])
	}
	p.th.Store(p.descAddr, p.buf)
	p.th.FlushFence(p.descAddr, len(p.buf))
	p.install()
	// Retire the descriptor; the store stays cached until the next
	// update's descriptor write flushes the line again, which is safe:
	// re-running an installed descriptor is idempotent.
	p.th.StoreU64(p.descAddr, descIdle)
}

// install applies the descriptor's word set with NT stores and one fence.
func (p *pmwcas) install() {
	count := p.th.LoadU64(p.descAddr + 8)
	for j := uint64(0); j < count; j++ {
		a := mem.Addr(p.th.LoadU64(p.descAddr + mem.Addr(16+16*j)))
		v := p.th.LoadU64(p.descAddr + mem.Addr(24+16*j))
		p.th.StoreU64NT(a, v)
	}
	p.th.Fence()
}

func (p *pmwcas) read(slot uint64) (uint64, bool) {
	v := p.th.LoadU64(p.addr(slot))
	return v, v != 0
}

// recoverState rolls a durably-installed descriptor forward: if the crash
// hit between the descriptor fence and the install fence, the new words
// are reapplied from the descriptor.
func (p *pmwcas) recoverState() {
	if p.th.LoadU64(p.descAddr) == descInstall {
		p.install()
		p.th.StoreU64(p.descAddr, descIdle)
		p.th.FlushFence(p.descAddr, 8)
	}
}
