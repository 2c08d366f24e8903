package pmem

import (
	"bytes"
	"maps"
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
)

// fuzzRegionLines is the device region FuzzDevice's programs address:
// three pages, small enough that stores, flushes and crashes keep landing
// on the same lines and pages.
const fuzzRegionLines = 3 * mem.PageLines

// cloneRef returns an independent copy of r.
func cloneRef(r *refDevice) *refDevice {
	c := &refDevice{
		live:    maps.Clone(r.live),
		durable: map[uint64]*[PageBytes]byte{},
		dirty:   maps.Clone(r.dirty),
		stats:   r.stats,
	}
	for idx, pg := range r.durable {
		cp := *pg
		c.durable[idx] = &cp
	}
	for tid := range r.flushed {
		c.flushed = append(c.flushed, maps.Clone(r.flushed[tid]))
		c.wcb = append(c.wcb, maps.Clone(r.wcb[tid]))
	}
	return c
}

// FuzzDevice decodes bytes into a program of Store / StoreNT / Flush /
// Fence / Crash (Strict and Adversarial) / Clone over one to four threads,
// runs it on the device and on refDevice, and compares every observable
// after every step, plus a load and IsDurable of the span the step
// touched. The first byte picks the thread count; each step takes an
// opcode and a thread, then what the operation needs (size, offset, fill
// byte or crash seed), reading zeros once the input runs out. A clone is
// set aside while the program goes on with the original; the next Clone
// step, or the end, checks it against a copy of the model taken with it,
// and the program goes on with the clone, so a clone must neither share
// state with its original nor be any less of a device.
func FuzzDevice(f *testing.F) {
	f.Add([]byte{})
	// Store, flush and fence one line on one thread.
	f.Add([]byte{0, 0, 0, 7, 0, 10, 5, 4, 0, 7, 0, 10, 6, 0})
	// Two threads flush one line with different bytes and fence in the
	// opposite order: the first fence persists bytes the line no longer
	// holds. Then a crash.
	f.Add([]byte{1, 0, 0, 7, 0, 64, 1, 4, 0, 7, 0, 64, 0, 1, 7, 0, 64, 2, 4, 1, 7, 0, 64, 6, 1, 6, 0, 7, 0, 0})
	// NT stores over a dirty span, a clone, the original stored to and
	// crashed, then the clone fenced and crashed.
	f.Add([]byte{3, 0, 2, 16, 0, 130, 9, 3, 2, 16, 0, 130, 20, 9, 0, 0, 0, 50, 1, 44, 7, 8, 0, 5, 9, 0, 6, 2, 7, 1, 0})
	// A clone taken with a store in flight; the original persists the line
	// and stores to it again, which reuses its undo block; then the clone
	// crashes and must get its own durable bytes back.
	f.Add([]byte{0, 0, 0, 7, 0, 64, 1, 4, 0, 7, 0, 64, 9, 0, 6, 0, 0, 0, 7, 0, 64, 2, 9, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		threads := 1 + next()%4
		d := New()
		base := d.Map(fuzzRegionLines * mem.LineSize)
		ref := newRefDevice(threads)
		var frozen *Device
		var frozenRef *refDevice
		const all = fuzzRegionLines * mem.LineSize
		checkFrozen := func(step int) {
			if frozen == nil {
				return
			}
			if msg := frozenRef.diff(frozen); msg != "" {
				t.Fatalf("step %d: the clone set aside drifted from its model: %s", step, msg)
			}
			if got, want := frozen.Load(0, base, all), frozenRef.load(base, all); !bytes.Equal(got, want) {
				t.Fatalf("step %d: the clone set aside reads differently from its model", step)
			}
			frozenRef.stats.Loads += uint64(mem.LinesSpanned(base, all))
			d, ref = frozen, frozenRef
		}
		span := func() (mem.Addr, int) {
			size := 1 + next()%200
			off := (next()<<8 | next()) % (fuzzRegionLines*mem.LineSize - size)
			return base + mem.Addr(off), size
		}
		fill := func(size int) []byte {
			b, v := make([]byte, size), byte(next())
			for i := range b {
				b[i] = v + byte(i)
			}
			return b
		}
		for step := 0; len(prog) > 0 && step < 512; step++ {
			op, tid := next()%10, next()%threads
			a, size := base, 0
			switch op {
			case 0, 1, 2:
				a, size = span()
				data := fill(size)
				d.Store(ThreadID(tid), a, data)
				ref.store(a, data)
			case 3:
				a, size = span()
				data := fill(size)
				d.StoreNT(ThreadID(tid), a, data)
				ref.storeNT(tid, a, data)
			case 4, 5:
				a, size = span()
				d.Flush(ThreadID(tid), a, size)
				ref.flush(tid, a, size)
			case 6:
				d.Fence(ThreadID(tid))
				ref.fence(tid)
			case 7, 8:
				mode, seed := CrashMode(op-7), int64(next())
				d.Crash(mode, seed)
				ref.crash(mode, seed)
			case 9:
				checkFrozen(step)
				frozen, frozenRef = d.Clone(), cloneRef(ref)
			}
			if msg := ref.diff(d); msg != "" {
				t.Fatalf("step %d (op %d, thread %d): %s", step, op, tid, msg)
			}
			if got, want := d.Load(0, a, size), ref.load(a, size); !bytes.Equal(got, want) {
				t.Fatalf("step %d (op %d): Load(%v, %d) differs from the model", step, op, a, size)
			}
			ref.stats.Loads += uint64(mem.LinesSpanned(a, size))
			if got, want := d.IsDurable(a, size), ref.isDurable(a, size); got != want {
				t.Fatalf("step %d (op %d): IsDurable(%v, %d) = %v, model says %v", step, op, a, size, got, want)
			}
		}
		if got, want := d.Load(0, base, all), ref.load(base, all); !bytes.Equal(got, want) {
			t.Fatal("the region's live image differs from the model at the end")
		}
		checkFrozen(-1)
	})
}
