package hops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func TestStoreAndDFenceDurable(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Store(0, 100, 7)
	if _, ok := m.Durable(100); ok {
		t.Fatal("buffered store already durable")
	}
	m.DFence(0)
	if v, ok := m.Durable(100); !ok || v != 7 {
		t.Fatalf("Durable = %v,%v", v, ok)
	}
	if m.Buffered(0) != 0 {
		t.Fatal("PB not empty after dfence")
	}
}

func TestOFenceIsLocal(t *testing.T) {
	m := NewMachine(1, DefaultConfig())
	m.Store(0, 1, 1)
	m.OFence(0)
	m.Store(0, 2, 2)
	// ofence must not drain anything.
	if m.Buffered(0) != 2 {
		t.Fatalf("Buffered = %d, want 2", m.Buffered(0))
	}
}

func TestMultiVersioning(t *testing.T) {
	// Consequence 6: multiple versions of a line from different epochs
	// buffered simultaneously, no stall.
	m := NewMachine(1, DefaultConfig())
	m.Store(0, 42, 1)
	m.OFence(0)
	m.Store(0, 42, 2)
	if got := m.BufferedVersions(0, 42); got != 2 {
		t.Fatalf("BufferedVersions = %d, want 2", got)
	}
	if m.stats.MultiVersions == 0 {
		t.Fatal("multi-version counter not incremented")
	}
	m.DFence(0)
	if v, _ := m.Durable(42); v != 2 {
		t.Fatalf("final durable value = %d, want 2 (latest epoch)", v)
	}
	// Drain order must preserve epoch order: version 1 drained before 2.
	order := m.drained
	if len(order) != 2 || order[0].Data != 1 || order[1].Data != 2 {
		t.Fatalf("drain order = %+v", order)
	}
}

func TestPBCapacityForcesDrain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PBEntries = 4
	m := NewMachine(1, cfg)
	for i := 0; i < 10; i++ {
		m.Store(0, mem.Line(i), uint64(i))
	}
	if m.Buffered(0) > 4 {
		t.Fatalf("PB exceeded capacity: %d", m.Buffered(0))
	}
	// The drained head entries must be durable.
	if v, ok := m.Durable(0); !ok || v != 0 {
		t.Fatal("evicted head entry not durable")
	}
}

func TestCrossDependencyOrdering(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	// Thread 0 writes line 5 (buffered), thread 1 then writes line 5:
	// thread 1's entry depends on thread 0's epoch.
	m.Store(0, 5, 10)
	m.Store(1, 5, 20)
	if m.stats.CrossDeps != 1 {
		t.Fatalf("CrossDeps = %d, want 1", m.stats.CrossDeps)
	}
	// Draining thread 1 must first drain thread 0's epoch.
	m.DFence(1)
	if v, ok := m.Durable(5); !ok || v != 20 {
		t.Fatalf("Durable(5) = %v,%v", v, ok)
	}
	order := m.drained
	if len(order) < 2 || order[0].Thread != 0 || order[1].Thread != 1 {
		t.Fatalf("drain order = %+v, want thread 0's write first", order)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoDependencyAcrossDrainedEpochs(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Store(0, 5, 10)
	m.DFence(0) // thread 0's write is durable
	m.Store(1, 5, 20)
	if m.stats.CrossDeps != 0 {
		t.Fatal("dependency recorded on an already-durable epoch")
	}
}

func TestDependencyCycleSplit(t *testing.T) {
	// Build a mutual dependency: t0 writes A, t1 writes B, t1 writes A
	// (dep on t0), t0 writes B (dep on t1). Draining must terminate and
	// the split counter must account for the dissolved edge.
	m := NewMachine(2, DefaultConfig())
	m.Store(0, 1, 100) // t0: A
	m.Store(1, 2, 200) // t1: B
	m.Store(1, 1, 201) // t1: A, dep on t0
	m.Store(0, 2, 101) // t0: B, dep on t1
	m.DFence(0)
	m.DFence(1)
	if m.Buffered(0)+m.Buffered(1) != 0 {
		t.Fatal("deadlocked drain left entries buffered")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalTSAdvances(t *testing.T) {
	m := NewMachine(2, DefaultConfig())
	m.Store(0, 1, 1)
	m.OFence(0)
	m.Store(0, 2, 2)
	m.DFence(0)
	ts := m.globalTS
	if ts[0] < 2 {
		t.Fatalf("globalTS[0] = %d, want >= 2", ts[0])
	}
	if ts[1] != 0 {
		t.Fatalf("globalTS[1] = %d, want 0", ts[1])
	}
}

func TestDrainAll(t *testing.T) {
	m := NewMachine(3, DefaultConfig())
	for tid := 0; tid < 3; tid++ {
		m.Store(tid, mem.Line(tid*10), uint64(tid))
	}
	m.DrainAll()
	for tid := 0; tid < 3; tid++ {
		if m.Buffered(tid) != 0 {
			t.Fatalf("thread %d still buffered", tid)
		}
		if v, ok := m.Durable(mem.Line(tid * 10)); !ok || v != uint64(tid) {
			t.Fatalf("thread %d write not durable", tid)
		}
	}
}

func TestInvariantsRandomWorkload(t *testing.T) {
	// Property: random interleavings of stores/ofences/dfences across four
	// threads never violate the BEP drain invariants, and the durable
	// image always reflects the LAST drained version of each line.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.PBEntries = 8 // small PB: force pressure drains
		m := NewMachine(4, cfg)
		for op := 0; op < 400; op++ {
			tid := rng.Intn(4)
			switch rng.Intn(10) {
			case 0:
				m.DFence(tid)
			case 1, 2:
				m.OFence(tid)
			default:
				m.Store(tid, mem.Line(rng.Intn(16)), uint64(op))
			}
		}
		m.DrainAll()
		if err := m.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// Durable image = data of last drained entry per line.
		want := make(map[mem.Line]uint64)
		for _, e := range m.drained {
			want[e.Line] = e.Data
		}
		for l, v := range want {
			got, ok := m.Durable(l)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPerThreadEpochOrderUnderPressure(t *testing.T) {
	// With a tiny PB, pressure drains interleave with dfences; epoch
	// order per thread must still be monotone in the drain history.
	cfg := DefaultConfig()
	cfg.PBEntries = 2
	m := NewMachine(1, cfg)
	for i := 0; i < 20; i++ {
		m.Store(0, mem.Line(i%3), uint64(i))
		if i%4 == 3 {
			m.OFence(0)
		}
	}
	m.DFence(0)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-size PB accepted")
		}
	}()
	NewMachine(1, Config{PBEntries: 0})
}

// TestTraceDrivesHOPSMachine replays a real application's PM stores and
// fences through the functional HOPS persist-buffer machine and checks the
// Buffered Epoch Persistency invariants over the resulting drain order —
// the §6.2 hardware rules validated against §3's software. The ordering
// points are Figure 10's, taken from the replay's own front: every fence is
// an ofence, and a commit the front marks as a dfence is one. The counts it
// logs show how little of the dependency machinery the suite's traces
// exercise: the scheduler interleaves whole transactions and a fenced
// commit drains its thread's buffer, so cross-thread dependencies are rare
// and epoch splits absent, while multi-versioning is common.
func TestTraceDrivesHOPSMachine(t *testing.T) {
	for _, name := range []string{"hashmap", "vacation", "ycsb"} {
		t.Run(name, func(t *testing.T) {
			m := NewMachine(4, DefaultConfig())
			var f front
			var st frontStep
			for _, c := range recorded(name).Chunks() {
				for i := range c {
					e := &c[i]
					f.next(e, &st)
					tid := int(e.TID) % 4
					switch e.Kind {
					case trace.KStore, trace.KStoreNT:
						for l, n := e.Lines(); n > 0; l, n = l+1, n-1 {
							m.Store(tid, l, uint64(e.Time))
						}
					case trace.KFence:
						m.OFence(tid)
					case trace.KTxEnd:
						if st.dfence {
							m.DFence(tid)
						}
					}
				}
			}
			m.DrainAll()
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("%s: BEP invariant violated: %v", name, err)
			}
			s := m.stats
			t.Logf("%s: %d stores, %d ofences, %d dfences, CrossDeps %d, DepSplits %d, MultiVersions %d",
				name, s.Stores, s.OFences, s.DFences, s.CrossDeps, s.DepSplits, s.MultiVersions)
			if s.Stores == 0 || s.OFences == 0 || s.DFences == 0 {
				t.Fatalf("%s: machine saw no traffic: %+v", name, s)
			}
			// Multi-versioning must actually occur on real workloads
			// (Consequence 6: self-dependencies are common).
			if s.MultiVersions == 0 {
				t.Errorf("%s: no multi-versioned lines buffered", name)
			}
		})
	}
}
