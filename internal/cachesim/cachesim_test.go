package cachesim

import (
	"testing"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/trace"
)

func small() *Hierarchy {
	return New(Config{L1Size: 1024, L1Ways: 2, L2Size: 4096, L2Ways: 4, Threads: 2})
}

// access performs one memory event on h, as a replay would.
func access(h *Hierarchy, k trace.Kind, tid uint16, a mem.Addr, size uint32) {
	h.Access(trace.Event{Kind: k, TID: tid, Addr: a, Size: size})
}

func TestColdMissThenHit(t *testing.T) {
	h := small()
	access(h, trace.KLoad, 0, mem.PMBase, 8)
	s := h.Stats()
	if s.PMReads != 1 || s.L1Hits != 0 {
		t.Fatalf("cold read stats: %+v", s)
	}
	access(h, trace.KLoad, 0, mem.PMBase, 8)
	if h.Stats().L1Hits != 1 {
		t.Fatalf("warm read not an L1 hit: %+v", h.Stats())
	}
}

func TestDRAMvsPMClassification(t *testing.T) {
	h := small()
	access(h, trace.KLoad, 0, 0x1000, 8)     // DRAM
	access(h, trace.KLoad, 0, mem.PMBase, 8) // PM
	access(h, trace.KStore, 0, 0x2000, 8)    // DRAM (write-allocate read)
	access(h, trace.KStore, 0, mem.PMBase+64, 8)
	s := h.Stats()
	if s.DRAMReads != 2 || s.PMReads != 2 {
		t.Fatalf("classification: %+v", s)
	}
}

func TestWriteInvalidatesOtherCores(t *testing.T) {
	h := small()
	access(h, trace.KLoad, 0, mem.PMBase, 8)
	access(h, trace.KLoad, 1, mem.PMBase, 8) // core 1 gets it (remote or L2)
	access(h, trace.KStore, 1, mem.PMBase, 8)
	// Core 0's copy must now be invalid: its next read can't be an L1 hit.
	before := h.Stats().L1Hits
	access(h, trace.KLoad, 0, mem.PMBase, 8)
	s := h.Stats()
	if s.L1Hits != before {
		t.Fatal("read after remote write hit a stale L1 line")
	}
}

func TestRemoteTransfer(t *testing.T) {
	h := small()
	access(h, trace.KLoad, 0, mem.PMBase, 8)
	access(h, trace.KLoad, 1, mem.PMBase, 8)
	s := h.Stats()
	if s.RemoteHits != 1 {
		t.Fatalf("RemoteHits = %d, want 1 (cache-to-cache)", s.RemoteHits)
	}
	if s.PMReads != 1 {
		t.Fatalf("PMReads = %d, want 1 (only the cold miss)", s.PMReads)
	}
}

func TestStickyM(t *testing.T) {
	h := small()
	if h.StickyOwner(mem.LineOf(mem.PMBase)) != -1 {
		t.Fatal("sticky owner before any write")
	}
	access(h, trace.KStore, 1, mem.PMBase, 8)
	if h.StickyOwner(mem.LineOf(mem.PMBase)) != 1 {
		t.Fatal("sticky owner not recorded")
	}
	// Sticky-M persists across eviction: thrash the set.
	for i := 0; i < 100; i++ {
		access(h, trace.KStore, 0, mem.PMBase+mem.Addr(4096*i), 8)
	}
	if h.StickyOwner(mem.LineOf(mem.PMBase)) != 0 {
		t.Fatal("sticky owner not updated by later writer")
	}
}

func TestEvictionsOccur(t *testing.T) {
	h := small() // 1 KB L1, 2-way: 8 sets -> same set every 512 bytes
	for i := 0; i < 64; i++ {
		access(h, trace.KLoad, 0, mem.PMBase+mem.Addr(i*1024), 8)
	}
	if h.Stats().Evictions == 0 {
		t.Fatal("no evictions despite thrashing")
	}
}

func TestNTBypassesCache(t *testing.T) {
	h := small()
	access(h, trace.KStoreNT, 0, mem.PMBase, 128)
	s := h.Stats()
	if s.NTWrites != 2 {
		t.Fatalf("NTWrites = %d, want 2 lines", s.NTWrites)
	}
	// A following read must miss (NT did not allocate).
	access(h, trace.KLoad, 0, mem.PMBase, 8)
	if h.Stats().L1Hits != 0 {
		t.Fatal("NT write allocated into the cache")
	}
}

func TestFlushCountsWriteback(t *testing.T) {
	h := small()
	access(h, trace.KStore, 0, mem.PMBase, 8)
	access(h, trace.KFlush, 0, mem.PMBase, 8)
	if h.Stats().PMWrites != 1 {
		t.Fatalf("PMWrites = %d, want 1", h.Stats().PMWrites)
	}
	// Flushing an uncached line is a no-op.
	access(h, trace.KFlush, 0, mem.PMBase+8192, 8)
	if h.Stats().PMWrites != 1 {
		t.Fatal("flush of uncached line counted")
	}
}

func TestReplayTrace(t *testing.T) {
	tr := &trace.Trace{Threads: 2}
	tr.Append(trace.Event{Kind: trace.KStore, TID: 0, Addr: mem.PMBase, Size: 8})
	tr.Append(trace.Event{Kind: trace.KFlush, TID: 0, Addr: mem.PMBase, Size: 8})
	tr.Append(trace.Event{Kind: trace.KVLoad, TID: 1, Addr: 0x5000, Size: 8})
	tr.Append(trace.Event{Kind: trace.KStoreNT, TID: 0, Addr: mem.PMBase + 64, Size: 64})
	h := New(DefaultConfig())
	s, err := ReplaySource(h, trace.NewSliceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if s.PMWrites != 1 || s.NTWrites != 1 || s.DRAMReads != 1 {
		t.Fatalf("replay stats: %+v", s)
	}
	if s.DRAMReads+s.DRAMWrites+s.PMReads+s.PMWrites+s.NTWrites == 0 {
		t.Fatal("no access reached memory")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	h := New(DefaultConfig())
	if len(h.caches) != 8 {
		t.Fatal("default config should have 4 cores")
	}
}

// TestNewRejectsBadGeometry: a hierarchy with no cores divided by zero on
// its first Access, on whichever tap goroutine ran it, and zero ways
// divided by zero inside New; more than 32 cores do not fit the holder
// mask, and a set count that is not a power of two has no mask to pick a
// line's set. New refuses each at construction, naming the field.
func TestNewRejectsBadGeometry(t *testing.T) {
	ok := Config{L1Size: 512, L1Ways: 2, L2Size: 2048, L2Ways: 4, Threads: 2}
	cases := []struct {
		name  string
		patch func(*Config)
		want  string
	}{
		{"no cores", func(c *Config) { c.Threads = 0 }, "cachesim: Config.Threads = 0, want 1 to 32"},
		{"negative cores", func(c *Config) { c.Threads = -1 }, "cachesim: Config.Threads = -1, want 1 to 32"},
		{"more cores than the mask", func(c *Config) { c.Threads = 33 }, "cachesim: Config.Threads = 33, want 1 to 32"},
		{"zero L1 ways", func(c *Config) { c.L1Ways = 0 }, "cachesim: Config.L1Ways = 0, want at least 1"},
		{"zero L2 ways", func(c *Config) { c.L2Ways = 0 }, "cachesim: Config.L2Ways = 0, want at least 1"},
		{"L1 under a line", func(c *Config) { c.L1Size = mem.LineSize - 1 }, "cachesim: Config.L1Size = 63, want at least one 64-byte line"},
		{"L2 of zero bytes", func(c *Config) { c.L2Size = 0 }, "cachesim: Config.L2Size = 0, want at least one 64-byte line"},
		{"three L1 sets", func(c *Config) { c.L1Size = 384 }, "cachesim: Config.L1Size = 384, want a power-of-two count of 2-way sets of 64-byte lines"},
		{"six L2 sets", func(c *Config) { c.L2Size = 1536 }, "cachesim: Config.L2Size = 1536, want a power-of-two count of 4-way sets of 64-byte lines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.patch(&cfg)
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("New(%+v) panicked with %v, want %q", cfg, got, tc.want)
				}
			}()
			New(cfg)
		})
	}
	for _, threads := range []int{1, 32} {
		cfg := ok
		cfg.Threads = threads
		access(New(cfg), trace.KStore, 0xFFFF, mem.PMBase, 8)
	}
}

// StickyOwner returns the last core to hold the line exclusively, or -1.
func (h *Hierarchy) StickyOwner(l mem.Line) int { return int(h.dir.Get(l).sticky) - 1 }
