package pmfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmem"
	"github.com/whisper-pm/whisper/internal/pmsan"
	"github.com/whisper-pm/whisper/internal/trace"
)

func newFS(t *testing.T) (*persist.Runtime, *persist.Thread, *FS) {
	t.Helper()
	rt := persist.NewRuntime("pmfs-test", "pmfs", 1, persist.Config{})
	th := rt.Thread(0)
	return rt, th, Format(rt, th, Options{Inodes: 256, Blocks: 512})
}

func TestCreateStatUnlink(t *testing.T) {
	_, th, fs := newFS(t)
	if err := fs.Create(th, "/a.txt"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(th, "/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Size != 0 || info.Nlink != 1 {
		t.Fatalf("info = %+v", info)
	}
	if err := fs.Create(th, "/a.txt"); !errors.Is(err, ErrExists) {
		t.Fatalf("second create = %v, want ErrExists", err)
	}
	if err := fs.Unlink(th, "/a.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(th, "/a.txt"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat after unlink = %v, want ErrNotFound", err)
	}
}

func TestWriteRead(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Create(th, "/f")
	msg := []byte("hello persistent filesystem")
	if err := fs.WriteAt(th, "/f", 0, msg); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(th, "/f", 0, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read = %q", got)
	}
	info, _ := fs.Stat(th, "/f")
	if info.Size != int64(len(msg)) {
		t.Fatalf("size = %d", info.Size)
	}
}

func TestWriteAcrossBlocks(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Create(th, "/big")
	data := make([]byte, 3*BlockSize+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := fs.WriteAt(th, "/big", 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(th, "/big", 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip mismatch")
	}
	// Partial read in the middle, crossing a block boundary.
	got, err = fs.ReadAt(th, "/big", BlockSize-10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[BlockSize-10:BlockSize+10]) {
		t.Fatal("boundary read mismatch")
	}
}

func TestIndirectBlocks(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Create(th, "/huge")
	// Write past the direct pointers.
	off := int64(numDirect * BlockSize)
	data := []byte("beyond the directs")
	if err := fs.WriteAt(th, "/huge", off, data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAt(th, "/huge", off, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("indirect read = %q", got)
	}
}

func TestAppend(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Create(th, "/log")
	for i := 0; i < 5; i++ {
		if err := fs.Append(th, "/log", []byte(fmt.Sprintf("line%d\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := fs.ReadAt(th, "/log", 0, 1000)
	want := "line0\nline1\nline2\nline3\nline4\n"
	if string(got) != want {
		t.Fatalf("log = %q", got)
	}
}

func TestMkdirNesting(t *testing.T) {
	_, th, fs := newFS(t)
	if err := fs.Mkdir(th, "/d1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(th, "/d1/d2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create(th, "/d1/d2/f"); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(th, "/d1/d2/f")
	if err != nil || info.IsDir {
		t.Fatalf("stat nested = %+v, %v", info, err)
	}
	if err := fs.Create(th, "/nope/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("create in missing dir = %v", err)
	}
	if err := fs.Unlink(th, "/d1"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("unlink non-empty dir = %v", err)
	}
}

func TestReaddir(t *testing.T) {
	_, th, fs := newFS(t)
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		fs.Create(th, "/"+n)
	}
	fs.Unlink(th, "/b")
	got, err := fs.Readdir(th, "/")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := []string{"a", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("readdir = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("readdir = %v", got)
		}
	}
}

func TestDirentSlotReuse(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Create(th, "/x")
	info1, _ := fs.Stat(th, "/")
	fs.Unlink(th, "/x")
	fs.Create(th, "/y") // must reuse the deleted slot
	info2, _ := fs.Stat(th, "/")
	if info2.Size != info1.Size {
		t.Fatalf("directory grew (%d -> %d) despite free slot", info1.Size, info2.Size)
	}
}

// freeOrder is every block fs's free index holds, in the order allocBlock
// would hand them out.
func freeOrder(fs *FS) []uint32 {
	var out []uint32
	f := slices.Clone(fs.freeBlocks)
	for blk, ok := f.Pop(); ok; blk, ok = f.Pop() {
		out = append(out, uint32(blk))
	}
	return out
}

func TestUnlinkFreesBlocks(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Create(th, "/f") // the root directory grabs its dirent block here
	free0 := len(freeOrder(fs))
	fs.WriteAt(th, "/f", 0, make([]byte, 5*BlockSize))
	if n := len(freeOrder(fs)); n != free0-5 {
		t.Fatalf("5-block write left %d of %d blocks free", n, free0)
	}
	fs.Unlink(th, "/f")
	if n := len(freeOrder(fs)); n != free0 {
		t.Fatalf("blocks leaked: %d -> %d", free0, n)
	}
}

// eagerBlocks is the per-block free stack rebuildFreeLists built before
// the free index went a word at a time, kept as the oracle for the order
// allocBlock hands blocks out in.
type eagerBlocks []uint32

// rebuild is the old rebuildFreeLists block loop: words highest first,
// bits descending, every clear bit pushed.
func (e *eagerBlocks) rebuild(th *persist.Thread, fs *FS) {
	*e = (*e)[:0]
	for w := fs.opts.Blocks/64 - 1; w >= 0; w-- {
		v := th.LoadU64(fs.bitmap + mem.Addr(w*8))
		for b := 63; b >= 0; b-- {
			if v&(1<<uint(b)) == 0 {
				*e = append(*e, uint32(w*64+b))
			}
		}
	}
}

// TestAllocBlockOrderMatchesEager: the word-at-a-time free index hands out
// data blocks in exactly the order the per-block stack did, over random
// runs of creates, writes, unlinks and Recovers, some Recovers following
// an operation stopped at a random event and an Adversarial crash. An
// event hook watches every store to the bitmap: a bit set is an
// allocBlock, checked against the top of the eager stack, and a bit
// cleared is a freeBlock, pushed on it. On the 64-block filesystem writes
// run out of space: an aborted write's undo clears its bits newest first,
// so the stack comes back as it was, and the index must too.
func TestAllocBlockOrderMatchesEager(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		blocks := 512
		if seed > 6 {
			blocks = 64
		}
		rng := rand.New(rand.NewSource(seed))
		rt := persist.NewRuntime("pmfs-test", "pmfs", 1, persist.Config{NoTrace: true})
		th := rt.Thread(0)
		fs := Format(rt, th, Options{Inodes: 64, Blocks: blocks})
		var ref eagerBlocks
		shadow := make([]uint64, fs.opts.Blocks/64) // the bitmap as the hook last saw it
		resync := func() {
			ref.rebuild(th, fs)
			for w := range shadow {
				shadow[w] = th.LoadU64(fs.bitmap + mem.Addr(w*8))
			}
		}
		resync()
		watch := func(e trace.Event) {
			if e.Kind != trace.KStore || e.Addr < fs.bitmap || e.Addr >= fs.bitmap+mem.Addr(len(shadow)*8) {
				return
			}
			w := int(e.Addr-fs.bitmap) / 8
			v := binary.LittleEndian.Uint64(rt.Dev.Load(0, fs.bitmap+mem.Addr(w*8), 8))
			set, cleared := v&^shadow[w], shadow[w]&^v
			shadow[w] = v
			if bits.OnesCount64(set|cleared) != 1 {
				t.Fatalf("seed %d: bitmap word %d went %#x -> %#x in one store", seed, w, v^set^cleared, v)
			}
			if cleared != 0 {
				ref = append(ref, uint32(w*64+bits.TrailingZeros64(cleared)))
				return
			}
			blk := uint32(w*64 + bits.TrailingZeros64(set))
			if n := len(ref); n == 0 || ref[n-1] != blk {
				t.Fatalf("seed %d: allocBlock took %d, the eager stack's top is %v", seed, blk, ref[max(n-1, 0):])
			}
			ref = ref[:len(ref)-1]
		}
		// At most 8 files of at most 31 blocks, the indirect one included,
		// do not fill 512 blocks. The 64-block filesystem takes writes four
		// times as long, and runs out of space.
		scale, aborts := 1, 0
		if blocks < 512 {
			scale = 4
		}
		op := func() {
			name := fmt.Sprintf("/f%d", rng.Intn(8))
			var err error
			switch rng.Intn(3) {
			case 0:
				err = fs.Create(th, name)
			case 1:
				off := int64(rng.Intn(24*BlockSize + 1))
				err = fs.WriteAt(th, name, off, make([]byte, scale*(1+rng.Intn(6*BlockSize))))
			default:
				err = fs.Unlink(th, name)
			}
			if errors.Is(err, ErrNoSpace) && blocks < 512 {
				aborts++
			} else if err != nil && !errors.Is(err, ErrExists) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for i := 0; i < 300; i++ {
			switch r := rng.Intn(100); {
			case r < 90:
				rt.SetEventHook(watch)
				op()
				rt.SetEventHook(nil)
			case r < 95:
				fs.Recover(th)
				resync()
			default:
				rt.AbortAt(1+rng.Intn(400), nil, op)
				rt.Crash(pmem.Adversarial, rng.Int63())
				fs.Recover(th)
				resync()
			}
			want := slices.Clone(ref)
			slices.Reverse(want)
			if got := freeOrder(fs); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: free index hands out %v..., the eager stack %v...", seed, i, got[:min(8, len(got))], want[:min(8, len(want))])
			}
		}
		if blocks < 512 && aborts == 0 {
			t.Fatalf("seed %d: no write ran out of %d blocks", seed, blocks)
		}
	}
}

func TestUserDataUsesNTI(t *testing.T) {
	// §5.2: about 96% of PMFS writes use NTIs.
	rt, th, fs := newFS(t)
	fs.Create(th, "/f")
	*rt.Trace = trace.Trace{}
	fs.WriteAt(th, "/f", 0, make([]byte, BlockSize))
	var ntBytes, storeBytes uint64
	for _, e := range rt.Trace.Events() {
		switch e.Kind {
		case trace.KStoreNT:
			ntBytes += uint64(e.Size)
		case trace.KStore:
			storeBytes += uint64(e.Size)
		}
	}
	frac := float64(ntBytes) / float64(ntBytes+storeBytes)
	if frac < 0.85 {
		t.Errorf("NTI byte fraction = %.2f, want > 0.85 for block writes", frac)
	}
}

func TestBlockWriteIs64LineEpoch(t *testing.T) {
	// Figure 4: PMFS epochs of 64 cache lines come from 4 KB block writes.
	rt, th, fs := newFS(t)
	fs.Create(th, "/f")
	*rt.Trace = trace.Trace{}
	fs.WriteAt(th, "/f", 0, make([]byte, BlockSize))
	// Find the NT store of the user data and check it spans 64 lines.
	found := false
	for _, e := range rt.Trace.Events() {
		if e.Kind == trace.KStoreNT && e.Size == BlockSize {
			found = true
		}
	}
	if !found {
		t.Error("no 4 KB NT store found for a block write")
	}
}

func TestWriteAmplificationNearPaper(t *testing.T) {
	// §5.2: ~400 extra metadata/journal bytes per 4096-byte append (~10%).
	rt, th, fs := newFS(t)
	fs.Create(th, "/f")
	*rt.Trace = trace.Trace{}
	dev0 := rt.Dev.Stats().BytesStored
	fs.Append(th, "/f", make([]byte, BlockSize))
	total := rt.Dev.Stats().BytesStored - dev0
	extra := float64(total-BlockSize) / float64(BlockSize)
	if extra < 0.02 || extra > 0.40 {
		t.Errorf("write amplification = %.2f, paper reports ~0.10", extra)
	}
}

func TestCrashDuringMetadataOpRecovers(t *testing.T) {
	// Crash with an uncommitted journal: recovery must roll back so the
	// filesystem remains consistent (file either exists fully or not).
	rt, th, fs := newFS(t)
	fs.Create(th, "/keep")
	fs.WriteAt(th, "/keep", 0, []byte("safe"))

	// Begin a metadata transaction by hand and crash before commit.
	mt := fs.begin(th)
	ia := fs.inodeAddr(rootIno)
	oldSize := th.LoadU64(ia + offSize)
	mt.writeU64(ia+offSize, oldSize+direntSize) // half-made entry
	th.Flush(ia+offSize, 8)
	th.Fence() // adversary: the new size IS durable
	rt.Crash(pmem.Strict, 1)

	fs.Recover(th)
	if got := th.LoadU64(ia + offSize); got != oldSize {
		t.Fatalf("root size = %d after recovery, want %d (rolled back)", got, oldSize)
	}
	got, err := fs.ReadAt(th, "/keep", 0, 4)
	if err != nil || !bytes.Equal(got, []byte("safe")) {
		t.Fatalf("committed file damaged: %q, %v", got, err)
	}
}

func TestCrashQuickConsistency(t *testing.T) {
	// Property: create files, crash adversarially at a random moment
	// (simulated by crashing after a random number of completed ops), and
	// verify every committed file's metadata is intact after recovery.
	f := func(seed int64, nOps uint8) bool {
		rt := persist.NewRuntime("pmfs-test", "pmfs", 1, persist.Config{})
		th := rt.Thread(0)
		fs := Format(rt, th, Options{Inodes: 128, Blocks: 256})
		n := int(nOps%16) + 1
		for i := 0; i < n; i++ {
			if err := fs.Create(th, fmt.Sprintf("/f%d", i)); err != nil {
				return false
			}
			if err := fs.WriteAt(th, fmt.Sprintf("/f%d", i), 0, []byte{byte(i)}); err != nil {
				return false
			}
		}
		rt.Crash(pmem.Adversarial, seed)
		fs.Recover(th)
		for i := 0; i < n; i++ {
			got, err := fs.ReadAt(th, fmt.Sprintf("/f%d", i), 0, 1)
			if err != nil || len(got) != 1 || got[0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallsAreTransactions(t *testing.T) {
	rt, th, fs := newFS(t)
	*rt.Trace = trace.Trace{}
	fs.Create(th, "/t")
	fs.WriteAt(th, "/t", 0, []byte("x"))
	fs.Stat(th, "/t")
	begins, ends := 0, 0
	for _, e := range rt.Trace.Events() {
		switch e.Kind {
		case trace.KTxBegin:
			begins++
		case trace.KTxEnd:
			ends++
		}
	}
	if begins != 3 || ends != 3 {
		t.Fatalf("tx brackets = %d/%d, want 3/3", begins, ends)
	}
}

func TestLongNameRejected(t *testing.T) {
	_, th, fs := newFS(t)
	long := "/" + string(bytes.Repeat([]byte("n"), maxName+1))
	if err := fs.Create(th, long); !errors.Is(err, ErrNameLong) {
		t.Fatalf("err = %v, want ErrNameLong", err)
	}
}

func TestStatRootViaReaddir(t *testing.T) {
	_, th, fs := newFS(t)
	if _, err := fs.Readdir(th, "/"); err != nil {
		t.Fatalf("readdir root: %v", err)
	}
}

func TestIsDirErrors(t *testing.T) {
	_, th, fs := newFS(t)
	fs.Mkdir(th, "/d")
	if err := fs.WriteAt(th, "/d", 0, []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write to dir = %v", err)
	}
	if _, err := fs.ReadAt(th, "/d", 0, 1); !errors.Is(err, ErrIsDir) {
		t.Fatalf("read of dir = %v", err)
	}
	fs.Create(th, "/f")
	if _, err := fs.Stat(th, "/f/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("traverse through file = %v", err)
	}
}

func TestMetadataCommitFlushesCoalesced(t *testing.T) {
	// An inode's size and mtime words share one cache line; the journal
	// used to flush each journalled range separately at commit,
	// re-flushing that line on every write syscall. Replay a small
	// workload through pmsan: zero ordering errors, zero redundant
	// flushes.
	rt, th, fs := newFS(t)
	if err := fs.Create(th, "/f"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := fs.WriteAt(th, "/f", int64(i*100), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Mkdir(th, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(th, "/f"); err != nil {
		t.Fatal(err)
	}
	rep, err := pmsan.Run(trace.NewSliceSource(rt.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("ordering errors in pmfs trace:\n%s", rep)
	}
	if n := rep.Sites(pmsan.RedundantFlush); n != 0 {
		t.Fatalf("redundant metadata flushes: %d sites\n%s", n, rep)
	}
}

// TestSecondScanFailureAbortsTheTransaction corrupts the parent directory's
// inode between the two scans Unlink makes of it — the lookup,
// then the scan for the entry's address inside the metadata transaction.
// The failed second scan used to be ignored and its zero address
// journalled: a write to address 0. Now the call returns the scan's error
// with the transaction rolled back, and the namespace is as it was.
func TestSecondScanFailureAbortsTheTransaction(t *testing.T) {
	calls := map[string]func(*FS, *persist.Thread) error{
		"Unlink": func(fs *FS, th *persist.Thread) error { return fs.Unlink(th, "/d/f") },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			rt, th, fs := newFS(t)
			if err := fs.Mkdir(th, "/d"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Create(th, "/d/f"); err != nil {
				t.Fatal(err)
			}
			dir, err := fs.lookup(th, "/d")
			if err != nil {
				t.Fatal(err)
			}
			typeAddr := fs.inodeAddr(dir) + offType

			// The transaction opens by storing to the journal descriptor,
			// after the lookups and before the second scan: damage /d's
			// inode type there, behind the filesystem's back.
			rt.SetEventHook(func(e trace.Event) {
				if e.Kind == trace.KStore && e.Addr == fs.jrnl.desc {
					rt.SetEventHook(nil)
					rt.Dev.Store(0, typeAddr, []byte{byte(typeFile), 0, 0, 0, 0, 0, 0, 0})
				}
			})
			if err := call(fs, th); !errors.Is(err, ErrNotDir) {
				t.Fatalf("%s over a directory corrupted mid-call = %v, want ErrNotDir", name, err)
			}
			for _, e := range rt.Trace.Events() {
				if (e.Kind == trace.KStore || e.Kind == trace.KStoreNT) && e.Addr == 0 {
					t.Fatalf("%s stored to address 0: %v", name, e)
				}
			}

			th.StoreU64(typeAddr, typeDir) // repair, then look around
			if _, err := fs.Stat(th, "/d/f"); err != nil {
				t.Fatalf("/d/f after the failed %s: %v", name, err)
			}
			if th.LoadU64(fs.jrnl.desc) != jrnlFree {
				t.Fatalf("journal left open after the failed %s", name)
			}
			if err := call(fs, th); err != nil {
				t.Fatalf("%s on the repaired directory: %v", name, err)
			}
		})
	}
}

// TestReadPathsDoNotAllocate pins the filesystem's read side: resolving a
// path and scanning a directory allocate nothing, hit or miss, and ReadAt
// allocates its result only. (The recorder's chunk growth is a handful of
// allocations over a thousand calls, below AllocsPerRun's whole-number
// average.)
func TestReadPathsDoNotAllocate(t *testing.T) {
	_, th, fs := newFS(t)
	if err := fs.Mkdir(th, "/dir"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := fs.Create(th, fmt.Sprintf("/dir/file%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteAt(th, "/dir/file31", 0, make([]byte, BlockSize+100)); err != nil {
		t.Fatal(err)
	}
	dir, err := fs.lookup(th, "/dir")
	if err != nil {
		t.Fatal(err)
	}
	for name, pin := range map[string]struct {
		want float64
		fn   func()
	}{
		"lookupEntry miss over 32 entries": {0, func() {
			if _, err := fs.lookupEntry(th, dir, "absent"); err != ErrNotFound {
				t.Fatal(err)
			}
		}},
		"lookupEntry hit on the last of 32": {0, func() {
			if _, err := fs.lookupEntry(th, dir, "file31"); err != nil {
				t.Fatal(err)
			}
		}},
		"Stat through two directories": {0, func() {
			if _, err := fs.Stat(th, "/dir/file31"); err != nil {
				t.Fatal(err)
			}
		}},
		"ReadAt across two blocks": {1, func() {
			if out, err := fs.ReadAt(th, "/dir/file31", 0, BlockSize+100); err != nil || len(out) != BlockSize+100 {
				t.Fatal(len(out), err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(1000, pin.fn); n != pin.want {
			t.Errorf("%s allocates %v times per call, want %v", name, n, pin.want)
		}
	}
}

// TestTornJournalEntryIsNotReplayed crashes a block-allocating write at
// each of its PM events after the circular journal has wrapped, so every
// slot the write takes still holds an old entry's image. An entry is one
// line: a crash can leave it with its new target and generation but the
// previous entry's old image, unless the old image is stored first.
// Recovery must never replay such an entry into the metadata.
func TestTornJournalEntryIsNotReplayed(t *testing.T) {
	build := func() (*persist.Runtime, *persist.Thread, *FS) {
		rt, th, fs := newFS(t)
		for i := 0; i < 150; i++ {
			if err := fs.Create(th, fmt.Sprintf("/f%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return rt, th, fs
	}
	data := make([]byte, 3*BlockSize)
	write := func(th *persist.Thread, fs *FS) func() {
		return func() { fs.WriteAt(th, "/f007", 0, data) }
	}
	rt, th, fs := build()
	events := 0
	rt.SetEventHook(func(trace.Event) { events++ })
	write(th, fs)()
	rt.SetEventHook(nil)
	for k := 1; k <= events; k++ {
		for seed := int64(1); seed <= 2; seed++ {
			rt, th, fs := build()
			var frozen *pmem.Device
			rt.AbortAt(k, func() { frozen = rt.Dev.Clone() }, write(th, fs))
			frozen.Crash(pmem.Adversarial, seed)
			rt.Reboot(frozen)
			fs.Recover(th)
			if err := fs.Fsck(th); err != nil {
				t.Fatalf("crash at event %d of %d, seed %d: %v", k, events, seed, err)
			}
		}
	}
}

// metadataImage is fs's inode table and allocation bitmap as the device
// holds them, and its free-block index in hand-out order.
func metadataImage(rt *persist.Runtime, fs *FS) ([]byte, []uint32) {
	img := rt.Dev.Load(0, fs.inodes, fs.opts.Inodes*inodeSize)
	img = append(img, rt.Dev.Load(0, fs.bitmap, fs.opts.Blocks/8)...)
	return img, freeOrder(fs)
}

// requireAborted holds a failed call to leaving fs as before: the same
// metadata bytes, the free-block index exactly as it was, the journal
// free, and a fresh Recover rebuilding an index of the same blocks.
func requireAborted(t *testing.T, rt *persist.Runtime, th *persist.Thread, fs *FS, img0 []byte, free0 []uint32) {
	t.Helper()
	img, free := metadataImage(rt, fs)
	if !bytes.Equal(img, img0) {
		t.Fatal("the failed call changed the inode table or the bitmap")
	}
	if !slices.Equal(free, free0) {
		t.Fatalf("free index holds %d blocks %v..., want the %d it held before, %v...",
			len(free), free[:min(4, len(free))], len(free0), free0[:min(4, len(free0))])
	}
	if th.LoadU64(fs.jrnl.desc) != jrnlFree {
		t.Fatal("journal left open after the failed call")
	}
	fs.Recover(th)
	rebuilt := freeOrder(fs)
	slices.Sort(free)
	slices.Sort(rebuilt)
	if !slices.Equal(rebuilt, free) {
		t.Fatalf("Recover rebuilt %d free blocks, the index held %d", len(rebuilt), len(free))
	}
}

// TestAbortGivesBlocksBack: a write that runs out of space part-way gives
// back every block it took. With 31 blocks free, a 32-block write (33
// blocks with its indirect one) fails with ErrNoSpace after taking all
// 31, and must leave them in the index; a write of 30 blocks, 31 with the
// indirect one, then fits. The free index used to come out of the abort
// empty.
func TestAbortGivesBlocksBack(t *testing.T) {
	rt, th, fs := newFS(t)
	for i := 0; len(freeOrder(fs)) > 31; i++ {
		name := fmt.Sprintf("/fill%d", i)
		if err := fs.Create(th, name); err != nil {
			t.Fatal(err)
		}
		n := min(numDirect, len(freeOrder(fs))-31) // direct blocks only: n blocks each
		if err := fs.WriteAt(th, name, 0, make([]byte, n*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Create(th, "/big"); err != nil {
		t.Fatal(err)
	}
	img0, free0 := metadataImage(rt, fs)
	if len(free0) != 31 {
		t.Fatalf("%d blocks free, want 31", len(free0))
	}
	if err := fs.WriteAt(th, "/big", 0, make([]byte, 32*BlockSize)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("32-block write with 31 blocks free = %v, want ErrNoSpace", err)
	}
	requireAborted(t, rt, th, fs, img0, free0)
	if err := fs.WriteAt(th, "/big", 0, make([]byte, 30*BlockSize)); err != nil {
		t.Fatalf("31-block write with 31 blocks free: %v", err)
	}
	if n := len(freeOrder(fs)); n != 0 {
		t.Fatalf("%d blocks free after the 31-block write, want 0", n)
	}
}

// TestAbortGivesDirentBlocksBack: a create whose directory needs two new
// blocks — its indirect block and a dirent block — with one free takes the
// indirect block and then fails; the abort gives it back, and the inode.
func TestAbortGivesDirentBlocksBack(t *testing.T) {
	rt := persist.NewRuntime("pmfs-test", "pmfs", 1, persist.Config{NoTrace: true})
	th := rt.Thread(0)
	fs := Format(rt, th, Options{Inodes: 2048, Blocks: 64})
	if err := fs.Mkdir(th, "/d"); err != nil {
		t.Fatal(err)
	}
	perBlock := BlockSize / direntSize
	for i := 0; i < numDirect*perBlock; i++ { // /d's direct blocks, full
		if err := fs.Create(th, fmt.Sprintf("/d/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Create(th, "/f"); err != nil {
		t.Fatal(err)
	}
	n := len(freeOrder(fs)) - 2 // data blocks past numDirect take an indirect block too
	if err := fs.WriteAt(th, "/f", 0, make([]byte, n*BlockSize)); err != nil {
		t.Fatal(err)
	}
	img0, free0 := metadataImage(rt, fs)
	inodes0 := slices.Clone(fs.freeInodes)
	if len(free0) != 1 {
		t.Fatalf("%d blocks free, want 1", len(free0))
	}
	if err := fs.Create(th, "/d/more"); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("create needing two blocks with one free = %v, want ErrNoSpace", err)
	}
	if !slices.Equal(fs.freeInodes, inodes0) {
		t.Fatal("the failed create kept its inode")
	}
	requireAborted(t, rt, th, fs, img0, free0)
}

// TestJournalOverflowIsAnError: a metadata transaction gets at most
// jrnlMaxEntries undo entries. A 254-block write to a new file takes 512
// — a bitmap word and a pointer per block, the same for the indirect
// block, the size and the mtime — and succeeds; a 255-block one would take
// 514, and returns an error with the filesystem as it was, where it used
// to panic. So does an unlink of a 300-block file, two entries a block.
func TestJournalOverflowIsAnError(t *testing.T) {
	rt := persist.NewRuntime("pmfs-test", "pmfs", 1, persist.Config{NoTrace: true})
	th := rt.Thread(0)
	fs := Format(rt, th, Options{})
	for _, f := range []string{"/a", "/b", "/c"} {
		if err := fs.Create(th, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteAt(th, "/a", 0, make([]byte, 254*BlockSize)); err != nil {
		t.Fatalf("254-block write: %v", err)
	}

	img0, free0 := metadataImage(rt, fs)
	if err := fs.WriteAt(th, "/b", 0, make([]byte, 255*BlockSize)); !errors.Is(err, errJournalFull) {
		t.Fatalf("255-block write = %v, want errJournalFull", err)
	}
	requireAborted(t, rt, th, fs, img0, free0)
	if info, err := fs.Stat(th, "/b"); err != nil || info.Size != 0 {
		t.Fatalf("/b after the failed write: %+v, %v; want empty", info, err)
	}

	for _, off := range []int{0, 150} {
		if err := fs.WriteAt(th, "/c", int64(off*BlockSize), make([]byte, 150*BlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	img0, free0 = metadataImage(rt, fs)
	if err := fs.Unlink(th, "/c"); !errors.Is(err, errJournalFull) {
		t.Fatalf("unlink of a 300-block file = %v, want errJournalFull", err)
	}
	requireAborted(t, rt, th, fs, img0, free0)
	if info, err := fs.Stat(th, "/c"); err != nil || info.Size != 300*BlockSize {
		t.Fatalf("/c after the failed unlink: %+v, %v; want 300 blocks", info, err)
	}
}
