// Package pmfs implements a PMFS-style persistent-memory filesystem, the
// filesystem access layer of WHISPER (§3.1).
//
// Like the original PMFS (Dulloor et al., EuroSys 2014) it:
//
//   - stores user data in 4 KB blocks and writes it with non-temporal
//     stores followed by an sfence — user data is NOT journaled, and a
//     4 KB block write is one 64-line epoch (the Figure 4 signature);
//   - keeps metadata (inodes, directory entries, allocation bitmap) in PM
//     and protects it with an undo journal: cacheable stores, flushes and
//     fences, with the journal descriptor walked through
//     UNCOMMITTED → COMMITTED → FREE states — the self-dependency source
//     the paper calls out in §5.1;
//   - clears each journal entry in its own epoch (singleton epochs);
//   - persists synchronously: when a call returns, its effects are
//     durable.
//
// Every filesystem call is bracketed by TxBegin/TxEnd so the epoch
// analysis sees system calls as transactions, mirroring how the paper's
// tracing treats PMFS.
package pmfs

import (
	"errors"
	"fmt"
	"strings"

	"github.com/whisper-pm/whisper/internal/alloc"
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// Errors returned by filesystem operations.
var (
	ErrNotFound  = errors.New("pmfs: no such file or directory")
	ErrExists    = errors.New("pmfs: file exists")
	ErrNotDir    = errors.New("pmfs: not a directory")
	ErrIsDir     = errors.New("pmfs: is a directory")
	ErrNoSpace   = errors.New("pmfs: no space left on device")
	ErrNameLong  = errors.New("pmfs: file name too long")
	ErrNotEmpty  = errors.New("pmfs: directory not empty")
	ErrTooLarge  = errors.New("pmfs: file too large")
	ErrBadOffset = errors.New("pmfs: negative offset")
)

// Geometry.
const (
	BlockSize = 4096
	inodeSize = 256

	// Inode layout offsets (all fields uint64).
	offType    = 0
	offSize    = 8
	offNlink   = 16
	offMtime   = 24
	offDirect  = 32 // 16 direct block pointers
	numDirect  = 16
	offIndir   = offDirect + numDirect*8
	ptrsPerBlk = BlockSize / 8

	// MaxFileSize is the largest representable file.
	MaxFileSize = (numDirect + ptrsPerBlk) * BlockSize

	typeFree = uint64(0)
	typeFile = uint64(1)
	typeDir  = uint64(2)

	// Directory entry: 64 bytes = ino u64 + name[56] (NUL padded).
	direntSize = 64
	maxName    = 55

	rootIno = 1
)

// Options tune the filesystem.
type Options struct {
	Inodes int // number of inodes (default 4096)
	Blocks int // number of 4 KB data blocks (default 16384)
}

func (o Options) withDefaults() Options {
	if o.Inodes == 0 {
		o.Inodes = 4096
	}
	if o.Blocks == 0 {
		o.Blocks = 16384
	}
	return o
}

// FS is a mounted PMFS instance.
type FS struct {
	rt   *persist.Runtime
	opts Options

	inodes mem.Addr // opts.Inodes * inodeSize
	bitmap mem.Addr // opts.Blocks/64 words of block-allocation bits
	data   mem.Addr // opts.Blocks * BlockSize
	jrnl   *journal

	// freeBlocks and freeInodes are volatile allocation hints rebuilt by
	// Recover; the persistent truth is the bitmap and inode types.
	freeBlocks alloc.FreeWords
	freeInodes []uint32
}

// Format creates and mounts a fresh filesystem with an empty root
// directory. The formatting writes are persisted before Format returns.
func Format(rt *persist.Runtime, th *persist.Thread, opts Options) *FS {
	opts = opts.withDefaults()
	opts.Blocks = (opts.Blocks + 63) &^ 63
	fs := &FS{
		rt:     rt,
		opts:   opts,
		inodes: rt.Dev.Map(opts.Inodes * inodeSize),
		bitmap: rt.Dev.Map(opts.Blocks / 8),
		data:   rt.Dev.Map(opts.Blocks * BlockSize),
		jrnl:   newJournal(rt),
	}
	// Root directory: inode 1, empty, one link.
	root := fs.inodeAddr(rootIno)
	th.StoreU64(root+offType, typeDir)
	th.StoreU64(root+offSize, 0)
	th.StoreU64(root+offNlink, 1)
	th.Flush(root, inodeSize)
	th.Fence()
	fs.rebuildFreeLists(th)
	return fs
}

func (fs *FS) inodeAddr(ino uint32) mem.Addr {
	return fs.inodes + mem.Addr(int(ino)*inodeSize)
}

func (fs *FS) blockAddr(blk uint32) mem.Addr {
	return fs.data + mem.Addr(int(blk)*BlockSize)
}

// rebuildFreeLists scans persistent metadata to rebuild volatile
// allocation hints (mount/recovery path), bitmap words highest first.
func (fs *FS) rebuildFreeLists(th *persist.Thread) {
	fs.freeBlocks = fs.freeBlocks[:0]
	for w := fs.opts.Blocks/64 - 1; w >= 0; w-- {
		fs.freeBlocks.Push(w, ^th.LoadU64(fs.bitmap+mem.Addr(w*8)))
	}
	fs.freeInodes = fs.freeInodes[:0]
	for i := fs.opts.Inodes - 1; i >= 2; i-- { // 0 invalid, 1 root
		if th.LoadU64(fs.inodeAddr(uint32(i))+offType) == typeFree {
			fs.freeInodes = append(fs.freeInodes, uint32(i))
		}
	}
}

// Recover replays/aborts the metadata journal after a crash and rebuilds
// the volatile allocation state. Call before using a crashed filesystem.
func (fs *FS) Recover(th *persist.Thread) {
	fs.jrnl.recover(th)
	fs.rebuildFreeLists(th)
}

// allocBlock reserves a data block inside the metadata transaction mt. It
// fails if the block or its bitmap entry does not fit, and mt's abort then
// gives the block back.
func (fs *FS) allocBlock(th *persist.Thread, mt *mdTx) (uint32, error) {
	b, ok := mt.popBlock()
	if !ok {
		return 0, ErrNoSpace
	}
	blk := uint32(b)
	word := fs.bitmap + mem.Addr(blk/64*8)
	v := th.LoadU64(word)
	mt.writeU64(word, v|1<<uint(blk%64))
	th.VStore(1)
	return blk, mt.err
}

// freeBlock releases a data block inside mt.
func (fs *FS) freeBlock(th *persist.Thread, mt *mdTx, blk uint32) {
	word := fs.bitmap + mem.Addr(blk/64*8)
	v := th.LoadU64(word)
	mt.writeU64(word, v&^(1<<uint(blk%64)))
	fs.freeBlocks.Push(int(blk/64), 1<<uint(blk%64))
	th.VStore(1)
}

// allocInode reserves an inode number inside mt and initializes its type.
func (fs *FS) allocInode(th *persist.Thread, mt *mdTx, typ uint64) (uint32, error) {
	if len(fs.freeInodes) == 0 {
		return 0, ErrNoSpace
	}
	ino := fs.freeInodes[len(fs.freeInodes)-1]
	fs.freeInodes = fs.freeInodes[:len(fs.freeInodes)-1]
	mt.ino = ino
	ia := fs.inodeAddr(ino)
	// type, size and nlink are contiguous: one journal entry covers the
	// whole initialization.
	var init [24]byte
	for i := 0; i < 8; i++ {
		init[i] = byte(typ >> (8 * i))
	}
	init[16] = 1 // nlink = 1
	mt.write(ia+offType, init[:])
	th.VStore(1)
	return ino, nil
}

// splitPath returns the parent directory's path (slash-separated, empty for
// the root) and the final name. Both are substrings of path: resolving a
// path allocates nothing.
func splitPath(path string) (string, string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return "", "", ErrExists // the root itself
	}
	dirs, name := "", path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		dirs, name = path[:i], path[i+1:]
	}
	if len(name) > maxName {
		return "", "", ErrNameLong
	}
	return dirs, name, nil
}

// lookupDir walks the directory components of dirs and returns the
// directory's inode number.
func (fs *FS) lookupDir(th *persist.Thread, dirs string) (uint32, error) {
	ino := uint32(rootIno)
	for dirs != "" {
		var c string
		c, dirs, _ = strings.Cut(dirs, "/")
		next, err := fs.lookupEntry(th, ino, c)
		if err != nil {
			return 0, err
		}
		if th.LoadU64(fs.inodeAddr(next)+offType) != typeDir {
			return 0, ErrNotDir
		}
		ino = next
	}
	return ino, nil
}

// lookupEntry scans the directory blocks of dir for name.
func (fs *FS) lookupEntry(th *persist.Thread, dir uint32, name string) (uint32, error) {
	_, found, err := fs.findEntry(th, dir, name)
	return found, err
}

// findEntry scans the directory blocks of dir for name and returns the
// entry's address and inode number, or ErrNotFound.
func (fs *FS) findEntry(th *persist.Thread, dir uint32, name string) (mem.Addr, uint32, error) {
	s := fs.scanDir(th, dir)
	for s.next() {
		if string(s.name()) == name {
			return s.entry, s.ino, nil
		}
	}
	if s.err != nil {
		return 0, 0, s.err
	}
	return 0, 0, ErrNotFound
}

// dirScan walks the live entries of one directory. It is a value on its
// caller's stack and reads each name into its own buffer, so a scan
// allocates nothing; a caller that keeps a name copies it.
type dirScan struct {
	fs        *FS
	th        *persist.Thread
	dir       uint32
	off, size uint64
	err       error // why next stopped early, if it did

	// The current entry, valid until the next call of next.
	entry   mem.Addr
	ino     uint32
	raw     [maxName + 1]byte
	nameLen int
}

// name returns the current entry's name, a view of the scan's buffer.
func (s *dirScan) name() []byte { return s.raw[:s.nameLen] }

// scanDir starts a scan of dir's entries; a dir that is not a directory
// yields none and leaves ErrNotDir in err.
func (fs *FS) scanDir(th *persist.Thread, dir uint32) dirScan {
	s := dirScan{fs: fs, th: th, dir: dir}
	ia := fs.inodeAddr(dir)
	if th.LoadU64(ia+offType) != typeDir {
		s.err = ErrNotDir
		return s
	}
	s.size = th.LoadU64(ia + offSize)
	return s
}

// next advances to the next live entry and reports whether there is one.
func (s *dirScan) next() bool {
	for s.err == nil && s.off < s.size {
		off := s.off
		s.off += direntSize
		ba, err := s.fs.blockForRead(s.th, s.dir, off)
		if err != nil {
			s.err = err
			break
		}
		s.entry = ba + mem.Addr(off%BlockSize)
		s.ino = uint32(s.th.LoadU64(s.entry))
		if s.ino == 0 {
			continue // deleted entry
		}
		s.th.LoadInto(s.entry+8, s.raw[:])
		s.nameLen = indexByte(s.raw[:], 0)
		return true
	}
	return false
}

func indexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return len(b)
}

// blockForRead returns the data-block address holding file offset off.
func (fs *FS) blockForRead(th *persist.Thread, ino uint32, off uint64) (mem.Addr, error) {
	idx := int(off / BlockSize)
	ia := fs.inodeAddr(ino)
	var ptr uint64
	switch {
	case idx < numDirect:
		ptr = th.LoadU64(ia + offDirect + mem.Addr(idx*8))
	case idx < numDirect+ptrsPerBlk:
		ind := th.LoadU64(ia + offIndir)
		if ind == 0 {
			return 0, fmt.Errorf("pmfs: hole at offset %d", off)
		}
		ptr = th.LoadU64(fs.blockAddr(uint32(ind-1)) + mem.Addr((idx-numDirect)*8))
	default:
		return 0, ErrTooLarge
	}
	if ptr == 0 {
		return 0, fmt.Errorf("pmfs: hole at offset %d", off)
	}
	// Block pointers are stored +1 so zero means "absent".
	return fs.blockAddr(uint32(ptr - 1)), nil
}

// blockForWrite returns the data-block address for file offset off,
// allocating the block (and the indirect block) inside mt if needed.
func (fs *FS) blockForWrite(th *persist.Thread, mt *mdTx, ino uint32, off uint64) (mem.Addr, error) {
	idx := int(off / BlockSize)
	ia := fs.inodeAddr(ino)
	var slot mem.Addr
	switch {
	case idx < numDirect:
		slot = ia + offDirect + mem.Addr(idx*8)
	case idx < numDirect+ptrsPerBlk:
		ind := th.LoadU64(ia + offIndir)
		if ind == 0 {
			blk, err := fs.allocBlock(th, mt)
			if err != nil {
				return 0, err
			}
			mt.writeU64(ia+offIndir, uint64(blk)+1)
			ind = uint64(blk) + 1
		}
		slot = fs.blockAddr(uint32(ind-1)) + mem.Addr((idx-numDirect)*8)
	default:
		return 0, ErrTooLarge
	}
	ptr := th.LoadU64(slot)
	if ptr == 0 {
		blk, err := fs.allocBlock(th, mt)
		if err != nil {
			return 0, err
		}
		mt.writeU64(slot, uint64(blk)+1)
		ptr = uint64(blk) + 1
	}
	return fs.blockAddr(uint32(ptr - 1)), mt.err
}
