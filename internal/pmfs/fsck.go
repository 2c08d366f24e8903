package pmfs

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// Fsck verifies the filesystem's structural invariants over the persistent
// image, the way a real fsck audits a disk after an unclean mount:
//
//   - the namespace is a tree: every directory is reachable from the root
//     exactly once, every dirent points at a live inode, names are
//     well-formed;
//   - block pointers are in range and no data block is referenced twice;
//   - the allocation bitmap matches reachability exactly: every referenced
//     block is marked allocated and every allocated block is referenced
//     (journaled metadata transactions make leaks a bug, not a trade-off);
//   - every non-free inode is reachable and carries nlink == 1 (this FS
//     never creates hard links);
//   - directory sizes are dirent-aligned and file sizes representable.
//
// It must be called after Recover on a crashed image; with the journal
// rolled back, any remaining violation is a crash-consistency bug.
func (fs *FS) Fsck(th *persist.Thread) error {
	refBlocks := make(map[uint32]uint32) // data block -> owning inode
	reachable := make(map[uint32]bool)

	reachable[rootIno] = true
	if err := fs.fsckInodeBlocks(th, rootIno, refBlocks); err != nil {
		return err
	}
	queue := []uint32{rootIno}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		ia := fs.inodeAddr(dir)
		if th.LoadU64(ia+offType) != typeDir {
			return fmt.Errorf("fsck: inode %d queued as directory but is not one", dir)
		}
		size := th.LoadU64(ia + offSize)
		if size%direntSize != 0 {
			return fmt.Errorf("fsck: directory %d size %d not dirent-aligned", dir, size)
		}
		for off := uint64(0); off < size; off += direntSize {
			ba, err := fs.blockForRead(th, dir, off)
			if err != nil {
				return fmt.Errorf("fsck: directory %d offset %d: %w", dir, off, err)
			}
			entry := ba + mem.Addr(off%BlockSize)
			ino := uint32(th.LoadU64(entry))
			if ino == 0 {
				continue // deleted slot
			}
			if ino < 1 || int(ino) >= fs.opts.Inodes {
				return fmt.Errorf("fsck: directory %d holds out-of-range inode %d", dir, ino)
			}
			var raw [maxName + 1]byte
			th.LoadInto(entry+8, raw[:])
			name := raw[:indexByte(raw[:], 0)]
			if len(name) == 0 {
				return fmt.Errorf("fsck: directory %d holds dirent with empty name (inode %d)", dir, ino)
			}
			if reachable[ino] {
				return fmt.Errorf("fsck: inode %d referenced twice (second parent %d)", ino, dir)
			}
			reachable[ino] = true
			switch th.LoadU64(fs.inodeAddr(ino) + offType) {
			case typeDir:
				queue = append(queue, ino)
			case typeFile:
			default:
				return fmt.Errorf("fsck: dirent %q in directory %d points at free inode %d", string(name), dir, ino)
			}
			if err := fs.fsckInodeBlocks(th, ino, refBlocks); err != nil {
				return err
			}
		}
	}

	for i := 1; i < fs.opts.Inodes; i++ {
		ino := uint32(i)
		typ := th.LoadU64(fs.inodeAddr(ino) + offType)
		if typ == typeFree {
			if reachable[ino] {
				return fmt.Errorf("fsck: reachable inode %d marked free", ino)
			}
			continue
		}
		if !reachable[ino] {
			return fmt.Errorf("fsck: allocated inode %d (type %d) unreachable from root", ino, typ)
		}
		if nlink := th.LoadU64(fs.inodeAddr(ino) + offNlink); nlink != 1 {
			return fmt.Errorf("fsck: inode %d has nlink %d, want 1", ino, nlink)
		}
	}

	for w := 0; w < fs.opts.Blocks/64; w++ {
		v := th.LoadU64(fs.bitmap + mem.Addr(w*8))
		for b := 0; b < 64; b++ {
			blk := uint32(w*64 + b)
			allocated := v&(1<<uint(b)) != 0
			_, referenced := refBlocks[blk]
			if allocated && !referenced {
				return fmt.Errorf("fsck: block %d allocated but unreferenced (leak)", blk)
			}
			if referenced && !allocated {
				return fmt.Errorf("fsck: block %d referenced by inode %d but marked free", blk, refBlocks[blk])
			}
		}
	}
	return nil
}

// fsckInodeBlocks validates ino's block pointers and records each data
// block (including the indirect block itself) in ref, failing on
// out-of-range pointers and double references.
func (fs *FS) fsckInodeBlocks(th *persist.Thread, ino uint32, ref map[uint32]uint32) error {
	ia := fs.inodeAddr(ino)
	if size := th.LoadU64(ia + offSize); size > MaxFileSize {
		return fmt.Errorf("fsck: inode %d size %d exceeds maximum", ino, size)
	}
	claim := func(ptr uint64) error {
		blk := uint32(ptr - 1)
		if int(blk) >= fs.opts.Blocks {
			return fmt.Errorf("fsck: inode %d holds out-of-range block %d", ino, blk)
		}
		if owner, dup := ref[blk]; dup {
			return fmt.Errorf("fsck: block %d referenced by both inode %d and inode %d", blk, owner, ino)
		}
		ref[blk] = ino
		return nil
	}
	for i := 0; i < numDirect; i++ {
		if ptr := th.LoadU64(ia + offDirect + mem.Addr(i*8)); ptr != 0 {
			if err := claim(ptr); err != nil {
				return err
			}
		}
	}
	if ind := th.LoadU64(ia + offIndir); ind != 0 {
		if err := claim(ind); err != nil {
			return err
		}
		indBlk := fs.blockAddr(uint32(ind - 1))
		for i := 0; i < ptrsPerBlk; i++ {
			if ptr := th.LoadU64(indBlk + mem.Addr(i*8)); ptr != 0 {
				if err := claim(ptr); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
