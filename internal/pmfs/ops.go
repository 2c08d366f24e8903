package pmfs

import (
	"github.com/whisper-pm/whisper/internal/mem"
	"github.com/whisper-pm/whisper/internal/persist"
)

// This file implements the system-call surface. Every call is bracketed in
// TxBegin/TxEnd so the epoch analysis treats system calls as transactions,
// and every call persists synchronously: metadata under the undo journal,
// user data via non-temporal stores + sfence (one epoch per 4 KB block).

// Info describes a file, as returned by Stat.
type Info struct {
	Ino   uint32
	IsDir bool
	Size  int64
	Nlink int
}

// Create makes an empty regular file. It fails if the file exists.
func (fs *FS) Create(th *persist.Thread, path string) error { return fs.create(th, path, typeFile) }

// Mkdir makes an empty directory.
func (fs *FS) Mkdir(th *persist.Thread, path string) error { return fs.create(th, path, typeDir) }

// create makes an empty inode of type typ at path, failing if path exists.
func (fs *FS) create(th *persist.Thread, path string, typ uint64) error {
	th.TxBegin()
	defer th.TxEnd()
	dir, name, err := fs.resolveParent(th, path)
	if err != nil {
		return err
	}
	if _, err := fs.lookupEntry(th, dir, name); err == nil {
		return ErrExists
	}
	mt := fs.begin(th)
	ino, err := fs.allocInode(th, mt, typ)
	if err == nil {
		err = fs.addDirent(th, mt, dir, name, ino)
	}
	if err != nil {
		mt.abort()
		return err
	}
	return mt.commit()
}

// WriteAt writes data at the byte offset off, extending the file as
// needed. User data is written with NTIs and fenced per 4 KB block; the
// inode update runs under the metadata journal.
func (fs *FS) WriteAt(th *persist.Thread, path string, off int64, data []byte) error {
	th.TxBegin()
	defer th.TxEnd()
	if off < 0 {
		return ErrBadOffset
	}
	ino, err := fs.lookup(th, path)
	if err != nil {
		return err
	}
	ia := fs.inodeAddr(ino)
	if th.LoadU64(ia+offType) != typeFile {
		return ErrIsDir
	}
	if off+int64(len(data)) > MaxFileSize {
		return ErrTooLarge
	}

	mt := fs.begin(th)
	pos := uint64(off)
	rest := data
	for len(rest) > 0 {
		ba, err := fs.blockForWrite(th, mt, ino, pos)
		if err != nil {
			mt.abort()
			return err
		}
		inBlock := int(pos % BlockSize)
		n := BlockSize - inBlock
		if n > len(rest) {
			n = len(rest)
		}
		// User data: NTI + sfence, not journaled (PMFS design).
		th.StoreNT(ba+mem.Addr(inBlock), rest[:n])
		th.Fence()
		pos += uint64(n)
		rest = rest[n:]
	}
	th.UserData(len(data))

	if newSize := uint64(off) + uint64(len(data)); newSize > th.LoadU64(ia+offSize) {
		mt.writeU64(ia+offSize, newSize)
	}
	mt.writeU64(ia+offMtime, uint64(fs.rt.Clock.Now()))
	return mt.commit()
}

// Append writes data at the end of the file.
func (fs *FS) Append(th *persist.Thread, path string, data []byte) error {
	ino, err := fs.lookup(th, path)
	if err != nil {
		return err
	}
	size := th.LoadU64(fs.inodeAddr(ino) + offSize)
	return fs.WriteAt(th, path, int64(size), data)
}

// ReadAt reads up to size bytes at offset off. Reads past EOF are
// truncated.
func (fs *FS) ReadAt(th *persist.Thread, path string, off int64, size int) ([]byte, error) {
	th.TxBegin()
	defer th.TxEnd()
	if off < 0 {
		return nil, ErrBadOffset
	}
	ino, err := fs.lookup(th, path)
	if err != nil {
		return nil, err
	}
	ia := fs.inodeAddr(ino)
	if th.LoadU64(ia+offType) != typeFile {
		return nil, ErrIsDir
	}
	fileSize := int64(th.LoadU64(ia + offSize))
	if off >= fileSize {
		return nil, nil
	}
	if off+int64(size) > fileSize {
		size = int(fileSize - off)
	}
	out := make([]byte, size)
	pos := uint64(off)
	for rest := out; len(rest) > 0; {
		ba, err := fs.blockForRead(th, ino, pos)
		if err != nil {
			return nil, err
		}
		inBlock := int(pos % BlockSize)
		n := min(BlockSize-inBlock, len(rest))
		th.LoadInto(ba+mem.Addr(inBlock), rest[:n])
		pos += uint64(n)
		rest = rest[n:]
	}
	return out, nil
}

// Unlink removes a file (or an empty directory via Rmdir semantics when
// the target is a directory with no entries).
func (fs *FS) Unlink(th *persist.Thread, path string) error {
	th.TxBegin()
	defer th.TxEnd()
	dir, name, err := fs.resolveParent(th, path)
	if err != nil {
		return err
	}
	ino, err := fs.lookupEntry(th, dir, name)
	if err != nil {
		return err
	}
	ia := fs.inodeAddr(ino)
	if th.LoadU64(ia+offType) == typeDir {
		s := fs.scanDir(th, ino)
		if s.next() {
			return ErrNotEmpty
		}
		if s.err != nil {
			return s.err
		}
	}

	mt := fs.begin(th)
	// Remove the directory entry. The directory is scanned again for the
	// entry's address; a scan that fails now (a corrupt image) must not
	// turn into a journalled write to address 0.
	entryAddr, _, err := fs.findEntry(th, dir, name)
	if err != nil {
		mt.abort()
		return err
	}
	mt.writeU64(entryAddr, 0) // ino = 0 marks the slot deleted

	nlink := th.LoadU64(ia + offNlink)
	if nlink > 1 {
		mt.writeU64(ia+offNlink, nlink-1)
		return mt.commit()
	}
	// Last link: free data blocks, then the inode.
	fs.freeFileBlocks(th, mt, ino)
	mt.writeU64(ia+offNlink, 0)
	mt.writeU64(ia+offSize, 0)
	mt.writeU64(ia+offType, typeFree)
	if err := mt.commit(); err != nil {
		return err
	}
	fs.freeInodes = append(fs.freeInodes, ino)
	return nil
}

func (fs *FS) freeFileBlocks(th *persist.Thread, mt *mdTx, ino uint32) {
	ia := fs.inodeAddr(ino)
	for i := 0; i < numDirect; i++ {
		slot := ia + offDirect + mem.Addr(i*8)
		if ptr := th.LoadU64(slot); ptr != 0 {
			fs.freeBlock(th, mt, uint32(ptr-1))
			mt.writeU64(slot, 0)
		}
	}
	if ind := th.LoadU64(ia + offIndir); ind != 0 {
		indBlk := fs.blockAddr(uint32(ind - 1))
		for i := 0; i < ptrsPerBlk; i++ {
			slot := indBlk + mem.Addr(i*8)
			if ptr := th.LoadU64(slot); ptr != 0 {
				fs.freeBlock(th, mt, uint32(ptr-1))
				mt.writeU64(slot, 0)
			}
		}
		fs.freeBlock(th, mt, uint32(ind-1))
		mt.writeU64(ia+offIndir, 0)
	}
}

// Stat returns metadata about path.
func (fs *FS) Stat(th *persist.Thread, path string) (Info, error) {
	th.TxBegin()
	defer th.TxEnd()
	ino, err := fs.lookup(th, path)
	if err != nil {
		return Info{}, err
	}
	ia := fs.inodeAddr(ino)
	return Info{
		Ino:   ino,
		IsDir: th.LoadU64(ia+offType) == typeDir,
		Size:  int64(th.LoadU64(ia + offSize)),
		Nlink: int(th.LoadU64(ia + offNlink)),
	}, nil
}

// Readdir lists the names in a directory.
func (fs *FS) Readdir(th *persist.Thread, path string) ([]string, error) {
	th.TxBegin()
	defer th.TxEnd()
	ino := uint32(rootIno)
	if p := trimmed(path); p != "" {
		var err error
		ino, err = fs.lookup(th, path)
		if err != nil {
			return nil, err
		}
	}
	var names []string
	s := fs.scanDir(th, ino)
	for s.next() {
		names = append(names, string(s.name()))
	}
	return names, s.err
}

// Fsync is a no-op: PMFS persists synchronously. It still brackets a
// transaction so traces show the call.
func (fs *FS) Fsync(th *persist.Thread, path string) error {
	th.TxBegin()
	defer th.TxEnd()
	_, err := fs.lookup(th, path)
	return err
}

// --- internals -----------------------------------------------------------

func trimmed(p string) string {
	for len(p) > 0 && p[0] == '/' {
		p = p[1:]
	}
	for len(p) > 0 && p[len(p)-1] == '/' {
		p = p[:len(p)-1]
	}
	return p
}

// resolveParent returns the inode of path's parent directory and the final
// name component.
func (fs *FS) resolveParent(th *persist.Thread, path string) (uint32, string, error) {
	dirs, name, err := splitPath(path)
	if err != nil {
		return 0, "", err
	}
	dir, err := fs.lookupDir(th, dirs)
	if err != nil {
		return 0, "", err
	}
	return dir, name, nil
}

// lookup resolves a full path to an inode number.
func (fs *FS) lookup(th *persist.Thread, path string) (uint32, error) {
	dir, name, err := fs.resolveParent(th, path)
	if err != nil {
		return 0, err
	}
	return fs.lookupEntry(th, dir, name)
}

// addDirent inserts (name, ino) into directory dir, reusing a deleted slot
// or extending the directory.
func (fs *FS) addDirent(th *persist.Thread, mt *mdTx, dir uint32, name string, ino uint32) error {
	ia := fs.inodeAddr(dir)
	size := th.LoadU64(ia + offSize)
	// Reuse a deleted slot if one exists.
	var slot mem.Addr
	for off := uint64(0); off < size; off += direntSize {
		ba, err := fs.blockForRead(th, dir, off)
		if err != nil {
			return err
		}
		entry := ba + mem.Addr(off%BlockSize)
		if th.LoadU64(entry) == 0 {
			slot = entry
			break
		}
	}
	if slot == 0 {
		ba, err := fs.blockForWrite(th, mt, dir, size)
		if err != nil {
			return err
		}
		slot = ba + mem.Addr(size%BlockSize)
		mt.writeU64(ia+offSize, size+direntSize)
	}
	// One contiguous journaled write covers ino and the NUL-terminated
	// name (slot reuse may leave stale bytes past the NUL; lookups stop at
	// the NUL, so they are harmless). The journal makes the entry atomic.
	buf := make([]byte, 8+len(name)+1)
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(ino) >> (8 * i))
	}
	copy(buf[8:], name)
	mt.write(slot, buf)
	return nil
}
