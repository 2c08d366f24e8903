package fsapps

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmfs"
)

// The three filesystem-tier apps are unmodified legacy applications —
// persistence happens inside PMFS — so the crash checker's recovery unit
// is the filesystem image and its oracle a volatile model of the namespace
// and file contents. PMFS semantics drive what the oracle may demand of an
// interrupted call:
// metadata is journaled and therefore atomic, but user data is written with
// non-temporal stores and NOT journaled. A call that was in flight at the
// crash may land in its before or after state, and for an overwrite whose
// size does not change, bytes inside the written range may tear — each byte
// independently old or new. Everything outside the in-flight call must
// match the model exactly, and pmfs.Fsck must always pass.

// fsPending describes the call in flight when a crash hits: the acceptable
// recovered states of its path. before/after are file contents; the Ok
// flags distinguish empty files from absent ones. [lo, hi) is the byte
// range a torn data write may leave half-old/half-new.
type fsPending struct {
	path     string
	before   []byte
	beforeOk bool
	after    []byte
	afterOk  bool
	lo, hi   int
}

// Oracle wraps a filesystem, forwards every FS call to it unchanged and
// models what each must have done, errors included (ErrExists, ErrNotFound).
// It makes no filesystem call of its own until Check.
type Oracle struct {
	rt      *persist.Runtime
	fs      *pmfs.FS
	files   map[string][]byte
	dirs    map[string]bool
	touched map[string]bool // every file path ever used (absence universe)
	pending *fsPending
	err     error // first model/filesystem disagreement during execution
}

// NewOracle wraps fs, which must be freshly formatted.
func NewOracle(rt *persist.Runtime, fs *pmfs.FS) *Oracle {
	return &Oracle{
		rt: rt, fs: fs,
		files:   make(map[string][]byte),
		dirs:    make(map[string]bool),
		touched: make(map[string]bool),
	}
}

func (o *Oracle) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// file returns path's modeled contents and whether it exists, noting the
// path touched, and the error a call on it must return: nil, or ErrNotFound
// for a missing file.
func (o *Oracle) file(path string) ([]byte, bool, error) {
	o.touched[path] = true
	cur, ok := o.files[path]
	if !ok {
		return nil, false, pmfs.ErrNotFound
	}
	return cur, true, nil
}

// check holds call's error on path to the one the model wants, and
// reports whether the call succeeded as it should.
func (o *Oracle) check(call, path string, err, want error) bool {
	if want != nil && !errors.Is(err, want) || want == nil && err != nil {
		o.fail("fsoracle: %s %s: got %v, want %v", call, path, err, want)
	}
	return err == nil && want == nil
}

// mutate runs fn, a mutating call, with p pending: set just before the
// call and cleared just after, so if a crash interrupts the call the
// oracle knows exactly which path may be in either state. A call that
// succeeds as it should moves the model to p's after state.
func (o *Oracle) mutate(call string, p *fsPending, want error, fn func() error) error {
	o.pending = p
	err := fn()
	o.pending = nil
	if o.check(call, p.path, err, want) {
		if p.afterOk {
			o.files[p.path] = p.after
		} else {
			delete(o.files, p.path)
		}
	}
	return err
}

// Mkdir forwards to the filesystem and records the directory.
func (o *Oracle) Mkdir(th *persist.Thread, path string) error {
	err := o.fs.Mkdir(th, path)
	if o.check("mkdir", path, err, nil) {
		o.dirs[path] = true
	}
	return err
}

// Create forwards to the filesystem.
func (o *Oracle) Create(th *persist.Thread, path string) error {
	cur, ok, _ := o.file(path)
	p := &fsPending{path: path, before: cur, beforeOk: ok, after: []byte{}, afterOk: true}
	var want error
	if ok {
		p.after, want = cur, pmfs.ErrExists
	}
	return o.mutate("create", p, want, func() error { return o.fs.Create(th, path) })
}

// WriteAt forwards to the filesystem.
func (o *Oracle) WriteAt(th *persist.Thread, path string, off int64, data []byte) error {
	return o.write(path, int(off), data, func() error { return o.fs.WriteAt(th, path, off, data) })
}

// Append forwards to the filesystem; the model appends at its own size.
func (o *Oracle) Append(th *persist.Thread, path string, data []byte) error {
	return o.write(path, len(o.files[path]), data, func() error { return o.fs.Append(th, path, data) })
}

// write models data landing at off in path around fn.
func (o *Oracle) write(path string, off int, data []byte, fn func() error) error {
	cur, ok, want := o.file(path)
	var after []byte
	if ok {
		after = append([]byte(nil), cur...)
		for len(after) < off+len(data) {
			after = append(after, 0)
		}
		copy(after[off:], data)
	}
	return o.mutate("write", &fsPending{path: path, before: cur, beforeOk: ok, after: after, afterOk: ok,
		lo: off, hi: off + len(data)}, want, fn)
}

// Unlink forwards to the filesystem.
func (o *Oracle) Unlink(th *persist.Thread, path string) error {
	cur, ok, want := o.file(path)
	return o.mutate("unlink", &fsPending{path: path, before: cur, beforeOk: ok}, want,
		func() error { return o.fs.Unlink(th, path) })
}

// ReadAt forwards to the filesystem and holds the bytes read to the model.
func (o *Oracle) ReadAt(th *persist.Thread, path string, off int64, size int) ([]byte, error) {
	got, err := o.fs.ReadAt(th, path, off, size)
	cur, _, want := o.file(path)
	if o.check("read", path, err, want) && !bytes.Equal(got, cur[min(int(off), len(cur)):min(int(off)+size, len(cur))]) {
		o.fail("fsoracle: read %s: content diverged from model", path)
	}
	return got, err
}

// Stat forwards to the filesystem and holds the size to the model.
func (o *Oracle) Stat(th *persist.Thread, path string) (pmfs.Info, error) {
	st, err := o.fs.Stat(th, path)
	cur, _, want := o.file(path)
	if o.check("stat", path, err, want) && st.Size != int64(len(cur)) {
		o.fail("fsoracle: stat %s: size %d, model %d", path, st.Size, len(cur))
	}
	return st, err
}

// Fsync forwards to the filesystem.
func (o *Oracle) Fsync(th *persist.Thread, path string) error {
	err := o.fs.Fsync(th, path)
	if _, ok := o.files[path]; ok {
		o.check("fsync", path, err, nil)
	}
	return err
}

// Recover replays/aborts the PMFS journal and rebuilds volatile state.
func (o *Oracle) Recover() { o.fs.Recover(o.rt.Thread(0)) }

// Check validates the recovered filesystem against the model as thread
// tid: structural fsck, every directory present, every touched path in its
// modeled state — or, for the one call in flight at the crash, in its
// before or after state with byte-level tearing allowed only inside the
// written range. Paths are checked in name order, so the violation named
// is always the same one.
func (o *Oracle) Check(tid int) error {
	if o.err != nil {
		return o.err
	}
	th := o.rt.Thread(tid)
	if err := o.fs.Fsck(th); err != nil {
		return err
	}
	for _, dir := range sortedPaths(o.dirs) {
		st, err := o.fs.Stat(th, dir)
		if err != nil || !st.IsDir {
			return fmt.Errorf("fsoracle: directory %s missing after recovery (%v)", dir, err)
		}
	}
	for _, path := range sortedPaths(o.touched) {
		if o.pending != nil && o.pending.path == path {
			if err := o.checkEither(th, o.pending); err != nil {
				return err
			}
			continue
		}
		if err := o.checkExact(th, path, o.files[path]); err != nil {
			return err
		}
	}
	return nil
}

func sortedPaths(set map[string]bool) []string {
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// checkExact requires path to match the model state exactly (acknowledged
// operations must survive; absent paths must stay absent).
func (o *Oracle) checkExact(th *persist.Thread, path string, want []byte) error {
	_, ok := o.files[path]
	st, err := o.fs.Stat(th, path)
	if !ok {
		if !errors.Is(err, pmfs.ErrNotFound) {
			return fmt.Errorf("fsoracle: %s should be absent, stat: %v", path, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("fsoracle: acknowledged file %s lost: %v", path, err)
	}
	if st.Size != int64(len(want)) {
		return fmt.Errorf("fsoracle: %s size %d, want %d", path, st.Size, len(want))
	}
	got, err := o.fs.ReadAt(th, path, 0, len(want))
	if err != nil {
		return fmt.Errorf("fsoracle: reading %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("fsoracle: %s content corrupted", path)
	}
	return nil
}

// checkEither validates the path whose call was interrupted by the crash.
func (o *Oracle) checkEither(th *persist.Thread, p *fsPending) error {
	st, err := o.fs.Stat(th, p.path)
	if err != nil {
		if !errors.Is(err, pmfs.ErrNotFound) {
			return fmt.Errorf("fsoracle: stat in-flight %s: %v", p.path, err)
		}
		if p.beforeOk && p.afterOk {
			return fmt.Errorf("fsoracle: %s existed before the in-flight call but vanished", p.path)
		}
		return nil // legally absent (create rolled back, or unlink committed)
	}
	size := int(st.Size)
	if !(p.beforeOk && size == len(p.before)) && !(p.afterOk && size == len(p.after)) {
		return fmt.Errorf("fsoracle: in-flight %s size %d matches neither before (%d) nor after (%d)",
			p.path, size, len(p.before), len(p.after))
	}
	got, err := o.fs.ReadAt(th, p.path, 0, size)
	if err != nil {
		return fmt.Errorf("fsoracle: reading in-flight %s: %v", p.path, err)
	}
	for i := 0; i < size; i++ {
		inRange := i >= p.lo && i < p.hi
		okOld := p.beforeOk && i < len(p.before) && got[i] == p.before[i]
		okNew := p.afterOk && i < len(p.after) && got[i] == p.after[i]
		if inRange {
			if !okOld && !okNew {
				return fmt.Errorf("fsoracle: in-flight %s byte %d is neither old nor new", p.path, i)
			}
			continue
		}
		if !okOld && !okNew {
			return fmt.Errorf("fsoracle: in-flight %s byte %d outside written range corrupted", p.path, i)
		}
	}
	return nil
}
