// Package fsapps drives the three unmodified legacy applications of
// WHISPER's filesystem tier (§3.2.3) against the PMFS substrate:
//
//   - NFS: an exported PMFS volume exercised with the filebench
//     fileserver profile (8 clients);
//   - Exim: the mail server driven by postal — each delivery receives a
//     message, appends it to a per-user mailbox, and logs the delivery;
//   - MySQL: the OLTP-complex sysbench workload — page reads/writes on a
//     table file plus redo-log appends and fsyncs.
//
// The applications themselves perform no PM instructions: every PM access
// happens inside PMFS (system-call persistence), exactly as in the paper.
package fsapps

import (
	"fmt"

	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmfs"
	"github.com/whisper-pm/whisper/internal/workload"
)

// FS is the method set the three workloads drive: a *pmfs.FS, or the crash
// checker's Oracle wrapping one and forwarding every call unchanged.
type FS interface {
	Mkdir(th *persist.Thread, path string) error
	Create(th *persist.Thread, path string) error
	WriteAt(th *persist.Thread, path string, off int64, data []byte) error
	Append(th *persist.Thread, path string, data []byte) error
	ReadAt(th *persist.Thread, path string, off int64, size int) ([]byte, error)
	Stat(th *persist.Thread, path string) (pmfs.Info, error)
	Unlink(th *persist.Thread, path string) error
	Fsync(th *persist.Thread, path string) error
}

// Workload is one of the three filesystem workloads. A call's error is
// part of the workload, not a failure of it: the fileserver's clients
// each keep their own view of which files exist, so some of their
// creates find the file there and some writes and unlinks find it gone.
type Workload struct {
	rt *persist.Runtime
	op func(th *persist.Thread, tid int)
}

// Op runs client tid's i-th operation.
func (w *Workload) Op(tid, i int) { w.op(w.rt.Thread(tid), tid) }

// must panics on a setup call's error: the namespace a workload starts
// from is not optional.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("fsapps: setup: %v", err))
	}
}

// SetupNFS prepares the filebench fileserver profile: clients create,
// write, read, append, stat and delete files in a shared directory.
func SetupNFS(rt *persist.Runtime, fs FS, clients int, seed int64) *Workload {
	must(fs.Mkdir(rt.Thread(0), "/files"))
	gens := make([]*workload.Fileserver, clients)
	for c := range gens {
		gens[c] = workload.NewFileserver(seed+int64(c)*31, 48, 48)
	}
	payload := make([]byte, 64<<10)
	return &Workload{rt: rt, op: func(th *persist.Thread, tid int) {
		op := gens[tid].Next()
		// The NFS server adds RPC decode/encode and dcache work on the
		// volatile side.
		th.Compute(64000)
		th.VLoad(80)
		switch op.Kind {
		case workload.FileCreate:
			fs.Create(th, op.Path)
		case workload.FileWrite:
			fs.WriteAt(th, op.Path, 0, payload[:clamp(op.Size, len(payload))])
		case workload.FileAppend:
			fs.Append(th, op.Path, payload[:clamp(op.Size, len(payload))])
		case workload.FileRead:
			fs.ReadAt(th, op.Path, 0, clamp(op.Size, len(payload)))
		case workload.FileStat:
			fs.Stat(th, op.Path)
		case workload.FileDelete:
			fs.Unlink(th, op.Path)
		}
	}}
}

func clamp(v, max int) int {
	if v > max {
		return max
	}
	if v < 1 {
		return 1
	}
	return v
}

// SetupExim prepares the postal profile over 250 mailboxes: each delivery
// spools the message, appends it to the recipient's mailbox, logs the
// delivery, and removes the spool file — Exim's receive/deliver/log
// pipeline.
func SetupExim(rt *persist.Runtime, fs FS, clients int, seed int64) *Workload {
	th0 := rt.Thread(0)
	for _, dir := range []string{"/mail", "/spool", "/log"} {
		must(fs.Mkdir(th0, dir))
	}
	must(fs.Create(th0, "/log/mainlog"))
	// Pre-create the mailboxes (Exim's setup).
	for i := 0; i < 250; i++ {
		must(fs.Create(th0, fmt.Sprintf("/mail/user%03d", i)))
	}
	gens := make([]*workload.Postal, clients)
	for c := range gens {
		gens[c] = workload.NewPostal(seed+int64(c)*17, 250, 8)
	}
	return &Workload{rt: rt, op: func(th *persist.Thread, tid int) {
		d := gens[tid].Next()
		msg := make([]byte, d.Size)
		// SMTP receive, spawning the delivery processes: Exim is the most
		// compute-heavy app per PM epoch in the suite (Table 1: only 6250
		// epochs/s).
		th.Compute(9000000)
		th.VLoad(2000)
		// Receive into the spool, deliver, log, clean up.
		fs.Create(th, d.Spool)
		fs.WriteAt(th, d.Spool, 0, msg)
		fs.Append(th, d.Mailbox, msg)
		fs.Append(th, "/log/mainlog", []byte(fmt.Sprintf("delivered %s %d bytes\n", d.Mailbox, d.Size)))
		fs.Unlink(th, d.Spool)
	}}
}

// SetupMySQL prepares the sysbench OLTP-complex profile: point selects and
// range scans read table pages; write transactions update a page, append
// to the redo log, and fsync — InnoDB's durability discipline expressed
// through filesystem calls.
func SetupMySQL(rt *persist.Runtime, fs FS, clients int, seed int64) *Workload {
	th0 := rt.Thread(0)
	must(fs.Mkdir(th0, "/db"))
	for _, f := range []string{"/db/table.ibd", "/db/redo.log", "/db/doublewrite"} {
		must(fs.Create(th0, f))
	}
	// Initialize a small table file: 8 InnoDB-style 16 KB pages.
	const pageSize = 4 * pmfs.BlockSize
	page := make([]byte, pageSize)
	for p := 0; p < 8; p++ {
		must(fs.WriteAt(th0, "/db/table.ibd", int64(p)*pageSize, page))
	}
	gens := make([]*workload.Sysbench, clients)
	for c := range gens {
		gens[c] = workload.NewSysbench(seed+int64(c)*13, 1<<20)
	}
	return &Workload{rt: rt, op: func(th *persist.Thread, tid int) {
		t := gens[tid].Next()
		// Reads are served mostly from the buffer pool: volatile. SQL
		// parsing, optimization and buffer-pool work dominate (Table 1:
		// 60 K epochs/s — the slowest epoch rate after Exim).
		th.Compute(840000)
		th.VLoad(1500)
		// A fraction of reads miss the buffer pool.
		fs.ReadAt(th, "/db/table.ibd", int64(t.UpdateRow%8)*pageSize, 1024)
		if t.Write {
			// InnoDB durability: redo record, then the 16 KB page through
			// the doublewrite buffer, then in place.
			fs.Append(th, "/db/redo.log", []byte(fmt.Sprintf("tx update row %d\n", t.UpdateRow)))
			fs.WriteAt(th, "/db/doublewrite", 0, page)
			fs.WriteAt(th, "/db/table.ibd", int64(t.UpdateRow%8)*pageSize, page)
			fs.Fsync(th, "/db/redo.log")
		}
	}}
}
