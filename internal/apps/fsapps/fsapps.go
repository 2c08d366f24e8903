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
	"github.com/whisper-pm/whisper/internal/sched"
	"github.com/whisper-pm/whisper/internal/workload"
)

// RunNFS executes the filebench fileserver profile: clients create,
// write, read, append, stat and delete files in a shared directory.
func RunNFS(rt *persist.Runtime, fs *pmfs.FS, clients, opsPerClient int, seed int64) error {
	th0 := rt.Thread(0)
	if err := fs.Mkdir(th0, "/files"); err != nil {
		return err
	}
	workers := make([]sched.Worker, clients)
	for c := 0; c < clients; c++ {
		c := c
		gen := workload.NewFileserver(seed+int64(c)*31, 48, 48)
		payload := make([]byte, 64<<10)
		workers[c] = sched.Steps(opsPerClient, func(int) {
			th := rt.Thread(c)
			op := gen.Next()
			// The NFS server adds RPC decode/encode and dcache work on
			// the volatile side.
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
		})
	}
	sched.Run(workers, seed)
	return nil
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

// RunExim executes the postal profile: each delivery spools the message,
// appends it to the recipient's mailbox, logs the delivery, and removes
// the spool file — Exim's receive/deliver/log pipeline.
func RunExim(rt *persist.Runtime, fs *pmfs.FS, clients, deliveries int, msgKB int, seed int64) error {
	th0 := rt.Thread(0)
	for _, dir := range []string{"/mail", "/spool", "/log"} {
		if err := fs.Mkdir(th0, dir); err != nil {
			return err
		}
	}
	if err := fs.Create(th0, "/log/mainlog"); err != nil {
		return err
	}
	// Pre-create the mailboxes (Exim's setup).
	for i := 0; i < 250; i++ {
		if err := fs.Create(th0, fmt.Sprintf("/mail/user%03d", i)); err != nil {
			return err
		}
	}
	workers := make([]sched.Worker, clients)
	for c := 0; c < clients; c++ {
		c := c
		gen := workload.NewPostal(seed+int64(c)*17, 250, msgKB)
		workers[c] = sched.Steps(deliveries, func(int) {
			th := rt.Thread(c)
			d := gen.Next()
			msg := make([]byte, d.Size)
			// SMTP receive, spawning the delivery processes: Exim is the
			// most compute-heavy app per PM epoch in the suite (Table 1:
			// only 6250 epochs/s).
			th.Compute(9000000)
			th.VLoad(2000)
			// Receive into the spool, deliver, log, clean up.
			fs.Create(th, d.Spool)
			fs.WriteAt(th, d.Spool, 0, msg)
			fs.Append(th, d.Mailbox, msg)
			fs.Append(th, "/log/mainlog", []byte(fmt.Sprintf("delivered %s %d bytes\n", d.Mailbox, d.Size)))
			fs.Unlink(th, d.Spool)
		})
	}
	sched.Run(workers, seed)
	return nil
}

// RunMySQL executes the sysbench OLTP-complex profile: point selects and
// range scans read table pages; write transactions update a page, append
// to the redo log, and fsync — InnoDB's durability discipline expressed
// through filesystem calls.
func RunMySQL(rt *persist.Runtime, fs *pmfs.FS, clients, txs int, seed int64) error {
	th0 := rt.Thread(0)
	if err := fs.Mkdir(th0, "/db"); err != nil {
		return err
	}
	if err := fs.Create(th0, "/db/table.ibd"); err != nil {
		return err
	}
	if err := fs.Create(th0, "/db/redo.log"); err != nil {
		return err
	}
	if err := fs.Create(th0, "/db/doublewrite"); err != nil {
		return err
	}
	// Initialize a small table file: 8 InnoDB-style 16 KB pages.
	const pageSize = 4 * pmfs.BlockSize
	page := make([]byte, pageSize)
	for p := 0; p < 8; p++ {
		if err := fs.WriteAt(th0, "/db/table.ibd", int64(p)*pageSize, page); err != nil {
			return err
		}
	}
	workers := make([]sched.Worker, clients)
	for c := 0; c < clients; c++ {
		c := c
		gen := workload.NewSysbench(seed+int64(c)*13, 1<<20)
		workers[c] = sched.Steps(txs, func(int) {
			th := rt.Thread(c)
			t := gen.Next()
			// Reads are served mostly from the buffer pool: volatile. SQL
			// parsing, optimization and buffer-pool work dominate (Table
			// 1: 60 K epochs/s — the slowest epoch rate after Exim).
			th.Compute(840000)
			th.VLoad(1500)
			// A fraction of reads miss the buffer pool.
			fs.ReadAt(th, "/db/table.ibd", int64(t.UpdateRow%8)*pageSize, 1024)
			if t.Write {
				// InnoDB durability: redo record, then the 16 KB page
				// through the doublewrite buffer, then in place.
				fs.Append(th, "/db/redo.log", []byte(fmt.Sprintf("tx update row %d\n", t.UpdateRow)))
				fs.WriteAt(th, "/db/doublewrite", 0, page)
				fs.WriteAt(th, "/db/table.ibd", int64(t.UpdateRow%8)*pageSize, page)
				fs.Fsync(th, "/db/redo.log")
			}
		})
	}
	sched.Run(workers, seed)
	return nil
}
