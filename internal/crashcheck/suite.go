package crashcheck

import (
	"cmp"
	"fmt"

	"github.com/whisper-pm/whisper/internal/apps/ctree"
	"github.com/whisper-pm/whisper/internal/apps/echo"
	"github.com/whisper-pm/whisper/internal/apps/fsapps"
	"github.com/whisper-pm/whisper/internal/apps/hashstore"
	"github.com/whisper-pm/whisper/internal/apps/memcache"
	"github.com/whisper-pm/whisper/internal/apps/nstore"
	"github.com/whisper-pm/whisper/internal/apps/redisstore"
	"github.com/whisper-pm/whisper/internal/apps/vacation"
	"github.com/whisper-pm/whisper/internal/mnemosyne"
	"github.com/whisper-pm/whisper/internal/nvml"
	"github.com/whisper-pm/whisper/internal/persist"
	"github.com/whisper-pm/whisper/internal/pmfs"
	"github.com/whisper-pm/whisper/internal/sched"
	"github.com/whisper-pm/whisper/internal/workload"
)

// Oracle is the crash side of a workload's wrapper: reboot the wrapped
// store from the durable image, then judge the recovered state as thread
// tid against what the wrapper saw acknowledged.
type Oracle interface {
	Recover()
	Check(tid int) error
}

// App is one suite member: its Table 1 row (whisper.Benchmark's fields),
// its default scale and its one op-level workload, which the suite records
// and the crash checker crashes.
type App struct {
	Name, Layer, Workload string
	Simulatable           bool
	// Clients and Ops are the suite's default scale: client threads, and
	// operations per client.
	Clients, Ops int
	// Mixes are the mixes the checker runs: the paper's, and the checker's
	// where the paper's never issues an operation recovery must handle.
	Mixes []workload.Mix

	// serial marks a single-threaded server (redis): thread 0 runs every
	// client's operations.
	serial bool
	// open builds the app's store on rt — wrapped by its oracle when check
	// is set, the oracle then returned too — and sets up mix's workload
	// over it, returning the workload's Op.
	open func(rt *persist.Runtime, mix workload.Mix, clients int, seed int64, check bool) (func(tid, i int), Oracle)
}

// poolBlocks is the blocks per size class of every NVML pool and
// Mnemosyne heap the suite and the scenario tenants open.
const poolBlocks = 1 << 15

var (
	paperMix  = []workload.Mix{workload.Paper}
	bothMixes = []workload.Mix{workload.Paper, workload.Checker}
)

// suite is the one app table, in Table 1 order.
var suite = []App{
	{
		Name: "echo", Layer: "native", Simulatable: true,
		Workload: "echo-test / 4 clients, batched update transactions",
		Clients:  4, Ops: 40, Mixes: paperMix,
		open: func(rt *persist.Runtime, _ workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			st := echo.New(rt)
			s, o := pick[echo.Batcher](st, check, func() Oracle { return newEchoOracle(st) })
			return echo.Setup(rt, s, clients, seed).Op, o
		},
	},
	{
		Name: "ycsb", Layer: "native", Simulatable: true,
		Workload: "YCSB-like / 4 clients, 80% writes (N-store OPTWAL)",
		Clients:  4, Ops: 300, Mixes: bothMixes,
		open: func(rt *persist.Runtime, mix workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			db := nstore.Open(rt)
			s, o := pick[nstore.Store](db, check, func() Oracle { return newNStoreOracle(db) })
			return nstore.SetupYCSB(rt, s, mix, clients, seed).Op, o
		},
	},
	{
		Name: "tpcc", Layer: "native", Simulatable: false,
		Workload: "TPC-C-like / 4 clients, 40% writes (N-store OPTWAL)",
		Clients:  4, Ops: 150, Mixes: paperMix,
		open: func(rt *persist.Runtime, _ workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			db := nstore.Open(rt)
			s, o := pick[nstore.Store](db, check, func() Oracle { return newNStoreOracle(db) })
			return nstore.SetupTPCC(rt, s, clients, seed).Op, o
		},
	},
	{
		Name: "redis", Layer: "nvml", Simulatable: true,
		Workload: "redis-cli lru-test / 1 million keys",
		Clients:  1, Ops: 1200, Mixes: bothMixes, serial: true,
		open: func(rt *persist.Runtime, mix workload.Mix, _ int, seed int64, check bool) (func(int, int), Oracle) {
			kv, o := wrapKV[string, string](redisstore.New(rt, nvml.Open(rt, poolBlocks, nvml.Options{}), 4096), check)
			return redisstore.Setup(rt, kv, mix, seed).Op, o
		},
	},
	{
		Name: "ctree", Layer: "nvml", Simulatable: true,
		Workload: "4 clients, INSERT transactions",
		Clients:  4, Ops: 250, Mixes: bothMixes,
		open: func(rt *persist.Runtime, mix workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			kv, o := wrapKV[uint64, uint64](ctree.New(rt, nvml.Open(rt, poolBlocks, nvml.Options{})), check)
			return ctree.Setup(rt, kv, mix, clients, seed).Op, o
		},
	},
	{
		Name: "hashmap", Layer: "nvml", Simulatable: true,
		Workload: "4 clients, INSERT transactions",
		Clients:  4, Ops: 250, Mixes: bothMixes,
		open: func(rt *persist.Runtime, mix workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			kv, o := wrapKV[uint64, uint64](hashstore.New(rt, nvml.Open(rt, poolBlocks, nvml.Options{}), 4096), check)
			return hashstore.Setup(rt, kv, mix, clients, seed).Op, o
		},
	},
	{
		Name: "vacation", Layer: "mnemosyne", Simulatable: true,
		Workload: "4 clients, reservation mix, red-black trees",
		Clients:  4, Ops: 200, Mixes: paperMix,
		open: func(rt *persist.Runtime, _ workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			mgr := vacation.NewManager(rt, mnemosyne.New(rt, poolBlocks, mnemosyne.Options{}))
			s, o := pick[vacation.Store](mgr, check, func() Oracle { return newVacationOracle(mgr) })
			return vacation.Setup(rt, s, clients, seed).Op, o
		},
	},
	{
		Name: "memcached", Layer: "mnemosyne", Simulatable: false,
		Workload: "memslap / 4 clients, 5% SET",
		Clients:  4, Ops: 500, Mixes: bothMixes,
		open: func(rt *persist.Runtime, mix workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			kv, o := wrapKV[string, string](memcache.New(rt, mnemosyne.New(rt, poolBlocks, mnemosyne.Options{}), 4096, 1<<14), check)
			return memcache.Setup(rt, kv, mix, clients, seed).Op, o
		},
	},
	fsApp("nfs", "filebench fileserver / 8 clients", 8, 60, fsapps.SetupNFS),
	fsApp("exim", "postal / 8 clients, 250 mailboxes", 8, 20, fsapps.SetupExim),
	fsApp("mysql", "sysbench OLTP-complex / 4 clients", 4, 60, fsapps.SetupMySQL),
}

// wrapKV returns what a key-value workload drives: the bare store, or with
// check set a Model wrapping it.
func wrapKV[K cmp.Ordered, V comparable](kv KV[K, V], check bool) (workload.KV[K, V], Oracle) {
	return pick[workload.KV[K, V]](kv, check, func() Oracle { return NewModel(kv) })
}

// pick returns what a workload drives: the bare store, or with check set
// the oracle wrap builds around it, which has the store's method set V.
func pick[V any](bare V, check bool, wrap func() Oracle) (V, Oracle) {
	if !check {
		return bare, nil
	}
	o := wrap()
	return o.(V), o
}

// fsApp is the row of a PMFS app, on a freshly formatted filesystem.
func fsApp(name, desc string, clients, ops int, setup func(*persist.Runtime, fsapps.FS, int, int64) *fsapps.Workload) App {
	return App{
		Name: name, Layer: "pmfs", Workload: desc, Clients: clients, Ops: ops, Mixes: paperMix,
		open: func(rt *persist.Runtime, _ workload.Mix, clients int, seed int64, check bool) (func(int, int), Oracle) {
			fs := pmfs.Format(rt, rt.Thread(0), pmfs.Options{})
			v, o := pick[fsapps.FS](fs, check, func() Oracle { return fsapps.NewOracle(rt, fs) })
			return setup(rt, v, clients, seed).Op, o
		},
	}
}

// Suite returns the app table in Table 1 order.
func Suite() []App { return append([]App(nil), suite...) }

// Apps returns the application names in suite order.
func Apps() []string {
	var names []string
	for _, a := range suite {
		names = append(names, a.Name)
	}
	return names
}

// Lookup returns the named suite member.
func Lookup(name string) (*App, error) {
	for i := range suite {
		if suite[i].Name == name {
			return &suite[i], nil
		}
	}
	return nil, fmt.Errorf("crashcheck: unknown app %q (have %v)", name, Apps())
}

// start builds a on rt and sets up mix's workload for clients threads of
// ops operations each, with its oracle attached when check is set. It
// returns the oracle (nil on a bare run) and drive, the one driver: drive
// runs the operations in the suite's interleaving, handing fn each in turn
// — k counts operations across clients, and op runs the k-th — and stops
// when fn returns false.
func (a *App) start(rt *persist.Runtime, mix workload.Mix, clients, ops int, seed int64, check bool) (drive func(fn func(k int, op func()) bool), o Oracle) {
	do, o := a.open(rt, mix, clients, seed, check)
	steps := []int{clients * ops}
	if !a.serial {
		steps = make([]int, clients)
		for c := range steps {
			steps[c] = ops
		}
	}
	return func(fn func(k int, op func()) bool) {
		k, tid, i := 0, 0, 0
		op := func() { do(tid, i) }
		sched.Run(steps, seed, func(t, j int) bool {
			tid, i, k = t, j, k+1
			return fn(k-1, op)
		})
	}, o
}

// Run builds a on rt and runs its paper mix to completion with no oracle
// attached: clients threads of ops operations each. This is the run the
// suite records.
func (a *App) Run(rt *persist.Runtime, clients, ops int, seed int64) {
	drive, _ := a.start(rt, workload.Paper, clients, ops, seed, false)
	drive(func(_ int, op func()) bool {
		op()
		return true
	})
}
