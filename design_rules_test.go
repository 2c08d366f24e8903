package whisper

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// TestDesignRules keeps the design's "One …" promises — one line walk, one
// line table, one charge, one driver, one join, one event codec, one tail —
// that let earlier changes delete code. Each row of designRules names a
// construct by the object it resolves to under go/types, not by how it is
// spelled, says why it is banned, and lists the few places that may hold
// it, each with its reason. A row fails on a site outside its exemptions
// and on an exemption that covers nothing (or, given a count, another
// number of sites), so exemptions only shrink. Every row must also fail on
// each violation planted under testdata/designrules/<row>/ and on nothing
// planted for another row; a case directory named clean-* must fail no
// row. Non-test code is type-checked; _test.go files are parsed only, for
// the rows that reach into tests. By itself:
//
//	go test -run TestDesignRules .
//	go test -run 'TestDesignRules/OneJoin' .
func TestDesignRules(t *testing.T) {
	l := newRuleLoader(t)
	mod := l.module(t)
	modSites := make([][]site, len(designRules))
	for i, r := range designRules {
		modSites[i] = r.scan(mod)
	}
	const fixtures = "testdata/designrules"
	for i, r := range designRules {
		t.Run(r.name, func(t *testing.T) {
			if errs := r.check(modSites[i]); len(errs) > 0 {
				t.Errorf("%s\n\t%s", r.why, strings.Join(errs, "\n\t"))
			}
			for k, e := range r.exempt {
				without := r
				without.exempt = slices.Delete(slices.Clone(r.exempt), k, k+1)
				if len(without.check(modSites[i])) == 0 {
					t.Errorf("the row passes without its exemption %s", e)
				}
			}
			cases, err := os.ReadDir(filepath.Join(fixtures, r.name))
			if err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
			planted := 0
			for _, c := range cases {
				fsys := os.DirFS(filepath.Join(fixtures, r.name, c.Name()))
				clean := strings.HasPrefix(c.Name(), "clean-")
				if !clean {
					planted++
				}
				checkPlanted(t, r.name+"/"+c.Name(), l.fixture(t, mod, fsys), modSites, clean)
			}
			if r.name == "Gofmt" {
				// A .go file in the tree that gofmt rewrites would fail
				// the row over the module itself, so its plant is here.
				planted++
				checkPlanted(t, "Gofmt/unformatted", l.fixture(t, mod, fstest.MapFS{
					"internal/x/x.go": {Data: []byte("package x\n\nfunc  f( ) {}\n")},
				}), modSites, false)
			}
			if planted == 0 {
				t.Errorf("no planted violation under %s/%s", fixtures, r.name)
			}
		})
	}
}

// checkPlanted runs every row over the module plus the fixture tree and
// keeps the failures the module alone does not have. A planted case must
// add a failure to the row it is named after and to no other; a clean
// case must add none.
func checkPlanted(t *testing.T, name string, fix *ruleTree, modSites [][]site, clean bool) {
	t.Helper()
	own, _, _ := strings.Cut(name, "/")
	for i, r := range designRules {
		before := map[string]bool{}
		for _, e := range r.check(modSites[i]) {
			before[e] = true
		}
		var errs []string
		for _, e := range r.check(append(append([]site(nil), modSites[i]...), r.scan(fix)...)) {
			if !before[e] {
				errs = append(errs, e)
			}
		}
		switch {
		case r.name == own && !clean && len(errs) == 0:
			t.Errorf("planted %s passes its row", name)
		case r.name == own && !clean:
			t.Logf("planted %s: %s", name, strings.Join(errs, "; "))
		case (r.name != own || clean) && len(errs) > 0:
			t.Errorf("planted %s fails row %s: %s", name, r.name, strings.Join(errs, "; "))
		}
	}
}

// designRules is the table. A row's why is the promise it keeps.
var designRules = []designRule{
	{
		name: "NoPrivateLineWalk",
		why: "One line walk: trace.Event.Lines is wrap-safe and bounded; mem.Lines builds an unbounded []Line " +
			"per call and is kept for the test oracles only. A non-test caller is a private walk coming back.",
		find: func(s *ruleScan) {
			s.uses(func(p *rulePkg, obj types.Object) string {
				if isFunc(obj, "internal/mem", "Lines") && p.dir != "internal/mem" {
					return "use of mem.Lines"
				}
				return ""
			})
		},
	},
	{
		name: "OneLineTable",
		why: "One line table: the analyses keep per-line state in mem.LineTable (256-line pages, a one-entry " +
			"page cache). A map keyed by line in one of them is a private table coming back.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				switch p.dir {
				case "internal/cachesim", "internal/epoch", "internal/pmsan", "internal/hops":
				default:
					return
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if m, ok := n.(*ast.MapType); ok && isNamed(p.info.TypeOf(m.Key), "internal/mem", "Line") {
						s.hit(p, f, m, "map keyed by mem.Line")
					}
					return true
				})
			})
		},
	},
	{
		name: "OneCharge",
		why: "One charge: trace.Charge is what the recording machine charges an event; persist ticks it and " +
			"the HOPS replay takes it back off the recorded gaps. The fence's serialization tail anywhere " +
			"else is a second copy of the formula, free to drift from the first.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.QUO && p.usesObj(b.X, func(o types.Object) bool {
						_, isConst := o.(*types.Const)
						return isConst && objIs(o, "internal/mem", "PMCycles")
					}) {
						s.hit(p, f, b, "division of mem.PMCycles")
					}
					return true
				})
			})
		},
		exempt: []exemption{{dir: "internal/trace", fn: "Charge", why: "the one definition"}},
	},
	{
		name: "OneLatencyTally",
		why: "One latency tally: a KV shard observes request latency into its own obs.Tally and flushes it " +
			"into the shared kvservice_latency_ns histogram once per feed chunk and in drain. A direct " +
			"Histogram.Observe in the service is three atomic adds per request on one histogram every " +
			"shard goroutine hits.",
		find: func(s *ruleScan) {
			s.uses(func(p *rulePkg, obj types.Object) string {
				if p.dir == "internal/kvservice" && isMethod(obj, "internal/obs", "Histogram", "Observe") {
					return "use of (*obs.Histogram).Observe"
				}
				return ""
			})
		},
	},
	{
		name: "OneDriver",
		why: "One driver: every app is one op-level workload in crashcheck's app table, and the suite, the " +
			"crash checker and every test run it through the one driver there. A Run* loop of an app's " +
			"own, or a sched.Run of a caller's own, is a second way to run an app coming back — and a " +
			"trace the checker never crashes.",
		find: func(s *ruleScan) {
			retired := map[string]bool{"RunWorkload": true, "RunYCSB": true, "RunTPCC": true,
				"RunNFS": true, "RunExim": true, "RunMySQL": true}
			s.all(func(p *rulePkg, f *ast.File) {
				for _, id := range declaredIdents(f) {
					if retired[id.Name] {
						s.hit(p, f, id, "declaration of "+id.Name)
					}
				}
			})
			s.uses(func(p *rulePkg, obj types.Object) string {
				if isFunc(obj, "internal/sched", "Run") && p.dir != "internal/sched" {
					return "use of sched.Run"
				}
				return ""
			})
			s.tests(func(p *rulePkg, f *ast.File) {
				if p.dir != "internal/sched" {
					s.qualified(p, f, "internal/sched", "Run", "use of sched.Run")
				}
			})
		},
		exempt: []exemption{{dir: "internal/crashcheck", fn: "App.start", why: "the one driver"}},
	},
	{
		name: "OneJoin",
		why: "One join: goroutines that fan out and join go through internal/par, whose join waits for every " +
			"goroutine and re-raises the lowest index's panic on the caller. A WaitGroup anywhere else is " +
			"a hand-rolled join, with a panic rule of its own, coming back.",
		find: func(s *ruleScan) {
			s.uses(func(p *rulePkg, obj types.Object) string {
				if _, ok := obj.(*types.TypeName); ok && objIs(obj, "sync", "WaitGroup") {
					return "use of sync.WaitGroup"
				}
				return ""
			})
		},
		exempt: []exemption{{dir: "internal/par", why: "the one join"}},
	},
	{
		name: "OneFreeIndex",
		why: "One free index: a bitmap allocator's volatile free index is alloc.FreeWords, built and rebuilt " +
			"a word at a time. A loop over a word's 64 bits is a per-block index coming back, and with it " +
			"a recovery that costs the pool's size, not what the app allocated.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				if !strings.HasPrefix(p.dir, "internal/") {
					return
				}
				ast.Inspect(f, func(n ast.Node) bool {
					v, body := bitLoop(p.info, n)
					if v == nil {
						return true
					}
					ast.Inspect(body, func(m ast.Node) bool {
						if b, ok := m.(*ast.BinaryExpr); ok && b.Op == token.SHL && isConst(p.info, b.X, 1) &&
							p.usesObj(b.Y, func(o types.Object) bool { return o == v }) {
							s.hit(p, f, n, "loop over a word's 64 bits by 1<<"+v.Name())
							return false
						}
						return true
					})
					return true
				})
			})
		},
		exempt: []exemption{{dir: "internal/pmfs", fn: "FS.Fsck",
			why: "a crash oracle auditing each block's bit against the inodes, not a free index"}},
	},
	{
		name: "OneTIDType",
		why: "One TID type: trace.Event.TID is a uint16 and every consumer keys its per-thread state by that " +
			"type. A conversion to a signed type is a second TID type coming back, and with it a signed " +
			"TID that no decoded event can carry.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					if !ok || len(c.Args) != 1 || !p.info.Types[c.Fun].IsType() {
						return true
					}
					to, ok := p.info.TypeOf(c.Fun).Underlying().(*types.Basic)
					if !ok || (to.Kind() != types.Int32 && to.Kind() != types.Int16 && to.Kind() != types.Int8) {
						return true
					}
					tid := false
					ast.Inspect(c.Args[0], func(m ast.Node) bool {
						if e, ok := m.(ast.Expr); ok && isNamed(p.info.TypeOf(e), "internal/pmem", "ThreadID") {
							tid = true
						}
						if id, ok := m.(*ast.Ident); ok && isField(p.info.Uses[id], "internal/trace", "Event") && id.Name == "TID" {
							tid = true
						}
						return !tid
					})
					if tid {
						s.hit(p, f, c, "conversion of a TID to "+to.Name())
					}
					return true
				})
			})
		},
	},
	{
		name: "OneEventCodec",
		why: "One event codec: trace/pack.go's pack is the only encoder of an event's fields, and a retained " +
			"trace, a Writer's block and a file's block are its bytes. Its four field varints (an escaped " +
			"TID, the time and address deltas and the size; the head byte spells the kind and a small TID) " +
			"anywhere else are a second encoder coming back, free to drift from what a retained trace " +
			"keeps and Encode writes as it is.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					if !ok || len(c.Args) == 0 {
						return true
					}
					fn := p.calledObj(c)
					if !isFunc(fn, "encoding/binary", "AppendVarint") && !isFunc(fn, "encoding/binary", "AppendUvarint") &&
						!isFunc(fn, "encoding/binary", "PutVarint") && !isFunc(fn, "encoding/binary", "PutUvarint") {
						return true
					}
					if p.usesObj(c.Args[len(c.Args)-1], func(o types.Object) bool {
						return isField(o, "internal/trace", "Event")
					}) {
						s.hit(p, f, c, "binary."+fn.Name()+" of a trace.Event field")
					}
					return true
				})
			})
		},
		exempt: []exemption{{dir: "internal/trace", fn: "pack", n: 4, why: "the one encoder"}},
	},
	{
		name: "NoSuppression",
		why: "No suppression: the sanitizer gates and never waives. Every error-class site fails the run, " +
			"and a finding is fixed and pinned by a test, not listed. An Allowlist, a Suppressed mark or a " +
			"-san-allow flag outside a test is a waiver coming back.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if strings.Contains(n.Name, "Allowlist") || strings.Contains(n.Name, "Suppressed") {
							s.hit(p, f, n, "identifier "+n.Name)
						}
					case *ast.BasicLit:
						if n.Kind == token.STRING && strings.Contains(n.Value, "san-allow") {
							s.hit(p, f, n, "literal "+n.Value)
						}
					}
					return true
				})
			})
		},
	},
	{
		name: "OneTail",
		why: "One tail: every live run is record, then one Fanout over the trace's Tail, and keeping the " +
			"trace is one more branch (trace.Collect). A tail mode, the keeping tail's queue depth or the " +
			"dropping tail's chunk cap is the second path coming back, anywhere, tests included.",
		find: func(s *ruleScan) {
			s.all(func(p *rulePkg, f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && (id.Name == "keptDepth" || id.Name == "droppedChunkEvents") {
						s.hit(p, f, id, "identifier "+id.Name)
					}
					return true
				})
			})
			s.code(func(p *rulePkg, f *ast.File) {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					fn := p.info.Defs[fd.Name]
					if isMethod(fn, "internal/trace", "Trace", "Tail") && fn.Type().(*types.Signature).Params().Len() > 0 {
						s.hit(p, f, fd, "(*trace.Trace).Tail takes parameters")
					}
				}
			})
		},
	},
	{
		name: "NoFusableFloat",
		why: "Goldens by construction: a float sum or difference with an unconverted float product for an " +
			"operand may compile to one fused multiply-add (arm64 FMADDD, FNMSUBD), which rounds once " +
			"where amd64 rounds twice. Wrapping the product in float64(…) forbids the fusion.",
		find: func(s *ruleScan) {
			s.code(func(p *rulePkg, f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.BinaryExpr:
						if (n.Op == token.ADD || n.Op == token.SUB) && isFloatValue(p.info, n) &&
							(isFloatProduct(p.info, n.X) || isFloatProduct(p.info, n.Y)) {
							s.hit(p, f, n, "float "+n.Op.String()+" of an unconverted product")
						}
					case *ast.AssignStmt:
						if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloatValue(p.info, n.Lhs[0]) &&
							isFloatProduct(p.info, n.Rhs[0]) {
							s.hit(p, f, n, "float "+n.Tok.String()+" of an unconverted product")
						}
					}
					return true
				})
			})
		},
		exempt: []exemption{{dir: "bench", why: "ROADMAP 1(a) rounds percentile; drop this exemption then"}},
	},
	{
		name: "Gofmt",
		why:  "Format: every .go file in the tree, testdata included, is what gofmt prints for it.",
		find: func(s *ruleScan) {
			fs.WalkDir(s.tree.fsys, ".", func(name string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() && d.Name() == ".git" {
					return fs.SkipDir
				}
				if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(d.Name(), ".") {
					return nil
				}
				src, err := fs.ReadFile(s.tree.fsys, name)
				if err != nil {
					return err
				}
				if out, err := format.Source(src); err != nil {
					s.add(site{pos: name, what: err.Error()})
				} else if !bytes.Equal(out, src) {
					s.add(site{pos: name, what: "not gofmt-formatted"})
				}
				return nil
			})
		},
	},
	{
		name: "Citations",
		why: "A test named in CI or a doc must exist: every Test…, Benchmark… and Fuzz… name cited there is " +
			"a prefix of a declared test function, so a rename cannot leave a -run pattern or a sentence " +
			"matching nothing. EXPERIMENTS.md is history and may cite retired names.",
		find: func(s *ruleScan) {
			cite := regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
			for _, doc := range []string{".github/workflows/ci.yml", "DESIGN.md", "README.md",
				".claude/skills/verify/SKILL.md", "testdata/unreached.allow"} {
				src, err := fs.ReadFile(s.tree.fsys, doc)
				if errors.Is(err, fs.ErrNotExist) {
					continue
				}
				if err != nil {
					s.add(site{pos: doc, what: err.Error()})
					continue
				}
				for i, line := range strings.Split(string(src), "\n") {
					for _, name := range cite.FindAllString(line, -1) {
						if !s.tree.citable(name) {
							s.add(site{pos: fmt.Sprintf("%s:%d", doc, i+1), what: name + " names no declared test"})
						}
					}
				}
			}
		},
	},
}

// designRule is one row: find reports every site of the construct in a
// tree; exempt lists the places allowed to hold it.
type designRule struct {
	name   string
	why    string
	find   func(*ruleScan)
	exempt []exemption
}

// exemption allows a row's sites in one package (dir, module-relative)
// and, if fn is set, only inside that function ("Name" or "Recv.Name").
// With n > 0 it must cover exactly n sites, else at least one.
type exemption struct {
	dir, fn string
	n       int
	why     string
}

func (e exemption) String() string {
	s := e.dir
	if e.fn != "" {
		s += "." + e.fn
	}
	return s + " (" + e.why + ")"
}

func (e exemption) covers(s site) bool {
	return (s.dir == e.dir || strings.HasPrefix(s.dir, e.dir+"/")) && (e.fn == "" || s.fn == e.fn)
}

// site is one occurrence of a row's construct.
type site struct {
	pos  string // file:line, relative to the tree's root
	dir  string // the package's module-relative directory
	fn   string // the enclosing function, "" at package level
	what string
}

func (r designRule) scan(tr *ruleTree) []site {
	s := &ruleScan{tree: tr}
	r.find(s)
	return s.sites
}

// check returns one line per site no exemption covers and per exemption
// that covers the wrong number of sites.
func (r designRule) check(sites []site) []string {
	var errs []string
	used := make([]int, len(r.exempt))
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	for _, s := range sites {
		k := slices.IndexFunc(r.exempt, func(e exemption) bool { return e.covers(s) })
		if k < 0 {
			errs = append(errs, s.pos+": "+s.what)
			continue
		}
		used[k]++
	}
	for k, e := range r.exempt {
		switch {
		case e.n > 0 && used[k] != e.n:
			errs = append(errs, fmt.Sprintf("exemption %s covers %d sites, want %d", e, used[k], e.n))
		case used[k] == 0:
			errs = append(errs, fmt.Sprintf("exemption %s covers nothing; delete it", e))
		}
	}
	return errs
}

// ruleTree is a module, or a fixture tree laid out like one.
type ruleTree struct {
	fsys     fs.FS
	fset     *token.FileSet
	pkgs     []*rulePkg
	declared []string // test functions declared in _test.go files, sorted
}

// citable reports whether name is a prefix of a declared test function.
func (tr *ruleTree) citable(name string) bool {
	i := sort.SearchStrings(tr.declared, name)
	return i < len(tr.declared) && strings.HasPrefix(tr.declared[i], name)
}

// rulePkg is one package: files type-checked into info, tests parsed.
type rulePkg struct {
	dir   string // module-relative, "." for the root
	files []*ast.File
	tests []*ast.File
	info  *types.Info
}

// ruleScan collects one row's sites over one tree.
type ruleScan struct {
	tree  *ruleTree
	sites []site
}

func (s *ruleScan) add(x site) { s.sites = append(s.sites, x) }

func (s *ruleScan) hit(p *rulePkg, f *ast.File, n ast.Node, what string) {
	pos := s.tree.fset.Position(n.Pos())
	s.add(site{pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line), dir: p.dir, fn: enclosingFunc(f, n.Pos()), what: what})
}

// code calls fn for every type-checked (non-test) file.
func (s *ruleScan) code(fn func(*rulePkg, *ast.File)) {
	for _, p := range s.tree.pkgs {
		for _, f := range p.files {
			fn(p, f)
		}
	}
}

// tests calls fn for every _test.go file.
func (s *ruleScan) tests(fn func(*rulePkg, *ast.File)) {
	for _, p := range s.tree.pkgs {
		for _, f := range p.tests {
			fn(p, f)
		}
	}
}

// all calls fn for every file, tests included.
func (s *ruleScan) all(fn func(*rulePkg, *ast.File)) {
	s.code(fn)
	s.tests(fn)
}

// uses reports every identifier in non-test code for whose object match
// returns a description.
func (s *ruleScan) uses(match func(*rulePkg, types.Object) string) {
	s.code(func(p *rulePkg, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
				if what := match(p, p.info.Uses[id]); what != "" {
					s.hit(p, f, id, what)
				}
			}
			return true
		})
	})
}

// qualified reports pkg.name in a parsed-only file, resolving the
// qualifier through the file's imports.
func (s *ruleScan) qualified(p *rulePkg, f *ast.File, dir, name, what string) {
	want := designModule + "/" + dir
	local := ""
	for _, im := range f.Imports {
		if strings.Trim(im.Path.Value, `"`) == want {
			local = path.Base(want)
			if im.Name != nil {
				local = im.Name.Name
			}
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				s.hit(p, f, sel, what)
			}
		}
		return true
	})
}

// usesObj reports whether any identifier in e resolves to an object match
// accepts.
func (p *rulePkg) usesObj(e ast.Expr, match func(types.Object) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil && match(p.info.Uses[id]) {
			found = true
		}
		return !found
	})
	return found
}

// calledObj is the function or method a call names, nil for a conversion
// or a call of a func value.
func (p *rulePkg) calledObj(c *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		return p.info.Uses[fun]
	case *ast.SelectorExpr:
		return p.info.Uses[fun.Sel]
	}
	return nil
}

// enclosingFunc names the top-level function of f holding pos.
func enclosingFunc(f *ast.File, pos token.Pos) string {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || pos < fd.Pos() || pos >= fd.End() {
			continue
		}
		if fd.Recv != nil {
			return recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
	return ""
}

// declaredIdents lists the names a file declares at any level: funcs,
// methods, types, vars and consts, and := definitions.
func declaredIdents(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			out = append(out, n.Name)
		case *ast.TypeSpec:
			out = append(out, n.Name)
		case *ast.ValueSpec:
			out = append(out, n.Names...)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						out = append(out, id)
					}
				}
			}
		}
		return true
	})
	return out
}

// designModule is the module the rows' package directories belong to.
const designModule = "github.com/whisper-pm/whisper"

// objIs reports whether obj is the package-level name of the package at
// dir: module-relative for the module's packages ("internal/mem"), the
// import path for the standard library's ("sync").
func objIs(obj types.Object, dir, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Name() != name || obj.Parent() != obj.Pkg().Scope() {
		return false
	}
	path := obj.Pkg().Path()
	return path == designModule+"/"+dir || path == dir
}

// isFunc reports whether obj is the package-level func dir.name.
func isFunc(obj types.Object, dir, name string) bool {
	_, ok := obj.(*types.Func)
	return ok && objIs(obj, dir, name)
}

// isMethod reports whether obj is the method recv.name of a type declared
// in dir, through a pointer receiver or not.
func isMethod(obj types.Object, dir, recv, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	r := fn.Type().(*types.Signature).Recv()
	return r != nil && isNamed(r.Type(), dir, recv)
}

// isNamed reports whether t, or what it points to, is the named type
// dir.name.
func isNamed(t types.Type, dir, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && objIs(n.Obj(), dir, name)
}

// isField reports whether obj is a field of the struct type dir.typ.
func isField(obj types.Object, dir, typ string) bool {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return false
	}
	tn := v.Pkg().Scope().Lookup(typ)
	if tn == nil || !objIs(tn, dir, typ) {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}

// isConst reports whether e is a constant equal to v.
func isConst(info *types.Info, e ast.Expr, v int64) bool {
	tv := info.Types[e]
	return tv.Value != nil && constant.Compare(tv.Value, token.EQL, constant.MakeInt64(v))
}

// bitLoop returns the index of a loop over a word's 64 bits, and its body:
// a for loop with a := index counting up to 64 (< 64, != 64, <= 63) or
// down from 63, or a range over 64.
func bitLoop(info *types.Info, n ast.Node) (*types.Var, *ast.BlockStmt) {
	switch l := n.(type) {
	case *ast.ForStmt:
		init, ok := l.Init.(*ast.AssignStmt)
		if !ok || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
			return nil, nil
		}
		id, ok := init.Lhs[0].(*ast.Ident)
		if !ok {
			return nil, nil
		}
		v, _ := info.ObjectOf(id).(*types.Var)
		if v == nil {
			return nil, nil
		}
		if isConst(info, init.Rhs[0], 63) {
			return v, l.Body
		}
		if c, ok := l.Cond.(*ast.BinaryExpr); ok && info.Uses[identOf(c.X)] == v &&
			((c.Op == token.LSS || c.Op == token.NEQ) && isConst(info, c.Y, 64) || c.Op == token.LEQ && isConst(info, c.Y, 63)) {
			return v, l.Body
		}
	case *ast.RangeStmt:
		if id, ok := l.Key.(*ast.Ident); ok && isConst(info, l.X, 64) {
			v, _ := info.ObjectOf(id).(*types.Var)
			return v, l.Body
		}
	}
	return nil, nil
}

// identOf is e as an identifier, parentheses aside, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// isFloatValue reports whether e is a non-constant float expression.
func isFloatValue(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Type == nil || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isFloatProduct reports whether e, parentheses aside, is a non-constant
// float multiplication: one not wrapped in an explicit conversion.
func isFloatProduct(info *types.Info, e ast.Expr) bool {
	b, ok := ast.Unparen(e).(*ast.BinaryExpr)
	return ok && b.Op == token.MUL && isFloatValue(info, b)
}

// ruleLoader type-checks source against the export data go list reports
// for every package the module imports.
type ruleLoader struct {
	fset   *token.FileSet
	conf   types.Config
	listed []listedPkg
}

type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	TestGoFiles             []string
	XTestGoFiles            []string
	Standard                bool
}

func newRuleLoader(t *testing.T) *ruleLoader {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,Standard", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	l := &ruleLoader{fset: token.NewFileSet()}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			l.listed = append(l.listed, p)
		}
	}
	l.conf.Importer = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	return l
}

// module loads the module itself, rooted at the working directory.
func (l *ruleLoader) module(t *testing.T) *ruleTree {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tr := &ruleTree{fsys: os.DirFS(root), fset: l.fset}
	for _, lp := range l.listed {
		if lp.ImportPath != designModule && !strings.HasPrefix(lp.ImportPath, designModule+"/") {
			t.Fatalf("package %s is outside module %s", lp.ImportPath, designModule)
		}
		dir, err := filepath.Rel(root, lp.Dir)
		if err != nil {
			t.Fatal(err)
		}
		dir = filepath.ToSlash(dir)
		l.add(t, tr, lp.ImportPath, dir, join(dir, lp.GoFiles), join(dir, append(lp.TestGoFiles, lp.XTestGoFiles...)))
	}
	sort.Strings(tr.declared)
	return tr
}

// fixture loads a tree laid out like the module: each directory of .go
// files is one package at the import path its place in the tree names.
// Its test functions join the module's for the citation row.
func (l *ruleLoader) fixture(t *testing.T, module *ruleTree, fsys fs.FS) *ruleTree {
	t.Helper()
	tr := &ruleTree{fsys: fsys, fset: l.fset, declared: append([]string(nil), module.declared...)}
	files, tests := map[string][]string{}, map[string][]string{}
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(name, ".go") {
			if strings.HasSuffix(name, "_test.go") {
				tests[path.Dir(name)] = append(tests[path.Dir(name)], name)
			} else {
				files[path.Dir(name)] = append(files[path.Dir(name)], name)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for d := range files {
		dirs[d] = true
	}
	for d := range tests {
		dirs[d] = true
	}
	for d := range dirs {
		importPath := designModule
		if d != "." {
			importPath += "/" + d
		}
		l.add(t, tr, importPath, d, files[d], tests[d])
	}
	sort.Slice(tr.pkgs, func(i, j int) bool { return tr.pkgs[i].dir < tr.pkgs[j].dir })
	sort.Strings(tr.declared)
	return tr
}

func join(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = path.Join(dir, n)
	}
	return out
}

// add parses a package's files (tree-relative names), type-checks the
// non-test ones and records the test functions the rest declare.
func (l *ruleLoader) add(t *testing.T, tr *ruleTree, importPath, dir string, files, tests []string) {
	t.Helper()
	parse := func(name string) *ast.File {
		src, err := fs.ReadFile(tr.fsys, name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	p := &rulePkg{dir: dir, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range files {
		p.files = append(p.files, parse(name))
	}
	if len(p.files) > 0 {
		if _, err := l.conf.Check(importPath, l.fset, p.files, p.info); err != nil {
			t.Fatalf("type-checking %s: %v", importPath, err)
		}
	}
	for _, name := range tests {
		f := parse(name)
		p.tests = append(p.tests, f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				tr.declared = append(tr.declared, fd.Name.Name)
			}
		}
	}
	tr.pkgs = append(tr.pkgs, p)
}
