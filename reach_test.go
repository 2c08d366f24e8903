package whisper

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reachability probe behind TestEveryFunctionReached
// (reach_bin_test.go): every function declared outside a _test.go file must
// appear in the symbol table of some binary the module builds, or be named
// in testdata/unreached.allow. This file holds the name mapping between the
// two sides, which is tested here without building anything.

// funcDecl is one declared function: key is the package's import path, a
// dot, then Name or Recv.Name.
type funcDecl struct {
	key   string
	pos   string // file:line
	lines int
}

// fileDecls lists the functions declared in one parsed file of the package
// at importPath. init functions are left out: the linker keeps them with
// their package and names them init.0, init.1, ….
func fileDecls(fset *token.FileSet, importPath string, f *ast.File) []funcDecl {
	var out []funcDecl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			name = recvName(fd.Recv.List[0].Type) + "." + name
		}
		start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
		out = append(out, funcDecl{
			key:   importPath + "." + name,
			pos:   start.Filename + ":" + strconv.Itoa(start.Line),
			lines: end.Line - start.Line + 1,
		})
	}
	return out
}

// recvName is a receiver's type name without its pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return "?"
		}
	}
}

// symbolKey maps a text symbol as go tool nm prints it to the key of the
// function it belongs to. Instantiations are dropped by matching brackets —
// a shape name holds spaces and brackets of its own, as in
// mem.(*LineTable[go.shape.struct { a []int }]).load — then a pointer
// receiver's (*T) becomes T. Symbols of package main are qualified with
// mainPath, the import path of the binary's own package, so two binaries'
// main.run stay apart. Closures and wrappers (F.func1, M-fm) map to keys no
// declaration has, which is harmless: the function holding them is in the
// table under its own name.
func symbolKey(sym, mainPath string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return s
	}
	pkg, rest := s[:slash+1+dot], s[slash+1+dot+1:]
	if pkg == "main" {
		pkg = mainPath
	}
	if strings.HasPrefix(rest, "(*") {
		if i := strings.IndexByte(rest, ')'); i > 0 {
			rest = rest[2:i] + rest[i+1:]
		}
	}
	return pkg + "." + rest
}

// addSymbols reads go tool nm output for the binary built from mainPath and
// adds the key of every text symbol to reached. A line is "addr type name",
// the address blank for an undefined symbol, and the name may hold spaces.
func addSymbols(nm []byte, mainPath string, reached map[string]bool) {
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
		if len(f) == 3 && len(f[0]) != 1 {
			f = f[1:] // drop the address
		}
		if len(f) < 2 || (f[0] != "T" && f[0] != "t") {
			continue
		}
		reached[symbolKey(f[1], mainPath)] = true
	}
}

// unreached returns the declarations no binary reaches, sorted by key.
func unreached(decls []funcDecl, reached map[string]bool) []funcDecl {
	var out []funcDecl
	for _, d := range decls {
		if !reached[d.key] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func TestReachNameMapping(t *testing.T) {
	const mod = "example.com/m"
	for _, c := range []struct{ sym, mainPath, want string }{
		{"example.com/m/internal/trace.(*Trace).Append", "", mod + "/internal/trace.Trace.Append"},
		{"example.com/m/internal/trace.Event.Lines", "", mod + "/internal/trace.Event.Lines"},
		{"example.com/m/internal/trace.Decode", "", mod + "/internal/trace.Decode"},
		{"example.com/m/internal/mem.(*LineTable[go.shape.struct { w [4]uint64; m map[string][]int }]).load",
			"", mod + "/internal/mem.LineTable.load"},
		{"example.com/m/internal/mem.NewLineTable[go.shape.int]", "", mod + "/internal/mem.NewLineTable"},
		{"main.run", mod + "/cmd/a", mod + "/cmd/a.run"},
		{"main.(*flags).parse", mod + "/cmd/a", mod + "/cmd/a.flags.parse"},
		{"example.com/m.Run", "", mod + ".Run"},
	} {
		if got := symbolKey(c.sym, c.mainPath); got != c.want {
			t.Errorf("symbolKey(%q) = %q, want %q", c.sym, got, c.want)
		}
	}

	src := `package p
type T struct{}
type G[K comparable, V any] struct{}
func (t *T) Ptr() {}
func (t T) Val() {}
func (g *G[K, V]) load() {}
func F() {}
func init() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range fileDecls(fset, mod+"/p", f) {
		keys = append(keys, d.key)
	}
	want := []string{mod + "/p.T.Ptr", mod + "/p.T.Val", mod + "/p.G.load", mod + "/p.F"}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("fileDecls = %v, want %v", keys, want)
	}

	// Two main packages declare run; only cmd/a's binary links it. The
	// address column is blank for an undefined symbol, and the generic
	// method's shape name holds spaces.
	nmA := []byte(`  401000 T main.main
  401100 T main.run
  401200 T example.com/m/p.(*T).Ptr
  401300 t example.com/m/p.(*G[go.shape.struct { a []int; b [2]string }]).load
  4a0000 R example.com/m/p.F·f
         U runtime.morestack
`)
	nmB := []byte(`  401000 T main.main
  401100 T example.com/m/p.T.Val
`)
	reached := map[string]bool{}
	addSymbols(nmA, mod+"/cmd/a", reached)
	addSymbols(nmB, mod+"/cmd/b", reached)
	decls := append(fileDecls(fset, mod+"/p", f),
		funcDecl{key: mod + "/cmd/a.run"}, funcDecl{key: mod + "/cmd/b.run"},
		funcDecl{key: mod + "/cmd/a.main"}, funcDecl{key: mod + "/cmd/b.main"})
	keys = keys[:0]
	for _, d := range unreached(decls, reached) {
		keys = append(keys, d.key)
	}
	want = []string{mod + "/cmd/b.run", mod + "/p.F"}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %v, want %v", keys, want)
	}
}
