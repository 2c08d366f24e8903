package whisper

import (
	"bufio"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryFunctionReached builds every binary of the module without
// inlining, reads their symbols, and fails when a function declared outside
// a _test.go file is reached by none of them and is not in
// testdata/unreached.allow, or when an entry of that list is reached or no
// longer declared — so the list only shrinks. go test ./... runs it; by
// itself it is
//
//	go test -run TestEveryFunctionReached .
//
// An interface method the program never calls is dropped by the linker and
// counts as unreached, which is what it is.
func TestEveryFunctionReached(t *testing.T) {
	const allowPath = "testdata/unreached.allow"
	out, err := exec.Command("go", "list", "-f",
		"{{.ImportPath}}\t{{.Dir}}\t{{.Name}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mod := strings.TrimSpace(run(t, "go", "list", "-m"))
	bin := t.TempDir()
	var decls []funcDecl
	mains := map[string]string{} // binary name → import path
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		importPath, dir, name := f[0], f[1], f[2]
		for _, file := range strings.Fields(f[3]) {
			af, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			decls = append(decls, fileDecls(fset, importPath, af)...)
		}
		if name == "main" {
			if prev, dup := mains[path.Base(importPath)]; dup {
				t.Fatalf("binaries %s and %s share a name", prev, importPath)
			}
			mains[path.Base(importPath)] = importPath
		}
	}
	args := []string{"build", "-gcflags=all=-l", "-o", bin + "/"}
	for _, p := range mains {
		args = append(args, p)
	}
	run(t, "go", args...)
	reached := map[string]bool{}
	for name, p := range mains {
		addSymbols([]byte(run(t, "go", "tool", "nm", filepath.Join(bin, name))), p, reached)
	}

	short := func(key string) string {
		if s, ok := strings.CutPrefix(key, mod+"/"); ok {
			return s
		}
		return strings.Replace(key, mod, path.Base(mod), 1)
	}
	allowed := map[string]bool{}
	af, err := os.Open(allowPath)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	sc := bufio.NewScanner(af)
	for sc.Scan() {
		key, reason, _ := strings.Cut(sc.Text(), "#")
		key = strings.TrimSpace(key)
		if key == "" {
			continue
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no # reason", allowPath, key)
		}
		allowed[key] = true
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[short(d.key)] = true
	}
	total := 0
	for _, d := range unreached(decls, reached) {
		k := short(d.key)
		if allowed[k] {
			delete(allowed, k)
			continue
		}
		total += d.lines
		t.Errorf("%s: %s is reached by no binary (%d lines); delete it, move it into a _test.go file, or allow-list it with a reason", d.pos, k, d.lines)
	}
	for k := range allowed {
		if declared[k] {
			t.Errorf("%s: %s is reached by a binary now; delete its line", allowPath, k)
		} else {
			t.Errorf("%s: %s is no longer declared; delete its line", allowPath, k)
		}
	}
	if total > 0 {
		t.Logf("%d lines unreached", total)
	}
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(name, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}
