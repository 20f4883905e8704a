package gllm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// viaInterface are method names reached through a standard-library
// interface (fmt, sort, container/heap, net/http, flag, encoding), which
// a name scan of this tree cannot see.
var viaInterface = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Flush": true,
	"Write": true, "Set": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestNoOrphanExports keeps ROADMAP item 7(b) finished: an exported func or
// method declared in a non-test file under internal/ must be named by some
// file of internal/, cmd/ or benchmark/ other than its own declaration and
// its own package's tests — a symbol only its unit test reaches is dead
// weight with a guard on it. The scan is by name (go/parser, no type
// checking), so it is conservative: a namesake anywhere counts as a use.
func TestNoOrphanExports(t *testing.T) {
	type decl struct{ name, file string }
	var decls []decl
	usedIn := map[string]map[string]bool{} // ident → files naming it
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declNames := map[*ast.Ident]bool{}
			for _, top := range f.Decls {
				if fd, ok := top.(*ast.FuncDecl); ok {
					declNames[fd.Name] = true
					if root == "internal" && fd.Name.IsExported() && !strings.HasSuffix(path, "_test.go") {
						decls = append(decls, decl{fd.Name.Name, path})
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declNames[id] {
					if usedIn[id.Name] == nil {
						usedIn[id.Name] = map[string]bool{}
					}
					usedIn[id.Name][path] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var orphans []string
	for _, d := range decls {
		if viaInterface[d.name] {
			continue
		}
		used := false
		for file := range usedIn[d.name] {
			ownTest := strings.HasSuffix(file, "_test.go") && filepath.Dir(file) == filepath.Dir(d.file)
			used = used || !ownTest
		}
		if !used {
			orphans = append(orphans, d.file+": "+d.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is named by nothing but its own package's tests", o)
	}
}
