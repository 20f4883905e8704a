package gllm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// clockCallSites is the committed number of wall-clock call sites in
// non-test files under internal/. It only goes down: ROADMAP 1(b) moves
// them behind an injectable clock, and a reading nothing uses is a cost on
// a hot path (readings the live runtime threw away at TimeScale 0 were
// 13 % of decode_stream's CPU). Lower it when a change removes sites.
const clockCallSites = 40

// clockFuncs are the package time functions that read or wait on the wall
// clock (time.After and time.AfterFunc by prefix).
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Sleep": true, "NewTimer": true}

// TestClockCensus is the ratchet on clockCallSites: it fails when a new
// time.Now / Since / Sleep / After* / NewTimer call site appears under
// internal/ without one going elsewhere.
func TestClockCensus(t *testing.T) {
	fset := token.NewFileSet()
	perFile := map[string]int{}
	total := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				pkg = "time"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg &&
				(clockFuncs[sel.Sel.Name] || strings.HasPrefix(sel.Sel.Name, "After")) {
				perFile[path]++
				total++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("found no clock call site under internal/; the census is looking in the wrong place")
	}
	files := make([]string, 0, len(perFile))
	for f, n := range perFile {
		files = append(files, f+": "+strconv.Itoa(n))
	}
	sort.Strings(files)
	t.Logf("%d wall-clock call sites under internal/ (committed %d):\n%s",
		total, clockCallSites, strings.Join(files, "\n"))
	if total > clockCallSites {
		t.Errorf("%d wall-clock call sites under internal/, above the committed %d", total, clockCallSites)
	}
}
