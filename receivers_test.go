package gllm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// TestCostPathHasNoValueReceivers keeps the cost chain copy-free: one
// gpu.CostModel.StageTime descends through about fifteen methods of
// gpu.CostModel and model.Config, and with value receivers each of them
// copied a struct of well over a hundred bytes (6 % of a sim_sweep profile
// in runtime.duffcopy, gpu.stage_time_ns 151 against 21). A single method
// declared on the value brings its copy back, so none may be.
func TestCostPathHasNoValueReceivers(t *testing.T) {
	for dir, typ := range map[string]string{"internal/gpu": "CostModel", "internal/model": "Config"} {
		fset := token.NewFileSet()
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %d files, %v", dir, len(files), err)
		}
		methods := 0
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, top := range f.Decls {
				fd, ok := top.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				switch recv := fd.Recv.List[0].Type.(type) {
				case *ast.Ident:
					if recv.Name == typ {
						t.Errorf("%s: %s.%s has a value receiver", fset.Position(fd.Pos()), typ, fd.Name.Name)
					}
				case *ast.StarExpr:
					if id, ok := recv.X.(*ast.Ident); ok && id.Name == typ {
						methods++
					}
				}
			}
		}
		if methods == 0 {
			t.Errorf("%s: found no method of %s; the guard is looking in the wrong place", dir, typ)
		}
	}
}
