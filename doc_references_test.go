package gllm_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the docs whose code spans must name things that exist.
// ROADMAP.md and CHANGES.md name planned and deleted symbols by design;
// benchmark/README.md describes the frozen benchmark and is exempt until
// ROADMAP item 8 thaws it.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// qualifiedRef is pkg.Name (pkg.Type.Method, …) not inside a path or
	// another dotted name; the package is resolved against the tree.
	qualifiedRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])([a-z][a-z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)`)
	// typeRef is an unqualified Type.Member (Handle.Next, Pool.Complete),
	// not inside a path or another dotted name.
	typeRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)
	// snakeCase is a benchmark metric's name after its layer prefix
	// (sched.schedule_ns): Go names are mixedCaps, so it is not a symbol.
	snakeCase = regexp.MustCompile(`^[a-z0-9]+(?:_[a-z0-9]+)+$`)
	testRef   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	makeRef   = regexp.MustCompile(`\bmake +([a-z][a-z0-9-]*)`)
	// flagWord is a command-line word naming a flag: -name, --name, -name=v.
	flagWord = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)
	// makeTarget is a rule line of the Makefile.
	makeTarget = regexp.MustCompile(`^([a-z][a-z0-9-]*):`)
)

// TestDocReferences keeps the docs from naming what the tree no longer has
// (ROADMAP item 12(a)). In every code span of checkedDocs:
//   - a pkg.Name whose pkg is a package under internal/ must name a func,
//     method, type, var, const or struct field of that package; when Name
//     is a type, the next dotted name must be one of its members, and any
//     further ones must be declared somewhere in the tree;
//   - a Type.Member whose Type is a type declared in the tree must name a
//     method, struct field or interface method of a type of that name, or
//     of a type it embeds;
//   - a Test*, Fuzz* or Benchmark* name must be a test function in the tree
//     (a trailing * matches by prefix);
//   - make X must name a Makefile target;
//   - a -flag word after a binary's name (gllm-sim, ./cmd/gllm-sim) must be
//     a flag that binary's main.go registers, until a shell separator.
//
// Like TestNoOrphanExports the scan is by name (go/parser, no type
// checking).
func TestDocReferences(t *testing.T) {
	pkgNames := map[string]map[string]bool{} // package → names it declares
	allNames := map[string]bool{}
	members := map[string]map[string]bool{} // type name → its methods and fields
	embeds := map[string][]string{}         // type name → the types it embeds
	var tests []string
	fset := token.NewFileSet()
	for _, root := range []string{".", "internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			var names map[string]bool
			if root == "internal" {
				pkg := strings.TrimSuffix(f.Name.Name, "_test")
				if pkgNames[pkg] == nil {
					pkgNames[pkg] = map[string]bool{}
				}
				names = pkgNames[pkg]
			}
			declare := func(id *ast.Ident) {
				allNames[id.Name] = true
				if names != nil {
					names[id.Name] = true
				}
			}
			member := func(typ, name string) {
				if members[typ] == nil {
					members[typ] = map[string]bool{}
				}
				members[typ][name] = true
			}
			// declareFields declares a struct's fields or an interface's
			// methods; owner, when set, is the type they are members of.
			declareFields := func(owner string, fields *ast.FieldList) {
				for _, fld := range fields.List {
					for _, id := range fld.Names {
						declare(id)
						if owner != "" {
							member(owner, id.Name)
						}
					}
					if len(fld.Names) == 0 { // embedded: the type's name is the field's
						if id := typeName(fld.Type); id != nil {
							declare(id)
							if owner != "" {
								member(owner, id.Name)
								embeds[owner] = append(embeds[owner], id.Name)
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declare(n.Name)
					if n.Recv != nil {
						if id := typeName(n.Recv.List[0].Type); id != nil {
							member(id.Name, n.Name.Name)
						}
					}
					if n.Recv == nil && strings.HasSuffix(path, "_test.go") && testRef.MatchString(n.Name.Name) {
						tests = append(tests, n.Name.Name)
					}
				case *ast.TypeSpec:
					declare(n.Name)
					if members[n.Name.Name] == nil {
						members[n.Name.Name] = map[string]bool{}
					}
					switch t := n.Type.(type) {
					case *ast.StructType:
						declareFields(n.Name.Name, t.Fields)
					case *ast.InterfaceType:
						declareFields(n.Name.Name, t.Methods)
					}
				case *ast.ValueSpec:
					for _, id := range n.Names {
						declare(id)
					}
				case *ast.StructType:
					declareFields("", n.Fields)
				case *ast.InterfaceType:
					declareFields("", n.Methods)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(pkgNames["sched"]) == 0 || len(tests) == 0 {
		t.Fatal("found no packages or tests; the scan is looking in the wrong place")
	}
	targets := makeTargets(t)
	flags := binFlags(t)
	// hasMember reports whether a type named typ, or one it embeds, has a
	// method or field called name.
	var hasMember func(typ, name string, seen map[string]bool) bool
	hasMember = func(typ, name string, seen map[string]bool) bool {
		if members[typ][name] {
			return true
		}
		seen[typ] = true
		for _, e := range embeds[typ] {
			if !seen[e] && hasMember(e, name, seen) {
				return true
			}
		}
		return false
	}

	checked := 0
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(raw)) {
			where := doc + ":" + strconv.Itoa(span.line)
			for _, m := range qualifiedRef.FindAllStringSubmatch(span.text, -1) {
				names, ok := pkgNames[m[1]]
				if !ok {
					continue
				}
				parts := strings.Split(m[2][1:], ".")
				if snakeCase.MatchString(parts[0]) {
					continue
				}
				checked++
				if !names[parts[0]] {
					t.Errorf("%s: `%s.%s` names nothing in package %s", where, m[1], parts[0], m[1])
					continue
				}
				rest := parts[1:]
				if _, isType := members[parts[0]]; isType && len(rest) > 0 {
					if !hasMember(parts[0], rest[0], map[string]bool{}) {
						t.Errorf("%s: `%s%s`: type %s has no member %s", where, m[1], m[2], parts[0], rest[0])
					}
					rest = rest[1:]
				}
				for _, p := range rest {
					if !allNames[p] {
						t.Errorf("%s: `%s%s`: %s is declared nowhere in the tree", where, m[1], m[2], p)
					}
				}
			}
			for _, m := range typeRef.FindAllStringSubmatch(span.text, -1) {
				if _, isType := members[m[1]]; !isType {
					continue
				}
				checked++
				if !hasMember(m[1], m[2], map[string]bool{}) {
					t.Errorf("%s: `%s.%s`: type %s has no member %s", where, m[1], m[2], m[1], m[2])
				}
			}
			for _, ref := range testRef.FindAllString(span.text, -1) {
				checked++
				if !namesTest(tests, ref) {
					t.Errorf("%s: `%s` names no test function", where, ref)
				}
			}
			for _, m := range makeRef.FindAllStringSubmatch(span.text, -1) {
				checked++
				if !targets[m[1]] {
					t.Errorf("%s: `make %s` is no Makefile target", where, m[1])
				}
			}
			bin := ""
			for _, w := range strings.Fields(span.text) {
				if _, ok := flags[w[strings.LastIndex(w, "/")+1:]]; ok {
					bin = w[strings.LastIndex(w, "/")+1:]
					continue
				}
				switch m := flagWord.FindStringSubmatch(w); {
				case w == "|" || w == "&&" || w == "||" || w == ";" || w == "&":
					bin = ""
				case bin != "" && m != nil:
					checked++
					if !flags[bin][m[1]] {
						t.Errorf("%s: `%s -%s`: %s registers no flag -%s", where, bin, m[1], bin, m[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("checked no reference; the span scan is broken")
	}
	t.Logf("%d references checked in %s", checked, strings.Join(checkedDocs, ", "))
}

// typeName returns the name of the type a receiver or embedded field
// expression refers to: T, *T, pkg.T, T[P] and their pointers.
func typeName(x ast.Expr) *ast.Ident {
	switch x := x.(type) {
	case *ast.Ident:
		return x
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	}
	return nil
}

// namesTest reports whether ref names one of tests; a trailing * matches
// any test with that prefix.
func namesTest(tests []string, ref string) bool {
	prefix, isPrefix := strings.CutSuffix(ref, "*")
	for _, name := range tests {
		if name == ref || isPrefix && strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// binFlags returns, for each binary under cmd/, the flags its main.go
// registers: the name argument of every flag.XVar (the second) and every
// other flag.X (the first) call, plus the flag package's own -h and -help.
func binFlags(t *testing.T) map[string]map[string]bool {
	mains, err := filepath.Glob("cmd/gllm-*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	bins := map[string]map[string]bool{}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{"h": true, "help": true}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					flags[name] = true
				}
			}
			return true
		})
		bins[filepath.Base(filepath.Dir(path))] = flags
	}
	if !bins["gllm-sim"]["check-invariants"] || !bins["gllm-experiments"]["run"] {
		t.Fatal("found no flag registrations; the flag scan is broken")
	}
	return bins
}

// makeTargets returns the Makefile's rule names.
func makeTargets(t *testing.T) map[string]bool {
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	targets := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := makeTarget.FindStringSubmatch(sc.Text()); m != nil {
			targets[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !targets["check"] {
		t.Fatal("Makefile has no check target; the target scan is broken")
	}
	return targets
}

type codeSpan struct {
	text string
	line int // 1-based line of the opening backtick
}

// codeSpans returns the inline code spans of a Markdown document: text
// between two runs of the same number of backticks, possibly across line
// breaks. Fenced code blocks are skipped whole.
func codeSpans(doc string) []codeSpan {
	lines := strings.Split(doc, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text := strings.Join(lines, "\n")
	var spans []codeSpan
	for i := 0; i < len(text); {
		if text[i] != '`' {
			i++
			continue
		}
		n := 1
		for i+n < len(text) && text[i+n] == '`' {
			n++
		}
		open := i
		i += n
		for j := i; j < len(text); {
			if text[j] != '`' {
				j++
				continue
			}
			m := 1
			for j+m < len(text) && text[j+m] == '`' {
				m++
			}
			if m == n {
				spans = append(spans, codeSpan{text[i:j], 1 + strings.Count(text[:open], "\n")})
				i = j + m
				break
			}
			j += m
		}
	}
	return spans
}
