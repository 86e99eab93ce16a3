package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported declarations under internal/ that no
// non-test file uses and that stay anyway, each with its reason. Keys are
// package.Name or package.Type.Method.
var testOnlyAllowed = map[string]string{
	// Test constructors and helpers.
	"asm.MustAssemble":    "test constructor: assembles a fixed source or fails the test",
	"compile.MustCompile": "test constructor: compiles a fixed program or fails the test",
	"isa.MustEncode":      "test constructor: encodes a fixed instruction or fails the test",
	"isa.Program.Sym":     "test helper: a symbol's address, panicking if undefined",
	"clitest.Main":        "test helper: re-runs a command's main in a child of its test binary",

	// References that tests compare against.
	"mem.Memory.FirstDiff":      "reference: three packages check pipeline memory against the emulator's",
	"jpegsim.ReferenceChecksum": "reference: the djpeg decoders' expected output",
	"cache.Cache.ProbeLatency":  "reference: the prime+probe test reads primed and evicted lines without disturbing them",

	// Seams that tests in other packages read.
	"pipeline.SetSpecWatchDefault": "seam: experiments and attack tests arm a spec watch on cores they do not build",
	"emu.Machine.Halted":           "seam: tests step the emulator to its halt",
	"pipeline.Core.Halted":         "seam: experiments and root benchmarks step a core to its halt",
	"bpred.TAGE.BaseCounter":       "seam: attack tests read the counter the victim's branch trained",
	"obs.Registry.Snapshot":        "seam: tests read metric values without parsing the exposition",

	// Used by the root Go benchmarks.
	"pipeline.NewFromPrototype": "root benchmark: vends cores from a prototype; stays until NewPrototype drops its program argument",
	"mem.PhyRSSnapshotBytes":    "root benchmark: the snapshot-size ablation's PhyRS point",

	// Enum zero values: they reserve zero so a missing value is invalid.
	"isa.OpInvalid":      "enum zero value",
	"isa.ClassNone":      "enum zero value",
	"pipeline.FlushNone": "enum zero value",
}

// exportedDecl is one exported top-level declaration under internal/.
type exportedDecl struct {
	key, name string
	pos       token.Position
}

// TestNoTestOnlyAPI fails when an exported declaration under internal/ has a
// name that no non-test .go file of the module (examples/ and bench/
// included) mentions except where a top-level declaration introduces it or
// inside a function of the same name, unless testOnlyAllowed names it.
// Matching is by name alone, so a same-named field, local or selector
// elsewhere counts as a use, while a recursive call does not: the gate can
// miss a test-only export, and flags a used one only when its sole callers
// are same-named functions.
func TestNoTestOnlyAPI(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	uses := map[string]bool{} // identifier names mentioned outside top-level declaration names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, decl := range f.Decls {
			declNames := map[*ast.Ident]bool{}
			for _, id := range declIdents(decl) {
				declNames[id] = true
				if internal && id.IsExported() {
					decls = append(decls, exportedDecl{declKey(f.Name.Name, decl, id), id.Name, fset.Position(id.Pos())})
				}
			}
			self := "" // a function's own name is no use inside its body
			if fd, ok := decl.(*ast.FuncDecl); ok {
				self = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declNames[id] && id.Name != self {
					uses[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	testOnly := map[string]bool{}
	for _, d := range decls {
		if uses[d.name] {
			continue
		}
		testOnly[d.key] = true
		if _, ok := testOnlyAllowed[d.key]; !ok {
			t.Errorf("%s:%d %s: only tests use it; delete it and move its tests onto the API that remains",
				d.pos.Filename, d.pos.Line, d.key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(testOnlyAllowed)) {
		if !testOnly[key] {
			t.Errorf("allowlist entry %s is no longer a test-only export; remove it", key)
		}
	}
}

// declIdents returns the names a top-level declaration introduces.
func declIdents(decl ast.Decl) []*ast.Ident {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// declKey names a declaration as package.Name, or package.Type.Method for
// a method.
func declKey(pkg string, decl ast.Decl, id *ast.Ident) string {
	if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch g := typ.(type) {
		case *ast.IndexExpr:
			typ = g.X
		case *ast.IndexListExpr:
			typ = g.X
		}
		if recv, ok := typ.(*ast.Ident); ok {
			return pkg + "." + recv.Name + "." + id.Name
		}
	}
	return pkg + "." + id.Name
}
