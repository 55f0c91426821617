package ps_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRunOptionCensus pins the exported run options. Each one doubles
// the configurations the parity matrix, the differential fuzzer and the
// goldens must cover, so an option stays only while a benchmark metric
// or a correctness test needs it: adding or removing one is a visible
// edit here. Reference implementations the tests diff against (the
// checked kernels, physical storage, fresh arena-free storage) are
// interp.Options fields, reachable inside the module only.
func TestRunOptionCensus(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			for _, res := range fn.Type.Results.List {
				if id, ok := res.Type.(*ast.Ident); ok && id.Name == "RunOption" {
					got = append(got, fn.Name.Name)
				}
			}
		}
	}
	slices.Sort(got)
	want := []string{"Grain", "Sequential", "Strict", "WithProfileLabels", "Workers"}
	if !slices.Equal(got, want) {
		t.Errorf("exported RunOption constructors = %v, want %v", got, want)
	}
}
