package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestProtocolMsgCoversEveryType ties protocolMsg to the Msg* constants:
// it reads every string constant named Msg* declared in the package's
// non-test sources and checks that the machine's type filter accepts it,
// so a message type added without extending the filter fails here
// instead of being dropped before any flow sees it.
func TestProtocolMsgCoversEveryType(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Msg") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					typ, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					found++
					if !protocolMsg(typ) {
						t.Errorf("protocolMsg rejects %s = %q", name.Name, typ)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no Msg* constants found")
	}
	for _, typ := range []string{"", "gka/round3", "gka/round1 "} {
		if protocolMsg(typ) {
			t.Errorf("protocolMsg accepts %q", typ)
		}
	}
}
