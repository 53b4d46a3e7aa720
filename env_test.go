package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Configuration is passed explicitly, never read from the ambient
// environment at call time: no program file under internal/ or pkg/
// may call os.Getenv, os.LookupEnv or os.Environ. The one exception is
// internal/fault, whose ArmFromEnv arms the failpoints once at startup.
func TestNoAmbientEnvironmentReads(t *testing.T) {
	banned := map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "pkg"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if path == filepath.Join("internal", "fault") {
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
			osRef := osName(f)
			if osRef == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == osRef && banned[sel.Sel.Name] {
						t.Errorf("%s: reads the environment via os.%s", fset.Position(sel.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// osName returns the name file f refers to package os by, or "" when f
// does not import it by name.
func osName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != "os" {
			continue
		}
		if imp.Name == nil {
			return "os"
		}
		if imp.Name.Name != "_" && imp.Name.Name != "." {
			return imp.Name.Name
		}
	}
	return ""
}
