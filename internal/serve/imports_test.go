package serve

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoHTTPInImportGraph pins that the engine has no HTTP surface of its
// own: no non-test file of this package, nor of any module package it
// imports, imports net/http or one of its subpackages. The daemon's HTTP
// contract, 503s included, lives in internal/cluster.
func TestNoHTTPInImportGraph(t *testing.T) {
	const module = "mecoffload/internal/"
	seen := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		if seen[dir] {
			return
		}
		seen[dir] = true
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				switch {
				case p == "net/http" || strings.HasPrefix(p, "net/http/"):
					t.Errorf("%s imports %s", path, p)
				case strings.HasPrefix(p, module):
					walk(filepath.Join("..", strings.TrimPrefix(p, module)))
				}
			}
		}
	}
	walk(".")
}
