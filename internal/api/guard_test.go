package api

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestOneKit keeps the copies this package replaced from growing back: it
// parses every non-test file of the module outside internal/api and fails on
//
//   - an http.Client that is built rather than borrowed (anything but
//     *http.Client): the kit's is the module's only one;
//   - a header name the daemons exchange, or the probe path, spelled as a
//     literal instead of through the kit's constants and Client.Ready;
//   - a struct decoding or encoding an "error" member as anything but a
//     string (the partial-failure report) or the kit's ErrorBody;
//   - a function named like the helpers that were copied around: an envelope
//     writer, a Retry-After parser, a health probe, a failover classifier.
//
// Nested modules (bench/) are their own business.
func TestOneKit(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	kit := filepath.Join(root, "internal", "api")
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if path != root && (nested == nil || path == kit || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, v := range kitViolations(f) {
			t.Errorf("%s:%d: %s", rel, fset.Position(v.pos).Line, v.what)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files from %s: the guard is not looking at the module", files, root)
	}
}

type violation struct {
	pos  token.Pos
	what string
}

var (
	reservedLiterals = map[string]string{
		strings.ToLower(HeaderAPIKey):     "api.HeaderAPIKey",
		strings.ToLower(HeaderRequestID):  "api.HeaderRequestID",
		strings.ToLower(HeaderTraceID):    "api.HeaderTraceID",
		strings.ToLower(HeaderRouter):     "api.HeaderRouter",
		strings.ToLower(HeaderShard):      "api.HeaderShard",
		strings.ToLower(HeaderRetryAfter): "api.HeaderRetryAfter",
		"/readyz":                         "api.Client.Ready",
	}
	reservedFuncs = map[string]string{
		"writejson": "api.WriteJSON", "writeerror": "api.WriteError",
		"retryafterseconds": "api.DecodeError", "remoteerrorparts": "api.DecodeError",
		"ishealthy": "api.Client.Ready", "failover": "api.Failover", "retrydelay": "api.RetryDelay",
	}
)

func kitViolations(f *ast.File) []violation {
	var out []violation
	// http.Client may only appear as *http.Client.
	pointee := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StarExpr:
			pointee[n.X] = true
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "http" && n.Sel.Name == "Client" && !pointee[n] {
				out = append(out, violation{n.Pos(), "builds an http.Client; use api.NewClient (or a nil *api.Client)"})
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING {
				break
			}
			if s, err := strconv.Unquote(n.Value); err == nil {
				if use, ok := reservedLiterals[strings.ToLower(s)]; ok {
					out = append(out, violation{n.Pos(), "spells " + n.Value + " as a literal; use " + use})
				}
			}
		case *ast.FuncDecl:
			if use, ok := reservedFuncs[strings.ToLower(n.Name.Name)]; ok {
				out = append(out, violation{n.Pos(), "defines " + n.Name.Name + "; the one definition is " + use})
			}
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				if fld.Tag == nil {
					continue
				}
				tag, _ := strconv.Unquote(fld.Tag.Value)
				name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				if name == "error" && !stringOrErrorBody(fld.Type) {
					out = append(out, violation{fld.Pos(), `declares an "error" member of its own shape; use *api.ErrorBody (api.ReadError decodes envelopes)`})
				}
			}
		}
		return true
	})
	return out
}

func stringOrErrorBody(t ast.Expr) bool {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name == "string"
	case *ast.SelectorExpr:
		x, ok := t.X.(*ast.Ident)
		return ok && x.Name == "api" && t.Sel.Name == "ErrorBody"
	}
	return false
}

// TestOneKitCatches: the guard recognises each copy it exists to refuse, and
// leaves alone what it must.
func TestOneKitCatches(t *testing.T) {
	src := `package p

import "net/http"

type opts struct {
	HTTP  *http.Client ` + "`json:\"-\"`" + `
	Inner http.Client
}

type env struct {
	Error struct{ Code string } ` + "`json:\"error\"`" + `
}

type item struct {
	Error *api.ErrorBody ` + "`json:\"error,omitempty\"`" + `
}

type failure struct {
	Error string ` + "`json:\"error\"`" + `
	Errors int   ` + "`json:\"errors\"`" + `
}

func writeJSON() {}

func failover(err error) bool { return true }

func f(r *http.Request, base string) {
	_ = &http.Client{}
	_ = new(http.Client)
	_ = r.Header.Get("x-api-key")
	_ = r.Header.Get("Retry-After")
	_ = base + "/readyz"
	_ = "GET /readyz"
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range kitViolations(f) {
		got = append(got, v.what[:strings.IndexAny(v.what, ";")])
	}
	want := []string{
		"builds an http.Client", // Inner
		`declares an "error" member of its own shape`,
		"defines writeJSON", "defines failover",
		"builds an http.Client", "builds an http.Client",
		`spells "x-api-key" as a literal`, `spells "Retry-After" as a literal`, `spells "/readyz" as a literal`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant\n%q", got, want)
	}
}
