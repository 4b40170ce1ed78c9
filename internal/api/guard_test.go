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
//     writer, a Retry-After parser, a health probe, a failover classifier,
//     a request body reader;
//   - a second deadline or a second body reader: http.TimeoutHandler, which
//     answered past its deadline while the handler ran on, and
//     http.MaxBytesReader. A request's context carries its one deadline,
//     and both daemons read every body through one reader (ReadBody);
//   - a second place attaching a work budget: obs.WithBudget is called by
//     Server.instrument, which puts the tenant's budget on every read, and
//     by the watch hub's evaluation, which gives each one a fresh budget.
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
		"readbody": "api.ReadBody",
	}
	reservedHTTP = map[string]string{
		"TimeoutHandler": "the request's context carries its deadline (api.Pipeline.Wrap)",
		"MaxBytesReader": "read the body with api.ReadBody",
	}
	// budgetAttachers are the functions that may call obs.WithBudget, named
	// package.Receiver.Func.
	budgetAttachers = map[string]bool{
		"server.Server.instrument": true,
		"watch.dbWatch.evalSet":    true,
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
			x, ok := n.X.(*ast.Ident)
			if !ok || x.Name != "http" {
				break
			}
			if n.Sel.Name == "Client" && !pointee[n] {
				out = append(out, violation{n.Pos(), "builds an http.Client; use api.NewClient (or a nil *api.Client)"})
			}
			if use, ok := reservedHTTP[n.Sel.Name]; ok {
				out = append(out, violation{n.Pos(), "uses http." + n.Sel.Name + "; " + use})
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
	for _, d := range f.Decls {
		where := f.Name.Name
		if name := declName(d); name != "" {
			where += "." + name
		}
		ast.Inspect(d, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "WithBudget" || budgetAttachers[where] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "obs" {
				out = append(out, violation{n.Pos(), "calls obs.WithBudget in " + where + "; Server.instrument attaches a read's budget, the watch hub an evaluation's"})
			}
			return true
		})
	}
	return out
}

// declName names a declaration Receiver.Func, Func, or "" outside functions.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
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

func (s *server) readBody(r *http.Request) ([]byte, error) { return nil, nil }

func f(r *http.Request, base string) {
	_ = &http.Client{}
	_ = new(http.Client)
	_ = r.Header.Get("x-api-key")
	_ = r.Header.Get("Retry-After")
	_ = base + "/readyz"
	_ = "GET /readyz"
	_ = http.TimeoutHandler(nil, 0, "")
	_ = http.MaxBytesReader(nil, r.Body, 1)
}

func (s *Server) traceContext(r *http.Request) context.Context {
	return obs.WithBudget(r.Context(), s.adm.Budget(""))
}

var detached = obs.WithBudget(context.Background(), nil)
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
		"defines writeJSON", "defines failover", "defines readBody",
		"builds an http.Client", "builds an http.Client",
		`spells "x-api-key" as a literal`, `spells "Retry-After" as a literal`, `spells "/readyz" as a literal`,
		"uses http.TimeoutHandler", "uses http.MaxBytesReader",
		"calls obs.WithBudget in p.Server.traceContext", "calls obs.WithBudget in p",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant\n%q", got, want)
	}

	// The two attachers are left alone, each in its own package only.
	for _, tc := range []struct {
		pkg, decl string
		want      int
	}{
		{"server", "func (s *Server) instrument()", 0},
		{"watch", "func (dw *dbWatch) evalSet()", 0},
		{"watch", "func (s *Server) instrument()", 1},
	} {
		src := "package " + tc.pkg + "\n" + tc.decl + " { _ = obs.WithBudget(nil, nil) }\n"
		f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(kitViolations(f)); got != tc.want {
			t.Errorf("%q: %d violations, want %d", src, got, tc.want)
		}
	}
}
