package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sendFuncs are the calls that put a verb on the wire: the transport's
// sends and the doorbell's frame builders (the wave's for the frames in
// the lock-request encoding).
var sendFuncs = map[string]bool{
	"Call": true, "Go": true, "Send": true, "CallOneSided": true, "GoOneSided": true, "begin": true, "entries": true,
}

// twoSided are the endpoint's two-sided sends.
var twoSided = map[string]bool{"Call": true, "Go": true, "Send": true}

// Verb census: every Verb* constant in proto.go must be sent and handled
// by code that ships — named by at least one send (a transport call, a
// doorbell post, or the method variable of one) and by one Handle*
// registration or applyVerb frame case, outside _test.go files and
// benchmark/. A verb nobody sends is a second path the checker never
// certifies. The engines in internal/cc reach participants only by
// waves: none of their files makes a two-sided send.
func TestVerbCensus(t *testing.T) {
	fset := token.NewFileSet()
	proto, err := parser.ParseFile(fset, "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sent, handled := map[string]bool{}, map[string]bool{}
	for _, d := range proto.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if strings.HasPrefix(name.Name, "Verb") {
					sent[name.Name], handled[name.Name] = false, false
				}
			}
		}
	}
	if len(sent) < 10 {
		t.Fatalf("found only %d Verb constants in proto.go — the census is looking in the wrong place", len(sent))
	}

	// verbIn reports the verb constant e names (VerbX or server.VerbX).
	verbIn := func(e ast.Expr) (string, bool) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return "", false
		}
		_, known := sent[id.Name]
		return id.Name, known
	}
	mark := func(set map[string]bool, exprs []ast.Expr) {
		for _, e := range exprs {
			if v, ok := verbIn(e); ok {
				set[v] = true
			}
		}
	}
	replicates := map[string]bool{} // package directory → posts replicate frames
	tails := map[string]bool{}      // package directory → ends in the shared synchronous tail (cc.Txn.Commit)
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "benchmark" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := ""
				switch fun := n.Fun.(type) {
				case *ast.SelectorExpr:
					fn = fun.Sel.Name
				case *ast.Ident:
					fn = fun.Name
				}
				switch {
				case strings.HasPrefix(fn, "Handle"):
					mark(handled, n.Args)
				case sendFuncs[fn]:
					mark(sent, n.Args)
					if twoSided[fn] && strings.HasPrefix(filepath.ToSlash(path), "../../internal/cc/") {
						t.Errorf("%s: %s is a two-sided send; an engine reaches participants by waves", fset.Position(n.Pos()), fn)
					}
				case fn == "ReplicateAll" || fn == "Replicate":
					replicates[filepath.ToSlash(filepath.Dir(path))] = true
				case fn == "Commit":
					tails[filepath.ToSlash(filepath.Dir(path))] = true
				}
			case *ast.AssignStmt: // method := VerbDoorbell, later sent
				mark(sent, n.Rhs)
			case *ast.FuncDecl:
				if n.Name.Name != "applyVerb" {
					break
				}
				ast.Inspect(n, func(c ast.Node) bool {
					if cc, ok := c.(*ast.CaseClause); ok {
						mark(handled, cc.List)
					}
					return true
				})
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for v := range sent {
		switch {
		case !sent[v] && !handled[v]:
			dead = append(dead, v+": never sent, never handled")
		case !sent[v]:
			dead = append(dead, v+": handled but never sent")
		case !handled[v]:
			dead = append(dead, v+": sent but never handled")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	// Chiller's tail posts its replicate frames itself; 2PL and OCC end in
	// the one synchronous tail in internal/cc, which posts theirs.
	for engine, posts := range map[string]map[string]bool{
		"internal/core": replicates, "internal/cc": replicates, "internal/cc/twopl": tails, "internal/cc/occ": tails,
	} {
		if !posts["../../"+engine] {
			t.Errorf("%s never posts a replicate frame: its outer writes take some other way to the replicas", engine)
		}
	}
}
