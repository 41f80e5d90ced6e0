package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sendFuncs are the calls that put a verb on the wire: the transport's
// sends. A participant verb is sent as a frame (see TestVerbCensus).
var sendFuncs = map[string]bool{
	"Call": true, "Send": true, "CallOneSided": true, "GoOneSided": true,
}

// twoSided are the endpoint's two-sided sends.
var twoSided = map[string]bool{"Call": true, "Send": true}

// twoSidedVerbs are the verbs a two-sided send may name: routing, the
// handoff and topology control plane, the §5 stream and its acks, and
// the liveness ping. Everything else a transaction does rides a wave.
var twoSidedVerbs = map[string]bool{
	"VerbTxnRoute": true, "VerbTopoGet": true, "VerbTopoSet": true, "VerbHandoff": true,
	"VerbHandoffFlush": true, "VerbInnerRepl": true, "VerbInnerAck": true, "VerbPing": true,
}

// Verb census: every Verb* constant in proto.go must be sent and handled
// by code that ships, outside _test.go files and benchmark/. A verb is
// sent when a transport call, or the method variable of one, names it;
// a participant verb vX when a frame of it is posted — the verb a
// Wave.open call or a frame literal names — and its Verb* name is vX's
// row in the verbs table. A verb is handled by a Handle* registration, a
// participant verb by a case of Node.serve. A verb nobody sends is a
// second path the checker never certifies. Two-sided sends name only
// twoSidedVerbs, and the engines in internal/cc reach participants only
// by waves: none of their files makes a two-sided send.
func TestVerbCensus(t *testing.T) {
	fset := token.NewFileSet()
	proto, err := parser.ParseFile(fset, "proto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sent, handled := map[string]bool{}, map[string]bool{}
	participant := map[string]string{} // vX → its row's Verb* name ("" without a row)
	for _, d := range proto.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		enum := false // the const block of the verb type
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if typ, ok := vs.Type.(*ast.Ident); ok && gd.Tok == token.CONST {
				enum = typ.Name == "verb"
			}
			for i, name := range vs.Names {
				switch {
				case gd.Tok == token.CONST && strings.HasPrefix(name.Name, "Verb"):
					sent[name.Name], handled[name.Name] = false, false
				case enum && name.Name != "numVerbs":
					participant[name.Name] = ""
				case gd.Tok == token.VAR && name.Name == "verbs":
					for _, row := range vs.Values[i].(*ast.CompositeLit).Elts {
						kv := row.(*ast.KeyValueExpr)
						participant[kv.Key.(*ast.Ident).Name] = kv.Value.(*ast.CompositeLit).Elts[0].(*ast.Ident).Name
					}
				}
			}
		}
	}
	if len(sent) < 10 || len(participant) != 7 {
		t.Fatalf("found %d Verb constants and %d participant verbs in proto.go — the census is looking in the wrong place", len(sent), len(participant))
	}
	for v, name := range participant {
		if name == "" {
			t.Errorf("participant verb %s has no row in the verbs table", v)
		}
	}
	for v := range twoSidedVerbs {
		if _, ok := sent[v]; !ok {
			t.Errorf("twoSidedVerbs names %s, which proto.go does not declare", v)
		}
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
	// pmark marks the Verb* name of each participant verb exprs name.
	pmark := func(set map[string]bool, exprs ...ast.Expr) {
		for _, e := range exprs {
			if id, ok := e.(*ast.Ident); ok && participant[id.Name] != "" {
				set[participant[id.Name]] = true
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
				case fn == "open": // Wave.open(target, vX)
					pmark(sent, n.Args...)
				case strings.HasPrefix(fn, "Handle"):
					mark(handled, n.Args)
				case sendFuncs[fn]:
					mark(sent, n.Args)
					if !twoSided[fn] {
						break
					}
					if strings.HasPrefix(filepath.ToSlash(path), "../../internal/cc/") {
						t.Errorf("%s: %s is a two-sided send; an engine reaches participants by waves", fset.Position(n.Pos()), fn)
					}
					for _, a := range n.Args {
						if v, ok := verbIn(a); ok && !twoSidedVerbs[v] {
							t.Errorf("%s: %s sends %s two-sided; only %v may be", fset.Position(n.Pos()), fn, v, slices.Sorted(maps.Keys(twoSidedVerbs)))
						}
					}
				case fn == "ReplicateAll" || fn == "Replicate":
					replicates[filepath.ToSlash(filepath.Dir(path))] = true
				case fn == "Commit":
					tails[filepath.ToSlash(filepath.Dir(path))] = true
				}
			case *ast.AssignStmt: // method := VerbDoorbell, later sent
				mark(sent, n.Rhs)
			case *ast.CompositeLit: // frame{verb: vX, ...}
				if typ, ok := n.Type.(*ast.Ident); ok && typ.Name == "frame" {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok && kv.Key.(*ast.Ident).Name == "verb" {
							pmark(sent, kv.Value)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Name.Name != "serve" || n.Recv == nil {
					break
				}
				ast.Inspect(n, func(c ast.Node) bool {
					if cc, ok := c.(*ast.CaseClause); ok {
						pmark(handled, cc.List...)
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
