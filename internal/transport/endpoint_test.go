package transport_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

// One Send is one message on either fabric, whether its handler replies
// or not: a one-way request has no response leg, so a reply goes nowhere
// and counts nothing. (The replication stream's applies and acks are
// Sends to replying handlers, so this is msgs_per_commit's accuracy.)
func TestSendIsOneMessage(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		a, b := pair(t)
		b.Handle("sync", echo)
		b.HandleAsync("async", func(_ transport.NodeID, req []byte, reply func([]byte, error)) { reply(req, nil) })
		b.Handle("fence", echo)
		sent := func() (n uint64) {
			seen := map[*transport.Stats]bool{}
			for _, ep := range []transport.Endpoint{a, b} {
				if st := ep.Stats(); !seen[st] {
					seen[st] = true
					n += st.MessagesSent.Load()
				}
			}
			return n
		}
		before := sent()
		for _, m := range []string{"sync", "async"} {
			if err := a.Send(2, m, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// Per-link FIFO starts the fence's handler after both sends'
		// handlers, which reply inline: once it answers, they have.
		if _, err := a.Call(2, "fence", nil); err != nil {
			t.Fatal(err)
		}
		// tcpnet counts the fence's response after its write returns,
		// which may be after the caller read it.
		deadline := time.Now().Add(5 * time.Second)
		for sent()-before < 4 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := sent() - before; n != 4 {
			t.Fatalf("two sends and one call counted %d messages, want 4 (1 + 1 + 2)", n)
		}
	})
}

// A node's request to itself is served on the sender's goroutine before
// Send or Call returns, and is no fabric message, on either fabric.
func TestSelfRequestIsServedInline(t *testing.T) {
	eachFabric(t, func(t *testing.T, pair pairFunc) {
		a, _ := pair(t)
		var served atomic.Int32
		a.Handle("self", func(from transport.NodeID, req []byte) ([]byte, error) {
			if from != a.ID() {
				t.Errorf("self request from node %d, want %d", from, a.ID())
			}
			served.Add(1)
			return req, nil
		})
		before := a.Stats().MessagesSent.Load()
		if err := a.Send(a.ID(), "self", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if served.Load() != 1 {
			t.Fatal("Send to self returned before its handler ran")
		}
		resp, err := a.Call(a.ID(), "self", []byte("y"))
		if err != nil || string(resp) != "y" {
			t.Fatalf("Call to self: resp %q, err %v", resp, err)
		}
		if served.Load() != 2 {
			t.Fatalf("handler served %d requests, want 2", served.Load())
		}
		if n := a.Stats().MessagesSent.Load() - before; n != 0 {
			t.Fatalf("a Send and a Call to self counted %d messages, want 0", n)
		}
	})
}

// The contract stays cut to its callers: every Endpoint method needs a
// call site outside the fabrics (internal/transport and below,
// internal/simnet, internal/tcpnet) and outside _test.go files.
// benchmark/ counts — its ledger probes are callers. Calls match by
// method name, which is coarse (any x.Stats() counts for Stats) but
// catches what this is for: a contract method whose last caller left.
func TestEndpointHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "transport.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	called := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Endpoint" {
			for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
				for _, name := range m.Names {
					called[name.Name] = false
				}
			}
		}
		return true
	})
	if len(called) < 5 {
		t.Fatalf("found only %d Endpoint methods in transport.go — the census is looking in the wrong place", len(called))
	}

	root := filepath.Join("..", "..")
	fabrics := []string{"internal/transport", "internal/simnet", "internal/tcpnet"}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || slices.Contains(fabrics, filepath.ToSlash(rel))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if _, ok := called[sel.Sel.Name]; ok {
						called[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for m, ok := range called {
		if !ok {
			uncalled = append(uncalled, m)
		}
	}
	sort.Strings(uncalled)
	for _, m := range uncalled {
		t.Errorf("Endpoint.%s has no caller outside the fabrics and their tests: cut it from the contract", m)
	}
}
