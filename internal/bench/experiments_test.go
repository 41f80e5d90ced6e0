package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/txn"
)

// testOptions shrinks the sweeps so the whole experiment suite runs in
// seconds under go test. Shape assertions (shapes_test.go, behind the
// shapes build tag) are kept loose: simulation noise must not flake the
// nightly job, but gross inversions of the paper's findings should fail
// loudly.
func testOptions() Options {
	opt := DefaultOptions()
	opt.Duration = 250 * time.Millisecond
	opt.Products = 2000
	opt.TraceTxns = 600
	opt.MaxPartitions = 4
	opt.Concurrency = 3
	opt.Warehouses = 4
	opt.Customers = 30
	opt.Items = 200
	opt.MaxConcurrency = 4
	return opt
}

// TestExperimentsSmoke runs every experiment chiller-bench knows at its
// smallest sweep and asserts only what no schedule can change: every
// figure has its series, every series its points, every live run
// committed something, and no engine reported an internal abort. Who
// leads whom is a shapes test (shapes_test.go).
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt := testOptions()
	opt.Duration = 40 * time.Millisecond
	opt.Products = 500
	opt.TraceTxns = 200
	opt.MaxPartitions = 2
	opt.Concurrency = 2
	opt.Warehouses = 2
	opt.MaxConcurrency = 1
	opt.FsyncPolicies = []string{FsyncNone, FsyncNoSync}
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			figs, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(figs) == 0 {
				t.Fatal("no figures")
			}
			for _, f := range figs {
				if len(f.Series) == 0 {
					t.Errorf("%s: no series", f.Name)
				}
				for _, s := range f.Series {
					if len(s.Points) == 0 {
						t.Errorf("%s: series %q has no points", f.Name, s.Label)
					}
					for _, p := range s.Points {
						if strings.HasPrefix(f.YLabel, "txns/sec") && p.Y <= 0 {
							t.Errorf("%s: series %q committed nothing at x=%v", f.Name, s.Label, p.X)
						}
					}
					if n := f.Aborts[s.Label][txn.AbortInternal.String()]; n != 0 {
						t.Errorf("%s: series %q reported %d internal aborts", f.Name, s.Label, n)
					}
				}
			}
		})
	}
}

func TestFigure8Shapes(t *testing.T) {
	opt := testOptions()
	fig, err := Figure8(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Fprint(&buf)
	t.Logf("\n%s", buf.String())

	for _, parts := range []float64{2, 4} {
		schism, _ := fig.Get(SchemeSchism, parts)
		hash, _ := fig.Get(SchemeHash, parts)
		chiller, _ := fig.Get(SchemeChiller, parts)
		// Schism's whole objective is fewer distributed txns: it must
		// beat hashing.
		if schism > hash {
			t.Errorf("parts=%v: schism ratio %.3f > hash %.3f", parts, schism, hash)
		}
		// Chiller trades distribution for contention: its ratio must be
		// at least Schism's (the paper reports ~60%% more at 2 parts).
		if chiller+0.02 < schism {
			t.Errorf("parts=%v: chiller ratio %.3f < schism %.3f", parts, chiller, schism)
		}
	}
}

func TestLookupTableShapes(t *testing.T) {
	opt := testOptions()
	fig, err := LookupTableSizes(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []float64{2, 4} {
		schism, ok1 := fig.Get(SchemeSchism, parts)
		chiller, ok2 := fig.Get(SchemeChiller, parts)
		if !ok1 || !ok2 {
			t.Fatal("missing points")
		}
		// The paper reports ~10x; require at least 3x under the small
		// test trace.
		if chiller*3 > schism {
			t.Errorf("parts=%v: chiller lookup %d not ≪ schism %d",
				parts, int(chiller), int(schism))
		}
	}
}

func TestFigurePrinting(t *testing.T) {
	f := &Figure{Name: "F", Title: "T", XLabel: "x", YLabel: "y"}
	f.Add("a", 1, 10)
	f.Add("a", 2, 20)
	f.Add("b", 1, 30)
	var buf bytes.Buffer
	f.Fprint(&buf)
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("F — T")) {
		t.Fatalf("missing header: %s", out)
	}
	if _, ok := f.Get("a", 2); !ok {
		t.Fatal("Get failed")
	}
	if _, ok := f.Get("b", 2); ok {
		t.Fatal("Get returned phantom point")
	}
}

// TestAblations pins the trace-computed ablations (A2, A3), which are
// deterministic; A1's live throughput ordering is a shapes test.
func TestAblations(t *testing.T) {
	opt := testOptions()
	a2, err := AblationMinEdgeWeight(4, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Higher floor weight should not increase the distributed ratio.
	d0, _ := a2.Get("distributed-ratio", 0)
	d1, _ := a2.Get("distributed-ratio", 1.0)
	if d1 > d0+0.05 {
		t.Errorf("min-edge-weight co-optimization raised distributed ratio %.3f → %.3f", d0, d1)
	}

	a3, err := AblationSamplingRate(opt)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := a3.Get("recall", 1.0)
	if !ok || r < 0.99 {
		t.Errorf("full-rate sampling recall = %.3f, want ~1", r)
	}
}
