package bench

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
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

// figureShape is what a figure looks like whatever the schedule: its
// labels, its series in order, the X values every series carries, and
// whether its series may carry an abort profile and must carry a verb
// profile (a figure without live runs carries neither).
type figureShape struct {
	name, title, xLabel, yLabel, transport string
	lanes                                  int
	series                                 []string
	xs                                     []float64
	aborts, verbs                          bool
}

// smokeShapes pins every experiment's figures at smokeOptions: a figure
// sweep may change how it runs, never what it reports. live is the lane
// count a figure of live runs records.
func smokeShapes(live int) map[string][]figureShape {
	engines := []string{"2PL", "OCC", "Chiller"}
	schemes := []string{SchemeHash, SchemeSchism, SchemeChiller}
	const conc = "concurrent txns/warehouse"
	const dist = "% distributed txns"
	return map[string][]figureShape{
		"fig7": {{name: "Figure 7", title: "Throughput of partitioning schemes (Instacart baskets)", xLabel: "partitions", yLabel: "txns/sec",
			lanes: live, series: schemes, xs: []float64{2}, aborts: true, verbs: true}},
		"fig8": {{name: "Figure 8", title: "Ratio of distributed transactions", xLabel: "partitions", yLabel: "ratio",
			series: schemes, xs: []float64{2}}},
		"lookup": {{name: "§7.2.2", title: "Lookup table size (routing entries)", xLabel: "partitions", yLabel: "entries",
			series: []string{SchemeSchism, SchemeChiller}, xs: []float64{2}}},
		"fig9": {
			{name: "Figure 9a", title: "TPC-C throughput", xLabel: conc, yLabel: "txns/sec",
				lanes: live, series: engines, xs: []float64{1}, verbs: true},
			{name: "Figure 9b", title: "TPC-C abort rate", xLabel: conc, yLabel: "abort rate",
				lanes: live, series: engines, xs: []float64{1}, aborts: true},
			{name: "Figure 9c", title: "2PL abort rate by transaction type", xLabel: conc, yLabel: "abort rate",
				lanes: live, series: []string{"New-order", "Payment", "Stock-level"}, xs: []float64{1}},
		},
		"fig9lanes": {{name: "Figure 9a (lanes)", title: "TPC-C throughput vs execution lanes per node", xLabel: "lanes per node", yLabel: "txns/sec",
			series: []string{"2PL", "Chiller"}, xs: []float64{1, 2, 3, 4}, aborts: true, verbs: true}},
		"fig7ro": {{name: "Figure 7 (read-heavy)", title: "Read-heavy throughput: MVCC snapshot reads vs locking reads", xLabel: "outstanding txns per client", yLabel: "txns/sec",
			lanes: live, series: []string{"locking reads", "MVCC snapshot reads"}, xs: []float64{1, 2, 4, 8}, aborts: true, verbs: true}},
		"fig10": {{name: "Figure 10", title: "Impact of distributed transactions (NewOrder+Payment 50/50)", xLabel: dist, yLabel: "txns/sec",
			lanes: live, series: []string{"2PL (1 txn)", "OCC (1 txn)", "2PL (5 txn)", "OCC (5 txn)", "Chiller (5 txn)"}, xs: []float64{0, 20, 40, 60, 80, 100}, aborts: true, verbs: true}},
		"fig10fsync": {{name: "Figure 10 (fsync)", title: "Durability cost: WAL fsync policy (Chiller, NewOrder+Payment 50/50)", xLabel: dist, yLabel: "txns/sec",
			lanes: live, series: []string{FsyncNone, FsyncNoSync}, xs: []float64{0, 25, 50, 75, 100}, aborts: true, verbs: true}},
		"churn": {{name: "Membership churn", title: "Throughput across a live node join (bank transfers)", xLabel: "phase (0=before, 1=during handoff, 2=after)", yLabel: "txns/sec",
			lanes: live, series: []string{"2PL", "Chiller"}, xs: []float64{0, 1, 2}, aborts: true}},
		"a1": {{name: "Ablation A1", title: "Reordering vs. reordering + contention-aware partitioning", xLabel: "variant (1=2PL/hash 2=reorder-only 3=chiller)", yLabel: "txns/sec",
			lanes: live, series: []string{"throughput"}, xs: []float64{1, 2, 3}}},
		"a2": {{name: "Ablation A2", title: "Co-optimizing contention and distribution (min edge weight)", xLabel: "min edge weight", yLabel: "ratio / normalized cost",
			series: []string{"distributed-ratio", "contention-cost"}, xs: []float64{0, 0.01, 0.05, 0.2, 1}}},
		"a3": {{name: "Ablation A3", title: "Sampling-rate sensitivity of the hot set", xLabel: "sampling rate", yLabel: "hot-set recall",
			series: []string{"recall"}, xs: []float64{0.001, 0.01, 0.1, 1}}},
		"a4": {{name: "Ablation A4", title: "Chiller advantage vs one-way network latency", xLabel: "latency (µs)", yLabel: "txns/sec",
			lanes: live, series: []string{"2PL", "Chiller"}, xs: []float64{0, 5, 20, 100}, aborts: true, verbs: true}},
	}
}

// traceOnly names the experiments computed from a seeded trace alone:
// run twice, they must report the same figure.
var traceOnly = map[string]bool{"fig8": true, "lookup": true, "a2": true, "a3": true}

// checkShape reports every way f differs from want.
func checkShape(t *testing.T, f *Figure, want figureShape) {
	t.Helper()
	got := figureShape{name: f.Name, title: f.Title, xLabel: f.XLabel, yLabel: f.YLabel, transport: f.Transport, lanes: f.Lanes}
	if got.name != want.name || got.title != want.title || got.xLabel != want.xLabel || got.yLabel != want.yLabel ||
		got.transport != want.transport || got.lanes != want.lanes {
		t.Errorf("figure header %+v, want %+v", got, want)
	}
	var labels []string
	for _, s := range f.Series {
		labels = append(labels, s.Label)
		var xs []float64
		for _, p := range s.Points {
			xs = append(xs, p.X)
		}
		if !slices.Equal(xs, want.xs) {
			t.Errorf("%s: series %q X values %v, want %v", f.Name, s.Label, xs, want.xs)
		}
		if _, ok := f.Aborts[s.Label]; ok && !want.aborts {
			t.Errorf("%s: series %q carries an abort profile", f.Name, s.Label)
		}
		if _, ok := f.Verbs[s.Label]; ok != want.verbs {
			t.Errorf("%s: series %q carries a verb profile: %v, want %v", f.Name, s.Label, ok, want.verbs)
		}
	}
	if !slices.Equal(labels, want.series) {
		t.Errorf("%s: series %q, want %q", f.Name, labels, want.series)
	}
	for label := range f.Aborts {
		if !slices.Contains(want.series, label) {
			t.Errorf("%s: abort profile for unknown series %q", f.Name, label)
		}
	}
	for label := range f.Verbs {
		if !slices.Contains(want.series, label) {
			t.Errorf("%s: verb profile for unknown series %q", f.Name, label)
		}
	}
}

// TestExperimentsSmoke runs every experiment chiller-bench knows at its
// smallest sweep and asserts only what no schedule can change: every
// figure has the shape smokeShapes pins, every live run committed
// something, no engine reported an internal abort, and a trace-only
// experiment run twice reports the same figures. Who leads whom is a
// shapes test (shapes_test.go).
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
	shapes := smokeShapes(cluster.DefaultLanes())
	if len(shapes) != len(Experiments) {
		t.Errorf("%d experiments, %d pinned shapes", len(Experiments), len(shapes))
	}
	for _, e := range Experiments {
		t.Run(e.Name, func(t *testing.T) {
			want, ok := shapes[e.Name]
			if !ok {
				t.Fatalf("no pinned shape for %s", e.Name)
			}
			figs, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(figs) != len(want) {
				t.Fatalf("%d figures, want %d", len(figs), len(want))
			}
			for i, f := range figs {
				checkShape(t, f, want[i])
				for _, s := range f.Series {
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
			if traceOnly[e.Name] {
				again, err := e.Run(opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(figs, again) {
					for i := range figs {
						t.Errorf("same seed, different figures:\n%+v\n%+v", figs[i].Series, again[i].Series)
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
	a2, err := AblationMinEdgeWeight(opt)
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
