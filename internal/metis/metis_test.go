package metis

import (
	"testing"

	"github.com/chillerdb/chiller/internal/testutil"
)

func TestBuilderMergesParallelEdges(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 0, 3) // same undirected edge
	b.AddEdge(0, 0, 5) // self loop ignored
	g := b.Build()
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
	assign := []int{0, 1, 0}
	if got := Cut(g, assign); got != 5 {
		t.Fatalf("cut = %d, want merged weight 5", got)
	}
}

func TestPartitionK1(t *testing.T) {
	b := NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddEdge(i, i+1, 1)
	}
	res, err := Partition(b.Build(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 0 {
		t.Fatalf("k=1 cut = %d", res.Cut)
	}
	for _, p := range res.Assign {
		if p != 0 {
			t.Fatal("k=1 must assign everything to partition 0")
		}
	}
}

func TestPartitionEmptyGraph(t *testing.T) {
	res, err := Partition(NewBuilder(0).Build(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != 0 {
		t.Fatal("empty graph should have empty assignment")
	}
}

func TestPartitionInvalidK(t *testing.T) {
	if _, err := Partition(NewBuilder(2).Build(), 0, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// Two obvious clusters joined by a single light edge: the partitioner
// must find the natural cut.
func TestTwoClusters(t *testing.T) {
	const half = 50
	b := NewBuilder(2 * half)
	for c := 0; c < 2; c++ {
		base := c * half
		for i := 0; i < half; i++ {
			for j := i + 1; j < half && j < i+4; j++ {
				b.AddEdge(base+i, base+j, 10)
			}
		}
	}
	b.AddEdge(0, half, 1) // bridge
	g := b.Build()
	res, err := Partition(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 1 {
		t.Fatalf("cut = %d, want 1 (the bridge)", res.Cut)
	}
	// Each cluster must be wholly on one side.
	for i := 1; i < half; i++ {
		if res.Assign[i] != res.Assign[0] {
			t.Fatalf("cluster 0 split at vertex %d", i)
		}
		if res.Assign[half+i] != res.Assign[half] {
			t.Fatalf("cluster 1 split at vertex %d", i)
		}
	}
}

func TestBalanceConstraintRespected(t *testing.T) {
	// Random graph, all vertex weight 1: loads must stay within (1+ε)µ.
	rng := testutil.Rand(t, 3)
	const n = 400
	b := NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(u, v, int64(1+rng.Intn(5)))
	}
	g := b.Build()
	for _, k := range []int{2, 4, 8} {
		res, err := Partition(g, k, 11)
		if err != nil {
			t.Fatal(err)
		}
		maxLoad := maxLoadFor(g.TotalVertexWeight(), k)
		for p, l := range res.Loads {
			if l > maxLoad {
				t.Errorf("k=%d partition %d load %d > max %d", k, p, l, maxLoad)
			}
		}
		if got := Imbalance(g, k, res.Assign); got > 0.11 {
			t.Errorf("k=%d imbalance %.3f > 0.11", k, got)
		}
	}
}

func TestZeroWeightVerticesAreFree(t *testing.T) {
	// Star graphs Chiller builds have r-vertices with weight 0 under
	// §4.3's transaction-count load: they must move freely without
	// breaking balance.
	b := NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.SetVertexWeight(i, 0)
	}
	b.SetVertexWeight(0, 1)
	b.SetVertexWeight(1, 1)
	// Heavy edges binding {0,2,3} and {1,4,5}.
	b.AddEdge(0, 2, 10)
	b.AddEdge(0, 3, 10)
	b.AddEdge(1, 4, 10)
	b.AddEdge(1, 5, 10)
	b.AddEdge(2, 4, 1)
	g := b.Build()
	res, err := Partition(g, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != 1 {
		t.Fatalf("cut = %d, want 1", res.Cut)
	}
	if res.Assign[0] == res.Assign[1] {
		t.Fatal("the two weight-1 t-vertices must split for balance")
	}
}

func TestRefineImprovesRandomAssignment(t *testing.T) {
	rng := testutil.Rand(t, 9)
	const n = 200
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n, 5) // ring
	}
	g := b.Build()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(2)
	}
	before := Cut(g, assign)
	refine(g, 2, assign, maxLoadFor(g.TotalVertexWeight(), 2), 20)
	after := Cut(g, assign)
	if after >= before {
		t.Fatalf("refine did not improve: %d → %d", before, after)
	}
}

func TestLargeGraphCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := testutil.Rand(t, 123)
	const n = 20000
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for d := 0; d < 4; d++ {
			b.AddEdge(i, rng.Intn(n), 1)
		}
	}
	g := b.Build()
	res, err := Partition(g, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != n {
		t.Fatal("assignment size mismatch")
	}
	// Sanity: cut below total edge weight (random cut would be ~7/8).
	var total int64
	for v := 0; v < n; v++ {
		total += int64(g.Degree(v))
	}
	if res.Cut <= 0 || res.Cut >= total {
		t.Fatalf("suspicious cut %d (total degree %d)", res.Cut, total)
	}
}

// The same edges and seed give the same partitioning — from two graphs
// built separately, so the build itself must be deterministic too. The
// graph is large enough to be coarsened, where adjacency order matters.
func TestDeterministicForSeed(t *testing.T) {
	build := func() *Graph {
		b := NewBuilder(1000)
		rng := testutil.Rand(t, 4)
		for i := 0; i < 3000; i++ {
			b.AddEdge(rng.Intn(1000), rng.Intn(1000), int64(1+rng.Intn(5)))
		}
		return b.Build()
	}
	r1, _ := Partition(build(), 4, 42)
	r2, _ := Partition(build(), 4, 42)
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatal("same seed produced different partitionings")
		}
	}
}
