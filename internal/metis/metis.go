// Package metis is a from-scratch multilevel k-way graph partitioner
// standing in for the METIS library the paper calls into (§4.3): it finds
// a k-way vertex assignment of small edge cut subject to a balance
// constraint L(p) ≤ (1+ε)·µ on total vertex weight per partition.
//
// The algorithm is the classic multilevel scheme METIS popularized:
//
//  1. Coarsening by heavy-edge matching — repeatedly contract a maximal
//     matching that prefers heavy edges, halving the graph until it is
//     small.
//  2. Initial partitioning of the coarsest graph by greedy growth from
//     random seeds (best of several restarts).
//  3. Uncoarsening with boundary Kernighan–Lin/Fiduccia–Mattheyses style
//     refinement: greedy positive-gain moves of boundary vertices,
//     respecting the balance constraint, repeated until a pass yields no
//     improvement.
//
// Quality is not identical to METIS, but the interface and objective are,
// which is all the Chiller and Schism partitioners require.
package metis

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is an undirected weighted graph in adjacency-list form. Use
// NewBuilder to construct one; duplicate edges are merged by summing
// weights.
type Graph struct {
	n    int
	adj  [][]edge
	vw   []int64
	totW int64
}

type edge struct {
	to int32
	w  int64
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 { return g.totW }

// Degree returns vertex v's neighbor count.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Builder incrementally assembles a Graph.
type Builder struct {
	n  int
	vw []int64
	// edge accumulation: map from packed (min,max) pair to weight
	edges map[[2]int32]int64
}

// NewBuilder creates a builder for a graph with n vertices, all weight 1.
func NewBuilder(n int) *Builder {
	vw := make([]int64, n)
	for i := range vw {
		vw[i] = 1
	}
	return &Builder{n: n, vw: vw, edges: make(map[[2]int32]int64)}
}

// SetVertexWeight assigns vertex v's weight (≥ 0).
func (b *Builder) SetVertexWeight(v int, w int64) {
	if w < 0 {
		w = 0
	}
	b.vw[v] = w
}

// AddEdge adds an undirected edge with weight w; parallel edges merge by
// summing. Self-loops are ignored.
func (b *Builder) AddEdge(u, v int, w int64) {
	if u == v || w <= 0 {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges[[2]int32{int32(u), int32(v)}] += w
}

// Build finalizes the graph.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, adj: make([][]edge, b.n), vw: b.vw}
	for _, w := range b.vw {
		g.totW += w
	}
	for k, w := range b.edges {
		u, v := int(k[0]), int(k[1])
		g.adj[u] = append(g.adj[u], edge{to: int32(v), w: w})
		g.adj[v] = append(g.adj[v], edge{to: int32(u), w: w})
	}
	return g
}

// Result is a partitioning outcome.
type Result struct {
	// Assign maps vertex → partition in [0, k).
	Assign []int
	// Cut is the total weight of edges crossing partitions.
	Cut int64
	// Loads is the vertex-weight sum per partition.
	Loads []int64
}

// Partition computes a k-way partitioning of g with imbalance tolerance
// epsilon (e.g. 0.05 allows each partition 5% above the average load).
func Partition(g *Graph, k int, epsilon float64, seed int64) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("metis: k = %d", k)
	}
	if g.n == 0 {
		return &Result{Assign: nil, Loads: make([]int64, k)}, nil
	}
	if k == 1 {
		assign := make([]int, g.n)
		return finish(g, k, assign), nil
	}
	if epsilon <= 0 {
		epsilon = 0.05
	}
	rng := rand.New(rand.NewSource(seed))

	// --- coarsening ---
	levels := []*level{{g: g, fine2coarse: nil}}
	cur := g
	minSize := 30 * k
	if minSize < 200 {
		minSize = 200
	}
	for cur.n > minSize {
		nxt, mapping := coarsen(cur, rng)
		if nxt.n >= cur.n*9/10 {
			break // matching stalled; further coarsening is pointless
		}
		levels = append(levels, &level{g: nxt, fine2coarse: mapping})
		cur = nxt
	}

	// --- initial partitioning on the coarsest graph ---
	coarsest := levels[len(levels)-1].g
	maxLoad := maxLoadFor(g.totW, k, epsilon)
	best := initialPartition(coarsest, k, maxLoad, rng)
	refine(coarsest, k, best, maxLoad, 8)

	// --- uncoarsen + refine ---
	assign := best
	for i := len(levels) - 1; i >= 1; i-- {
		fine := levels[i-1].g
		mapping := levels[i].fine2coarse
		finer := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			finer[v] = assign[mapping[v]]
		}
		assign = finer
		refine(fine, k, assign, maxLoad, 4)
	}
	return finish(g, k, assign), nil
}

type level struct {
	g           *Graph
	fine2coarse []int
}

func maxLoadFor(total int64, k int, epsilon float64) int64 {
	mu := float64(total) / float64(k)
	ml := int64(mu * (1 + epsilon))
	if ml < 1 {
		ml = 1
	}
	return ml
}

// coarsen contracts a heavy-edge matching.
func coarsen(g *Graph, rng *rand.Rand) (*Graph, []int) {
	match := make([]int, g.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(g.n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		bestU, bestW := -1, int64(-1)
		for _, e := range g.adj[v] {
			u := int(e.to)
			if match[u] == -1 && e.w > bestW {
				bestU, bestW = u, e.w
			}
		}
		if bestU >= 0 {
			match[v] = bestU
			match[bestU] = v
		} else {
			match[v] = v
		}
	}
	// Number the coarse vertices.
	fine2coarse := make([]int, g.n)
	for i := range fine2coarse {
		fine2coarse[i] = -1
	}
	nc := 0
	for v := 0; v < g.n; v++ {
		if fine2coarse[v] != -1 {
			continue
		}
		u := match[v]
		fine2coarse[v] = nc
		if u != v && u >= 0 {
			fine2coarse[u] = nc
		}
		nc++
	}
	// Build the coarse graph.
	b := NewBuilder(nc)
	cw := make([]int64, nc)
	for v := 0; v < g.n; v++ {
		cw[fine2coarse[v]] += g.vw[v]
	}
	for i, w := range cw {
		b.SetVertexWeight(i, w)
	}
	for v := 0; v < g.n; v++ {
		cv := fine2coarse[v]
		for _, e := range g.adj[v] {
			cu := fine2coarse[int(e.to)]
			if cv < cu { // add each undirected edge once
				b.AddEdge(cv, cu, e.w)
			}
		}
	}
	return b.Build(), fine2coarse
}

// initialPartition greedily grows k regions from random seeds; several
// restarts keep the best cut.
func initialPartition(g *Graph, k int, maxLoad int64, rng *rand.Rand) []int {
	const restarts = 4
	var best []int
	bestCut := int64(-1)
	for r := 0; r < restarts; r++ {
		assign := growRegions(g, k, maxLoad, rng)
		cut := cutOf(g, assign)
		if bestCut < 0 || cut < bestCut {
			best, bestCut = assign, cut
		}
	}
	return best
}

// growRegions grows the partitions sequentially (greedy graph growing):
// each partition starts from a random unassigned seed and absorbs its
// strongest-attached frontier vertex until it reaches the average load.
// Growing one region at a time lets a partition consume a whole natural
// cluster before the next region starts, which is what finds bridge cuts.
func growRegions(g *Graph, k int, maxLoad int64, rng *rand.Rand) []int {
	assign := make([]int, g.n)
	for i := range assign {
		assign[i] = -1
	}
	loads := make([]int64, k)
	target := (g.totW + int64(k) - 1) / int64(k)
	order := rng.Perm(g.n)
	seedIdx := 0

	for p := 0; p < k-1; p++ { // last partition takes the remainder
		for seedIdx < len(order) && assign[order[seedIdx]] != -1 {
			seedIdx++
		}
		if seedIdx >= len(order) {
			break
		}
		s := order[seedIdx]
		assign[s] = p
		loads[p] += g.vw[s]
		// conn[v] = attachment strength of unassigned frontier vertex v.
		conn := make(map[int]int64)
		addNeighbors := func(v int) {
			for _, e := range g.adj[v] {
				if assign[e.to] == -1 {
					conn[int(e.to)] += e.w
				}
			}
		}
		addNeighbors(s)
		for loads[p] < target {
			bv, bw := -1, int64(-1)
			for v, w := range conn {
				if assign[v] != -1 {
					delete(conn, v)
					continue
				}
				if w > bw || (w == bw && v < bv) {
					bv, bw = v, w
				}
			}
			if bv < 0 {
				break // region is disconnected from the rest
			}
			delete(conn, bv)
			if loads[p]+g.vw[bv] > maxLoad {
				assign[bv] = -2 // defer: too big for this region now
				continue
			}
			assign[bv] = p
			loads[p] += g.vw[bv]
			addNeighbors(bv)
		}
		// Restore deferred vertices for later regions.
		for v := 0; v < g.n; v++ {
			if assign[v] == -2 {
				assign[v] = -1
			}
		}
	}
	// Remaining vertices go to the last partition, spilling to the
	// least-loaded one when the balance bound would be violated.
	for v := 0; v < g.n; v++ {
		if assign[v] != -1 {
			continue
		}
		p := k - 1
		if loads[p]+g.vw[v] > maxLoad {
			p = argminLoad(loads)
		}
		assign[v] = p
		loads[p] += g.vw[v]
	}
	return assign
}

func argminLoad(loads []int64) int {
	best, bw := 0, loads[0]
	for i := 1; i < len(loads); i++ {
		if loads[i] < bw {
			best, bw = i, loads[i]
		}
	}
	return best
}

// refine runs greedy boundary passes: move a vertex to the neighboring
// partition with the highest positive cut gain, if balance allows.
func refine(g *Graph, k int, assign []int, maxLoad int64, maxPasses int) {
	loads := make([]int64, k)
	for v := 0; v < g.n; v++ {
		loads[assign[v]] += g.vw[v]
	}
	conn := make([]int64, k) // scratch: connectivity of v to each partition
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for v := 0; v < g.n; v++ {
			if len(g.adj[v]) == 0 {
				continue
			}
			home := assign[v]
			boundary := false
			for _, e := range g.adj[v] {
				conn[assign[e.to]] += e.w
				if assign[e.to] != home {
					boundary = true
				}
			}
			if boundary {
				bestP, bestGain := home, int64(0)
				for p := 0; p < k; p++ {
					if p == home || conn[p] == 0 {
						continue
					}
					gain := conn[p] - conn[home]
					if gain > bestGain && loads[p]+g.vw[v] <= maxLoad {
						bestP, bestGain = p, gain
					}
				}
				if bestP != home {
					loads[home] -= g.vw[v]
					loads[bestP] += g.vw[v]
					assign[v] = bestP
					improved = true
				}
			}
			for _, e := range g.adj[v] {
				conn[assign[e.to]] = 0
			}
			conn[home] = 0
		}
		if !improved {
			break
		}
	}
}

func cutOf(g *Graph, assign []int) int64 {
	var cut int64
	for v := 0; v < g.n; v++ {
		for _, e := range g.adj[v] {
			if int(e.to) > v && assign[e.to] != assign[v] {
				cut += e.w
			}
		}
	}
	return cut
}

func finish(g *Graph, k int, assign []int) *Result {
	res := &Result{Assign: assign, Loads: make([]int64, k)}
	for v := 0; v < g.n; v++ {
		res.Loads[assign[v]] += g.vw[v]
	}
	res.Cut = cutOf(g, assign)
	return res
}

// Cut recomputes the edge cut of an assignment (exported for tests and
// for the partitioners' diagnostics).
func Cut(g *Graph, assign []int) int64 { return cutOf(g, assign) }

// Imbalance returns max(load)/µ − 1 for an assignment.
func Imbalance(g *Graph, k int, assign []int) float64 {
	loads := make([]int64, k)
	for v := 0; v < g.n; v++ {
		loads[assign[v]] += g.vw[v]
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i] > loads[j] })
	mu := float64(g.totW) / float64(k)
	if mu == 0 {
		return 0
	}
	return float64(loads[0])/mu - 1
}
