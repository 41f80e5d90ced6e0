// Package chillerpart implements Chiller's contention-centric partitioner
// (§4.2–4.4): the workload is modelled as a *star* graph — one dummy
// t-vertex per sampled transaction with an edge to each record it
// accesses — instead of Schism's clique representation. Edge weights are
// proportional to the record's contention likelihood, so a min-cut keeps
// hot records attached to the transactions that touch them: the t-vertex's
// partition is the transaction's inner host, and a cut edge to a record
// means that record would be accessed in the transaction's *outer*
// region (bad in proportion to its contention).
//
// Only records whose contention likelihood exceeds the threshold enter
// the lookup table; everything else keeps its default hash/range home
// (§4.4), which is what makes Chiller's routing metadata ~10x smaller
// than Schism's on skewed workloads.
package chillerpart

import (
	"fmt"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/metis"
	"github.com/chillerdb/chiller/internal/partition"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
)

// Config controls the partitioning.
type Config struct {
	// K is the number of partitions.
	K int
	// Lanes is the number of execution lanes per node (default 1). When
	// > 1 the partitioner treats each lane as a sub-partition: the graph
	// is cut into K×Lanes parts, sub-partition s maps to partition s/Lanes
	// and lane s%Lanes, and hot records receive explicit lane placements.
	// A transaction is thereby co-located with its hot *lane* — the
	// single-threaded engine that serializes its inner region — not just
	// its hot node, extending the §4.2 placement argument one level down.
	Lanes int
	// Seed drives the randomized phases.
	Seed int64
	// HotThreshold is the contention likelihood above which a record
	// earns a lookup-table entry (default 0.05).
	HotThreshold float64
	// MinEdgeWeight, when positive, adds a floor weight to every edge —
	// the co-optimization of §4.4 that also discourages distributed
	// transactions. Expressed in the same unit as contention likelihood
	// (e.g. 0.01).
	MinEdgeWeight float64
}

// Result extends the layout with per-transaction inner hosts.
type Result struct {
	Layout *partition.Layout
	// TxnHost[i] is the partition chosen for trace transaction i's
	// t-vertex — the transaction's planned inner host.
	TxnHost []cluster.PartitionID
	// TxnLane[i] is the execution lane chosen for transaction i on its
	// inner host (all zeros when Config.Lanes <= 1).
	TxnLane []int
	// Hot lists the records that crossed the threshold, hottest first.
	Hot []stats.RecordStats
	// Edges is the number of graph edges (n per n-record transaction —
	// the §4.4 graph-size advantage over Schism's cliques).
	Edges int
}

// weightScale converts float contention likelihoods to the integer edge
// weights the graph partitioner uses.
const weightScale = 10000

// Partition builds the star graph from the aggregate's trace and
// contention statistics and partitions it. The aggregate must have been
// Finalized so per-record Pc values are available.
func Partition(agg *stats.Aggregate, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("chillerpart: K = %d", cfg.K)
	}
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = 0.05
	}
	lanes := cfg.Lanes
	if lanes < 1 {
		lanes = 1
	}
	trace := agg.Txns()

	rids := partition.Records(trace)
	index := make(map[storage.RID]int, len(rids))
	for i, r := range rids {
		index[r] = i
	}
	nR := len(rids)
	nT := len(trace)

	// Vertices: records first [0, nR), then t-vertices [nR, nR+nT).
	b := metis.NewBuilder(nR + nT)

	// The load §4.3 balances is the number of transactions a partition
	// executes: t-vertices keep the builder's weight 1, r-vertices
	// weigh 0.
	for i := 0; i < nR; i++ {
		b.SetVertexWeight(i, 0)
	}

	// Star edges: t-vertex ↔ each accessed record, weight ∝ Pc + floor.
	edges := 0
	for ti, t := range trace {
		tv := nR + ti
		seen := make(map[int]bool)
		connect := func(rid storage.RID) {
			v := index[rid]
			if seen[v] {
				return
			}
			seen[v] = true
			w := int64(agg.Pc(rid)*weightScale) + int64(cfg.MinEdgeWeight*weightScale)
			if w < 1 {
				w = 1 // keep the graph connected so records follow txns
			}
			b.AddEdge(tv, v, w)
			edges++
		}
		for _, r := range t.Reads {
			connect(r)
		}
		for _, w := range t.Writes {
			connect(w)
		}
	}

	// Cut at sub-partition granularity: each node contributes one part
	// per execution lane, so the min-cut keeps a transaction's hot
	// records not only on one node but on one single-threaded lane of
	// that node. Sub-partition s maps to (partition s/lanes, lane
	// s%lanes); metis balances the K×lanes parts, which balances both
	// nodes and the lanes within them.
	g := b.Build()
	res, err := metis.Partition(g, cfg.K*lanes, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Lookup table: hot records only, carrying their contention
	// likelihood so the run-time inner-host decision can weigh mass,
	// plus (with lanes) the record's lane placement.
	hot := make(map[storage.RID]cluster.PartitionID)
	weight := make(map[storage.RID]float64)
	var laneMap map[storage.RID]int
	if lanes > 1 {
		laneMap = make(map[storage.RID]int)
	}
	var hotStats []stats.RecordStats
	for _, rs := range agg.Records() {
		if rs.Pc <= cfg.HotThreshold {
			break // Records() is sorted hottest-first
		}
		if v, ok := index[rs.RID]; ok {
			hot[rs.RID] = cluster.PartitionID(res.Assign[v] / lanes)
			weight[rs.RID] = rs.Pc
			if lanes > 1 {
				laneMap[rs.RID] = res.Assign[v] % lanes
			}
			hotStats = append(hotStats, rs)
		}
	}

	hosts := make([]cluster.PartitionID, nT)
	txnLanes := make([]int, nT)
	for i := 0; i < nT; i++ {
		hosts[i] = cluster.PartitionID(res.Assign[nR+i] / lanes)
		txnLanes[i] = res.Assign[nR+i] % lanes
	}
	return &Result{
		Layout:  &partition.Layout{Hot: hot, Weight: weight, Lane: laneMap, Cut: res.Cut},
		TxnHost: hosts,
		TxnLane: txnLanes,
		Hot:     hotStats,
		Edges:   edges,
	}, nil
}

// ContentionCost evaluates Σ_ρ Pc(ρ) over records accessed in an outer
// region under the given router — the objective of §4.3 measured on a
// trace. For each transaction, its inner host is the partition hosting
// the plurality of its hot-record accesses; every hot record on another
// partition contributes its contention likelihood.
func ContentionCost(agg *stats.Aggregate, route partition.Router, k int) float64 {
	total := 0.0
	for _, t := range agg.Txns() {
		counts := make(map[cluster.PartitionID]float64)
		type acc struct {
			rid storage.RID
			pc  float64
		}
		var accesses []acc
		visit := func(rid storage.RID) {
			pc := agg.Pc(rid)
			p := route(rid)
			counts[p] += pc
			accesses = append(accesses, acc{rid, pc})
		}
		for _, r := range t.Reads {
			visit(r)
		}
		for _, w := range t.Writes {
			visit(w)
		}
		// Inner host: the partition with the most contention mass, the
		// lowest id on a tie (the map's order is random).
		var inner cluster.PartitionID
		best := -1.0
		for p, c := range counts {
			if c > best || (c == best && p < inner) {
				inner, best = p, c
			}
		}
		for _, a := range accesses {
			if route(a.rid) != inner {
				total += a.pc
			}
		}
	}
	return total
}
