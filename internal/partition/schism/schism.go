// Package schism reimplements the workload-driven partitioner of Curino
// et al. (VLDB 2010) that the paper uses as its distributed-transaction-
// minimizing baseline (§7.2): build a graph whose vertices are records
// and whose edges connect records co-accessed by a transaction (weighted
// by co-access frequency), then find a balanced min-cut. Cutting few
// co-access edges means few transactions span partitions.
//
// The output is a *full* record→partition map — the lookup-table-size
// disadvantage §7.2.2 measures: unlike Chiller, every record the trace
// touched needs a routing entry, because the layout is not expressible as
// a hash or range function.
package schism

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
	// Seed drives the randomized phases.
	Seed int64
}

// Partition builds the co-access graph from the trace and partitions it.
func Partition(trace []stats.TxnSample, cfg Config) (*partition.Layout, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("schism: K = %d", cfg.K)
	}

	// Index the records.
	rids := partition.Records(trace)
	index := make(map[storage.RID]int, len(rids))
	for i, r := range rids {
		index[r] = i
	}

	b := metis.NewBuilder(len(rids))
	// Vertex weight 1: Schism balances the number of records hosted.
	for _, t := range trace {
		members := txnRecords(t, index)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				b.AddEdge(members[i], members[j], 1)
			}
		}
	}
	g := b.Build()
	res, err := metis.Partition(g, cfg.K, cfg.Seed)
	if err != nil {
		return nil, err
	}

	full := make(map[storage.RID]cluster.PartitionID, len(rids))
	for i, r := range rids {
		full[r] = cluster.PartitionID(res.Assign[i])
	}
	return &partition.Layout{Full: full, Cut: res.Cut}, nil
}

// txnRecords collects the distinct vertex ids a transaction touches.
func txnRecords(t stats.TxnSample, index map[storage.RID]int) []int {
	seen := make(map[int]bool, len(t.Reads)+len(t.Writes))
	var out []int
	add := func(rid storage.RID) {
		if v, ok := index[rid]; ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, r := range t.Reads {
		add(r)
	}
	for _, w := range t.Writes {
		add(w)
	}
	return out
}

// GraphEdges reports the number of distinct co-access edges the trace
// induces — the graph-size comparison of §4.4 (Schism needs n(n−1)/2
// edges per n-record transaction versus Chiller's n).
func GraphEdges(trace []stats.TxnSample) int {
	rids := partition.Records(trace)
	index := make(map[storage.RID]int, len(rids))
	for i, r := range rids {
		index[r] = i
	}
	edges := make(map[[2]int]bool)
	for _, t := range trace {
		members := txnRecords(t, index)
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				edges[[2]int{a, b}] = true
			}
		}
	}
	return len(edges)
}
