// Package partition holds the workload-driven partitioners' shared
// machinery: trace representation, layout installation, and the quality
// metrics (distributed-transaction ratio, lookup table size) compared in
// §7.2 of the paper. The two concrete partitioners live in subpackages:
// schism (minimize distributed transactions, the prior state of the art)
// and chillerpart (minimize contention, the paper's contribution).
package partition

import (
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
)

// Layout is a partitioner's output.
type Layout struct {
	// Hot maps relocated hot records to partitions — the lookup table of
	// §4.4 (Chiller populates only this).
	Hot map[storage.RID]cluster.PartitionID
	// Weight carries each hot record's contention likelihood; when set,
	// Install hands it to the directory so the run-time inner-host
	// decision can weigh contention mass.
	Weight map[storage.RID]float64
	// Lane pins a hot record to an execution lane on its partition's
	// node (a sub-partition): the contention-centric partitioner emits
	// these when it places records at lane granularity, so transactions
	// co-locate with their hot *lane*, not just their hot node. Records
	// absent from the map use the stable hash lane.
	Lane map[storage.RID]int
	// Full is a complete record→partition map (Schism-style tools
	// produce one entry per record seen in the trace).
	Full map[storage.RID]cluster.PartitionID
	// Cut is the partitioner's objective value (edge cut).
	Cut int64
}

// LookupTableSize is the number of routing entries the layout requires —
// the metadata cost of §7.2.2.
func (l *Layout) LookupTableSize() int {
	return len(l.Hot) + len(l.Full)
}

// Install applies the layout to a directory in one atomic step: hot
// entries go into the lookup table; a full map (if any) is installed
// wholesale.
func (l *Layout) Install(dir *cluster.Directory) {
	hot := make(map[storage.RID]cluster.HotPlacement, len(l.Hot))
	for rid, p := range l.Hot {
		h := cluster.HotPlacement{Partition: p, Weight: l.Weight[rid], Lane: -1}
		if lane, ok := l.Lane[rid]; ok {
			h.Lane = lane
		}
		hot[rid] = h
	}
	dir.InstallLayout(hot, l.Full)
}

// Router answers record→partition queries.
type Router func(storage.RID) cluster.PartitionID

// RouterFor builds a Router from a layout with a default partitioner
// fallback for records the layout does not mention.
func RouterFor(l *Layout, def cluster.DefaultPartitioner) Router {
	return func(rid storage.RID) cluster.PartitionID {
		if l != nil {
			if p, ok := l.Hot[rid]; ok {
				return p
			}
			if p, ok := l.Full[rid]; ok {
				return p
			}
		}
		return def.Partition(rid)
	}
}

// DistributedRatio reports the fraction of trace transactions whose
// records span more than one partition under the router — the metric of
// Figure 8.
func DistributedRatio(trace []stats.TxnSample, route Router) float64 {
	if len(trace) == 0 {
		return 0
	}
	distributed := 0
	for _, t := range trace {
		var first cluster.PartitionID = -1
		multi := false
		check := func(rid storage.RID) {
			p := route(rid)
			if first == -1 {
				first = p
			} else if p != first {
				multi = true
			}
		}
		for _, r := range t.Reads {
			check(r)
		}
		for _, w := range t.Writes {
			check(w)
		}
		if multi {
			distributed++
		}
	}
	return float64(distributed) / float64(len(trace))
}

// LoadBalance reports per-partition record counts under a router for the
// records appearing in the trace.
func LoadBalance(trace []stats.TxnSample, route Router, k int) []int {
	seen := make(map[storage.RID]bool)
	loads := make([]int, k)
	visit := func(rid storage.RID) {
		if !seen[rid] {
			seen[rid] = true
			loads[route(rid)]++
		}
	}
	for _, t := range trace {
		for _, r := range t.Reads {
			visit(r)
		}
		for _, w := range t.Writes {
			visit(w)
		}
	}
	return loads
}

// Records returns the distinct records of a trace in first-seen order.
func Records(trace []stats.TxnSample) []storage.RID {
	seen := make(map[storage.RID]bool)
	var out []storage.RID
	visit := func(rid storage.RID) {
		if !seen[rid] {
			seen[rid] = true
			out = append(out, rid)
		}
	}
	for _, t := range trace {
		for _, r := range t.Reads {
			visit(r)
		}
		for _, w := range t.Writes {
			visit(w)
		}
	}
	return out
}
