package storage

// Execution lanes shard a node's single-threaded execution engine into
// several independent single-threaded engines (the paper deploys "one
// execution engine per core", §2/§5 — many engines per server). The
// storage layer owns the stable record→lane mapping so that every layer
// above it (core's inner-region routing and per-lane lock batches,
// server's replica apply, the partitioner's sub-partition model) agrees on which lane
// serializes a given record without exchanging any metadata: the mapping
// is a pure function of the record identity and the lane count.

// LaneOf maps a record to one of `lanes` execution lanes. The mapping is
// stable: it depends only on the RID and the lane count, never on
// insertion order or table sizing, so coordinators on any node compute
// the same lane for the same record. lanes <= 1 collapses to a single
// lane (the pre-lane single-engine behaviour).
//
// The hash deliberately differs from the bucket-index mix (bucketIndex
// seeds with the raw key, LaneOf folds the table in first) so lane
// assignment does not correlate with bucket assignment: two tables'
// records with equal keys land on independent lanes.
func LaneOf(rid RID, lanes int) int {
	if lanes <= 1 {
		return 0
	}
	x := uint64(rid.Key) ^ uint64(rid.Table)<<56
	return int(mix64(x) % uint64(lanes))
}
