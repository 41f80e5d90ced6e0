package chillerpart

import (
	"maps"
	"math/rand"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/partition"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
)

func rid(k storage.Key) storage.RID { return storage.RID{Table: 1, Key: k} }

// Build the paper's Figure 5 example: 7 records, 4 transaction shapes.
// Records 3 and 4 are hot (updated constantly); 1,2,5,6,7 are cool.
//
//	t1: read 1, read 2, write 3        (x N)
//	t2: write 3, write 4               (x N)
//	t3: write 4, write 5               (x N)
//	t4: read 6, read 7, write 5        (x few)
func figure5Aggregate(n int) *stats.Aggregate {
	agg := stats.NewAggregate()
	var samples []stats.TxnSample
	for i := 0; i < n; i++ {
		samples = append(samples,
			stats.TxnSample{Reads: []storage.RID{rid(1), rid(2)}, Writes: []storage.RID{rid(3)}},
			stats.TxnSample{Writes: []storage.RID{rid(3), rid(4)}},
			stats.TxnSample{Writes: []storage.RID{rid(4), rid(5)}},
		)
	}
	for i := 0; i < n/4+1; i++ {
		samples = append(samples, stats.TxnSample{Reads: []storage.RID{rid(6), rid(7)}, Writes: []storage.RID{rid(5)}})
	}
	agg.Add(samples)
	agg.Finalize(1, float64(n)) // ~1 write/lock-window for records 3,4
	return agg
}

func TestHotRecordsCoLocated(t *testing.T) {
	agg := figure5Aggregate(40)
	res, err := Partition(agg, Config{K: 2, Seed: 9, HotThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	p3, ok3 := res.Layout.Hot[rid(3)]
	p4, ok4 := res.Layout.Hot[rid(4)]
	if !ok3 || !ok4 {
		t.Fatalf("records 3 and 4 should be in the lookup table; hot = %v", res.Layout.Hot)
	}
	// The core property of §4.2: the frequently co-accessed contended
	// records land on the same partition so one inner region can cover
	// both (transaction t2 writes both).
	if p3 != p4 {
		t.Fatalf("hot records split: 3→%d, 4→%d", p3, p4)
	}
}

func TestLookupTableOnlyHotRecords(t *testing.T) {
	agg := figure5Aggregate(40)
	res, err := Partition(agg, Config{K: 2, Seed: 9, HotThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Read-only records (1,2,6,7) have Pc = 0 and must not waste
	// lookup-table entries.
	for _, cold := range []storage.RID{rid(1), rid(2), rid(6), rid(7)} {
		if _, ok := res.Layout.Hot[cold]; ok {
			t.Errorf("cold record %v in lookup table", cold)
		}
	}
	if res.Layout.LookupTableSize() >= 7 {
		t.Fatalf("lookup table size %d should be smaller than record count 7", res.Layout.LookupTableSize())
	}
}

func TestStarGraphEdgeCount(t *testing.T) {
	agg := stats.NewAggregate()
	var recs []storage.RID
	for i := 0; i < 10; i++ {
		recs = append(recs, rid(storage.Key(i)))
	}
	agg.Add([]stats.TxnSample{{Writes: recs}})
	agg.Finalize(1, 1)
	res, err := Partition(agg, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Star representation: n edges for an n-record transaction (§4.4),
	// versus Schism's 45.
	if res.Edges != 10 {
		t.Fatalf("Edges = %d, want 10", res.Edges)
	}
}

func TestTxnHostsAssigned(t *testing.T) {
	agg := figure5Aggregate(20)
	res, err := Partition(agg, Config{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TxnHost) != len(agg.Txns()) {
		t.Fatalf("TxnHost has %d entries for %d txns", len(res.TxnHost), len(agg.Txns()))
	}
	for _, h := range res.TxnHost {
		if h < 0 || int(h) >= 2 {
			t.Fatalf("bad inner host %d", h)
		}
	}
}

func TestContentionCostLowerThanHash(t *testing.T) {
	agg := figure5Aggregate(40)
	res, err := Partition(agg, Config{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	def := cluster.HashPartitioner{N: 2}
	chillerCost := ContentionCost(agg, partition.RouterFor(res.Layout, def), 2)
	hashCost := ContentionCost(agg, partition.RouterFor(nil, def), 2)
	if chillerCost > hashCost {
		t.Fatalf("contention cost: chiller %.3f > hash %.3f", chillerCost, hashCost)
	}
}

func TestMinEdgeWeightCoOptimization(t *testing.T) {
	// With a large floor weight every record is pulled toward its
	// transactions: fewer distributed transactions, like Schism.
	agg := figure5Aggregate(40)
	plain, err := Partition(agg, Config{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	coopt, err := Partition(agg, Config{K: 2, Seed: 9, MinEdgeWeight: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Not a strict guarantee, but with the floor the hot co-location
	// must be preserved.
	if p3, p4 := coopt.Layout.Hot[rid(3)], coopt.Layout.Hot[rid(4)]; p3 != p4 {
		t.Fatalf("co-optimization broke hot co-location: %d vs %d", p3, p4)
	}
	_ = plain
}

func TestInvalidK(t *testing.T) {
	if _, err := Partition(stats.NewAggregate(), Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

// With Lanes > 1 the partitioner cuts at sub-partition granularity:
// partitions stay in range, hot records carry lane placements in
// [0, Lanes), transaction hosts/lanes are consistent, and installing
// the layout routes Lane() through the placement.
func TestLanesAsSubPartitions(t *testing.T) {
	agg := figure5Aggregate(40)
	const k, lanes = 2, 3
	res, err := Partition(agg, Config{K: k, Lanes: lanes, Seed: 9, HotThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layout.Hot) == 0 {
		t.Fatal("no hot records with lanes enabled")
	}
	for r, p := range res.Layout.Hot {
		if int(p) < 0 || int(p) >= k {
			t.Fatalf("record %v on partition %d (K=%d)", r, p, k)
		}
		lane, ok := res.Layout.Lane[r]
		if !ok {
			t.Fatalf("hot record %v has no lane placement", r)
		}
		if lane < 0 || lane >= lanes {
			t.Fatalf("record %v on lane %d (Lanes=%d)", r, lane, lanes)
		}
	}
	// t2 writes both hot records: co-location should now hold at lane
	// granularity — same partition AND same lane, so one single-threaded
	// engine serializes the pair.
	if res.Layout.Hot[rid(3)] == res.Layout.Hot[rid(4)] &&
		res.Layout.Lane[rid(3)] != res.Layout.Lane[rid(4)] {
		t.Fatalf("hot pair split across lanes: 3→%d, 4→%d",
			res.Layout.Lane[rid(3)], res.Layout.Lane[rid(4)])
	}
	for i, h := range res.TxnHost {
		if int(h) < 0 || int(h) >= k {
			t.Fatalf("txn %d hosted on partition %d", i, h)
		}
		if res.TxnLane[i] < 0 || res.TxnLane[i] >= lanes {
			t.Fatalf("txn %d on lane %d", i, res.TxnLane[i])
		}
	}
	// Install routes the directory's Lane() through the placement.
	topo := cluster.NewTopology(k, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: k})
	dir.SetLanes(lanes)
	res.Layout.Install(dir)
	for r, lane := range res.Layout.Lane {
		if got := dir.Lane(r); got != lane {
			t.Fatalf("directory lane for %v = %d, want placed %d", r, got, lane)
		}
	}
	_ = partition.RouterFor(res.Layout, cluster.HashPartitioner{N: k})
}

// skewedAggregate builds an aggregate from a seeded trace: 600
// transactions of four accesses over 400 records, a third of them on the
// first 20 — enough records crossing the hot threshold, and enough
// edges, that an unstable graph build shows up as a different layout.
func skewedAggregate(seed int64) *stats.Aggregate {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]stats.TxnSample, 600)
	for i := range samples {
		for j := 0; j < 4; j++ {
			k := storage.Key(rng.Intn(400))
			if rng.Intn(3) == 0 {
				k = storage.Key(rng.Intn(20))
			}
			if j%2 == 0 {
				samples[i].Reads = append(samples[i].Reads, rid(k))
			} else {
				samples[i].Writes = append(samples[i].Writes, rid(k))
			}
		}
	}
	agg := stats.NewAggregate()
	agg.Add(samples)
	agg.Finalize(1, 30)
	return agg
}

// A seeded partitioner is a function of its trace: aggregates built
// from the same trace give the same layout, run after run.
func TestSameTraceSameLayout(t *testing.T) {
	cfg := Config{K: 4, Seed: 42, HotThreshold: 0.05}
	first, err := Partition(skewedAggregate(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Layout.Hot) == 0 {
		t.Fatal("no hot records: the trace exercises nothing")
	}
	for i := 0; i < 5; i++ {
		again, err := Partition(skewedAggregate(7), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(first.Layout.Hot, again.Layout.Hot) {
			t.Fatalf("repeat %d placed %d hot records differently", i, diffCount(first.Layout.Hot, again.Layout.Hot))
		}
	}
}

func diffCount(a, b map[storage.RID]cluster.PartitionID) int {
	n := 0
	for r, p := range a {
		if q, ok := b[r]; !ok || q != p {
			n++
		}
	}
	return n
}
