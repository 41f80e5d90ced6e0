package schism

import (
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/partition"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
)

func rid(k storage.Key) storage.RID { return storage.RID{Table: 1, Key: k} }

// Two disjoint groups of records, each co-accessed only within the group:
// Schism must put each group on one partition, yielding zero distributed
// transactions.
func TestPartitionSeparatesCoAccessGroups(t *testing.T) {
	var trace []stats.TxnSample
	for i := 0; i < 30; i++ {
		trace = append(trace, stats.TxnSample{Writes: []storage.RID{rid(1), rid(2), rid(3)}})
		trace = append(trace, stats.TxnSample{Writes: []storage.RID{rid(10), rid(11), rid(12)}})
	}
	layout, err := Partition(trace, Config{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Full) != 6 {
		t.Fatalf("Full map has %d entries, want 6", len(layout.Full))
	}
	router := partition.RouterFor(layout, cluster.HashPartitioner{N: 2})
	if got := partition.DistributedRatio(trace, router); got != 0 {
		t.Fatalf("distributed ratio = %v, want 0", got)
	}
	if layout.Full[rid(1)] == layout.Full[rid(10)] {
		t.Fatal("groups not separated (balance would be violated)")
	}
}

func TestPartitionBalances(t *testing.T) {
	// 40 singleton-record transactions: records should split ~20/20.
	var trace []stats.TxnSample
	for i := 0; i < 40; i++ {
		trace = append(trace, stats.TxnSample{Writes: []storage.RID{rid(storage.Key(i))}})
	}
	layout, err := Partition(trace, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[cluster.PartitionID]int{}
	for _, p := range layout.Full {
		counts[p]++
	}
	for p, c := range counts {
		if c < 15 || c > 25 {
			t.Errorf("partition %d hosts %d/40 records", p, c)
		}
	}
}

func TestPartitionInvalidK(t *testing.T) {
	if _, err := Partition(nil, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestGraphEdgesQuadraticInTxnSize(t *testing.T) {
	// One 10-record transaction → C(10,2)=45 edges; Chiller's star would
	// use 10. This is the §4.4 graph-size comparison.
	var recs []storage.RID
	for i := 0; i < 10; i++ {
		recs = append(recs, rid(storage.Key(i)))
	}
	trace := []stats.TxnSample{{Writes: recs}}
	if got := GraphEdges(trace); got != 45 {
		t.Fatalf("GraphEdges = %d, want 45", got)
	}
}
