package bench_test

import (
	"testing"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// Every record's memory belongs to its table, and the TPC-C mix rewrites
// its records in place: its overwrites keep their records' sizes and,
// without Delivery, it deletes nothing, so no table compacts (while
// every overwrite appended, this mix compacted 8 times). The slab counters add up, and the share of slab bytes left
// on free lists — arrays buckets outgrew and no bucket has taken since —
// is logged, with the dead value bytes: the sealed chunks' unfilled
// tails.
func TestTPCCStorageCounters(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Partitions: 2, CustomersPerDistrict: 30, Items: 200}.Defaults()
	c, w := tpccCluster(t, 2, 2, cfg)
	defer c.Close()
	if m := c.RunN(w, bench.EngineChiller, 1000, 5); m.Committed != 2000 {
		t.Fatalf("committed %d, want 2000", m.Committed)
	}
	var slab, inUse, free, dead int
	for _, n := range c.Nodes {
		for _, id := range n.Store().Tables() {
			st := n.Store().Table(id).Stats()
			if st.Compactions != 0 || st.CompactTime != 0 || st.CompactMax != 0 {
				t.Errorf("node %d table %d: %d compactions (%v, longest %v), want none", n.ID(), id, st.Compactions, st.CompactTime, st.CompactMax)
			}
			if st.SlabInUse < 0 || st.SlabFree < 0 || st.SlabInUse+st.SlabFree > st.SlabBytes {
				t.Errorf("node %d table %d: slab counters do not add up: %+v", n.ID(), id, st)
			}
			slab, inUse, free, dead = slab+st.SlabBytes, inUse+st.SlabInUse, free+st.SlabFree, dead+st.DeadBytes
		}
	}
	t.Logf("slab %d B: %d in use, %d on free lists (%.1f %%), %d uncarved; %d dead value bytes", slab, inUse, free, 100*float64(free)/float64(slab), slab-inUse-free, dead)
}
