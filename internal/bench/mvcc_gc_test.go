package bench

import (
	"context"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// The second input of the root package's TestMVCCChainDepthBounded: the
// same bound, on a cluster built through NewCluster — the assembly the
// checker's mvcc-* cells and the benchmark run. The GC watermark must
// advance during pure uptime, keeping version chains near the retention
// window rather than the write count.
func TestMVCCChainDepthBounded(t *testing.T) {
	c := NewCluster(ClusterConfig{Partitions: 1, Lanes: 1, MVCC: true},
		cluster.RangePartitioner{N: 1, MaxKey: map[storage.TableID]storage.Key{BankTable: 8}})
	defer c.Close()
	b := &Bank{AccountsPerPartition: 8}
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	bump := func() {
		t.Helper()
		req := &txn.Request{Proc: BankTransferProc, Args: txn.Args{0, 1, 1}}
		for !c.Engine(EngineChiller, 0).Run(context.Background(), req).Committed {
		}
	}
	const writes = 6000
	for i := 0; i < writes; i++ {
		bump()
	}
	// Let the GC loop observe the stable clock, then one more write so
	// the (lazy, on-write) prune runs against the advanced watermark.
	time.Sleep(10 * deploy.GCInterval)
	bump()
	c.Drain()

	st := c.Nodes[0].Store()
	if st.Watermark() == 0 {
		t.Fatal("GC watermark never advanced under pure uptime")
	}
	depth := st.Table(BankTable).ChainDepth(0)
	if depth == 0 {
		t.Fatal("no versions retained — MVCC off?")
	}
	if depth > 2*deploy.GCRetention {
		t.Fatalf("version chain depth %d exceeds retention bound %d (writes: %d)", depth, 2*deploy.GCRetention, writes)
	}
}
