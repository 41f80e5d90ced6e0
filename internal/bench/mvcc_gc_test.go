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
// same bounds, on a cluster built through NewCluster — the assembly the
// checker's mvcc-* cells and the benchmark run. The GC watermark must
// advance during pure uptime, keeping a hot record's chain near the
// retention window rather than the write count and collecting the chain
// of a record written once and then left alone.
func TestMVCCChainDepthBounded(t *testing.T) {
	c := NewCluster(ClusterConfig{Partitions: 1, Lanes: 1, MVCC: true},
		cluster.RangePartitioner{N: 1, MaxKey: map[storage.TableID]storage.Key{BankTable: 8}})
	defer c.Close()
	b := &Bank{AccountsPerPartition: 8}
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	transfer := func(from, to int64) {
		t.Helper()
		req := &txn.Request{Proc: BankTransferProc, Args: txn.Args{from, to, 1}}
		for !c.Engine(EngineChiller, 0).Run(context.Background(), req).Committed {
		}
	}
	const writes = 6000
	transfer(2, 3) // the cold pair: written once
	for i := 0; i < writes; i++ {
		transfer(0, 1)
	}
	c.Drain()

	// No write follows. Wait, up to a deadline, for the state the bounds
	// describe: the GC loop has raised the watermark to the final stable
	// point less the retention window, and its sweep has pruned the
	// chains it passed.
	st := c.Nodes[0].Store()
	accounts := st.Table(BankTable)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(deploy.GCInterval) {
		if st.Watermark()+deploy.GCRetention >= c.Clock.Stable() &&
			accounts.ChainDepth(0) <= 2*deploy.GCRetention &&
			accounts.ChainDepth(2)+accounts.ChainDepth(3) == 0 {
			break
		}
	}
	if st.Watermark() == 0 {
		t.Fatal("GC watermark never advanced under pure uptime")
	}
	depth := accounts.ChainDepth(0)
	if depth == 0 {
		t.Fatal("no versions retained — MVCC off?")
	}
	if depth > 2*deploy.GCRetention {
		t.Fatalf("version chain depth %d exceeds retention bound %d (writes: %d)", depth, 2*deploy.GCRetention, writes)
	}
	for _, k := range []storage.Key{2, 3} {
		if n := accounts.ChainDepth(k); n != 0 {
			t.Fatalf("account %d, written once %d commits before the watermark: chain depth %d, want 0", k, writes, n)
		}
	}
}
