package twopl_test

import (
	"context"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cc/twopl"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

func newBankCluster(t *testing.T, parts int) (*bench.Cluster, *bench.Bank) {
	t.Helper()
	b := &bench.Bank{AccountsPerPartition: 20}
	def := cluster.RangePartitioner{
		N:      parts,
		MaxKey: map[storage.TableID]storage.Key{bench.BankTable: storage.Key(parts * 20)},
	}
	c := bench.NewCluster(bench.ClusterConfig{
		Partitions: parts,
		Latency:    time.Microsecond,
	}, def)
	t.Cleanup(c.Close)
	if err := bench.SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	return c, b
}

func TestEngineName(t *testing.T) {
	c, _ := newBankCluster(t, 1)
	e := twopl.New(c.Nodes[0])
	if e.Name() != "2PL" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.Node() != c.Nodes[0] {
		t.Fatal("Node accessor broken")
	}
}

func TestLocalAndRemoteTransfer(t *testing.T) {
	c, _ := newBankCluster(t, 2)
	e := twopl.New(c.Nodes[0])

	// Local transfer.
	res := e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{1, 2, 5}})
	if !res.Committed || res.Distributed {
		t.Fatalf("local: %+v", res)
	}
	// Remote transfer: partition 0 → 1.
	res = e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{1, 25, 5}})
	if !res.Committed || !res.Distributed {
		t.Fatalf("remote: %+v", res)
	}
}

func TestAbortReleasesRemoteLocks(t *testing.T) {
	c, _ := newBankCluster(t, 2)
	e := twopl.New(c.Nodes[0])
	// Hold the destination's bucket so the transfer aborts after having
	// locked the (remote-from-dst) source.
	dst := storage.Key(25)
	b := c.Nodes[1].Store().Table(bench.BankTable).Bucket(dst)
	if !b.Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup")
	}
	res := e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{1, int64(dst), 5}})
	if res.Committed || res.Reason != txn.AbortLockConflict {
		t.Fatalf("res = %+v", res)
	}
	b.Lock.Unlock(storage.LockExclusive)
	if !c.Quiesced() {
		t.Fatal("abort leaked participant state")
	}
	// Source bucket must be free again.
	if c.Nodes[0].Store().Table(bench.BankTable).Bucket(1).Lock.Held() {
		t.Fatal("source lock leaked")
	}
}

func TestUnknownProcedure(t *testing.T) {
	c, _ := newBankCluster(t, 1)
	e := twopl.New(c.Nodes[0])
	res := e.Run(context.Background(), &txn.Request{Proc: "nope"})
	if res.Committed || res.Reason != txn.AbortInternal {
		t.Fatalf("res = %+v", res)
	}
}
