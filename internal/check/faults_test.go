package check

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
)

// Engine-level fault taxonomy: a dropped replication relay must surface
// as an unreachable-family abort whose detail names the destination
// node, and the transaction must have aborted cleanly (no leaked
// locks) so a later retry commits.

func faultCluster(t *testing.T, plan *simfab.FaultPlan) *bench.Cluster {
	t.Helper()
	maxKey := storage.Key(2 * 8)
	c := bench.NewCluster(bench.ClusterConfig{
		Partitions:  2,
		Replication: 2,
		Latency:     2 * time.Microsecond,
		Seed:        1,
		Lanes:       1,
		Faults:      plan,
	}, cluster.RangePartitioner{N: 2, MaxKey: map[storage.TableID]storage.Key{CheckTable: maxKey}})
	t.Cleanup(c.Close)
	if err := RegisterProcs(c.Registry); err != nil {
		t.Fatal(err)
	}
	c.CreateTable(CheckTable, 1024)
	for k := storage.Key(0); k < maxKey; k++ {
		if err := c.LoadRecord(CheckTable, k, InitialVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestDroppedReplicationRelaySurfacesUnreachable(t *testing.T) {
	// Drop every replication forward: the transaction's writes cannot
	// replicate, so 2PL must abort cleanly with a node-naming
	// unreachable error.
	c := faultCluster(t, &simfab.FaultPlan{
		DropProb:  1,
		Droppable: func(m string) bool { return m == server.VerbReplForward },
	})
	eng := c.Engine(bench.Engine2PL, 0)
	// Cross-partition RMW so the replication fan-out includes a remote
	// relay (the local relay bypasses the fabric).
	req := &txn.Request{Proc: ProcRMW2, Args: txn.Args{1, 9, 1}}
	res := eng.Run(context.Background(), req)
	if res.Committed {
		t.Fatal("committed despite replication being down")
	}
	if res.Reason != txn.AbortUnreachable {
		t.Fatalf("want AbortUnreachable, got %v (%s)", res.Reason, res.Detail)
	}
	if !strings.Contains(res.Detail, "node") {
		t.Fatalf("detail must name the destination node, got %q", res.Detail)
	}
	if !c.Quiesced() {
		t.Fatal("aborted transaction leaked participant state")
	}
}

func TestDroppedLockWaveAbortsCleanlyAllEngines(t *testing.T) {
	for _, kind := range []bench.EngineKind{bench.Engine2PL, bench.EngineOCC, bench.EngineChiller} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := faultCluster(t, &simfab.FaultPlan{
				DropProb:  1,
				Droppable: server.PreCommitVerbs,
			})
			eng := c.Engine(kind, 0)
			req := &txn.Request{Proc: ProcRMW2, Args: txn.Args{1, 9, 1}}
			res := eng.Run(context.Background(), req)
			if res.Committed {
				t.Fatal("committed through a fully dropped pre-commit plane")
			}
			if res.Reason != txn.AbortUnreachable {
				t.Fatalf("want AbortUnreachable, got %v (%s)", res.Reason, res.Detail)
			}
			if !c.Quiesced() {
				t.Fatal("aborted transaction leaked participant state")
			}
		})
	}
}

// Lock-wave doorbells are droppable; the commit-tail doorbells (which
// also carry the abort wave) are protected — so even under a total drop
// of lock doorbells, the engine aborts cleanly and leaks nothing.
func TestDroppedLockDoorbellBatchedChiller(t *testing.T) {
	var drops atomic.Int64
	c := faultCluster(t, &simfab.FaultPlan{
		DropProb: 1,
		Droppable: func(m string) bool {
			if m == server.VerbDoorbell {
				drops.Add(1)
				return true
			}
			return false
		},
	})
	eng := c.Engine(bench.EngineChiller, 0)
	// Hot key on partition 1 + cold key on partition 0: the outer wave
	// targets a remote node over a (dropped) lock doorbell.
	rid := storage.RID{Table: CheckTable, Key: 8}
	c.Dir.SetHot(rid, c.Dir.Default().Partition(rid))
	req := &txn.Request{Proc: ProcRMW2, Args: txn.Args{1, 8, 1}}
	res := eng.Run(context.Background(), req)
	if res.Committed {
		t.Fatal("committed through dropped lock doorbells")
	}
	if res.Reason != txn.AbortUnreachable && res.Reason != txn.AbortInternal {
		t.Fatalf("unexpected reason %v (%s)", res.Reason, res.Detail)
	}
	if drops.Load() == 0 {
		t.Fatal("no lock doorbell was ever dropped — the test exercised nothing")
	}
	if !c.Quiesced() {
		t.Fatal("leaked participant state")
	}
}
