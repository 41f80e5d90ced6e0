package check

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// Engine-level fault taxonomy: a replicate frame whose stream cannot
// leave the primary must surface as an unreachable-family abort whose
// detail names the destination node, and the transaction must have
// aborted cleanly (no leaked locks) so a later retry commits.

func faultCluster(t *testing.T, plan *transport.FaultPlan) *deploy.Cluster {
	t.Helper()
	maxKey := storage.Key(2 * 8)
	c, err := deploy.NewCluster(deploy.Config{
		Partitions:  2,
		Replication: 2,
		Latency:     2 * time.Microsecond,
		Seed:        1,
		Lanes:       1,
		Faults:      plan,
	}, cluster.RangePartitioner{N: 2, MaxKey: map[storage.TableID]storage.Key{CheckTable: maxKey}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
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
	// Drop every stream send: each replicate frame fails at its primary
	// before anything reached a replica, so 2PL must abort cleanly with
	// a node-naming unreachable error.
	c := faultCluster(t, &transport.FaultPlan{
		DropProb:  1,
		Droppable: func(m string) bool { return m == server.VerbInnerRepl },
	})
	eng := c.Engine(deploy.Engine2PL, 0)
	// Cross-partition RMW so the replicate wave has a frame the
	// coordinator serves itself (its error keeps its type) and one a
	// remote primary serves over a doorbell.
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

// Every write of a record reaches its replicas on one pipe — the
// primary's per-link FIFO stream — whether the record was in the inner
// region of the transaction that wrote it (the region streams at its
// commit) or in the outer region (a replicate frame streams at the
// primary, under the same bucket lock). So when two transactions write
// the record one after the other, the replica ends with the later value
// in both lock orders, even while delay spikes hold the earlier stream
// message back: a write set sent to the replicas from anywhere but the
// primary would overtake it.
func TestInnerAndOuterWritesReplicateInLockOrder(t *testing.T) {
	c := faultCluster(t, &transport.FaultPlan{
		Seed:       testutil.Seed(t, 7),
		DelayProb:  0.5,
		DelaySpike: 300 * time.Microsecond,
		Droppable:  func(string) bool { return false },
	})
	const x, y, cold = storage.Key(1), storage.Key(9), storage.Key(10) // x on partition 0; y, cold on 1
	c.Dir.SetHotWeight(storage.RID{Table: CheckTable, Key: x}, 0, 1)
	c.Dir.SetHotWeight(storage.RID{Table: CheckTable, Key: y}, 1, 5)
	// A writes x in its inner region (coordinated on x's primary); B's
	// inner region is the hotter y, so it writes x in its outer region.
	type writer struct {
		eng  cc.Engine
		args func(nonce int64) txn.Args
	}
	a := writer{c.Engine(deploy.EngineChiller, 0), func(n int64) txn.Args { return txn.Args{int64(x), int64(cold), n} }}
	b := writer{c.Engine(deploy.EngineChiller, 1), func(n int64) txn.Args { return txn.Args{int64(x), int64(y), n} }}
	for w, wantInner := range map[*writer]int{&a: 0, &b: 1} {
		dec, err := w.eng.(*core.Engine).Decide(&txn.Request{Proc: ProcRMW2, Args: w.args(0)})
		if err != nil || !dec.TwoRegion || dec.InnerHost != wantInner {
			t.Fatalf("decision %+v (%v), want a two-region transaction with inner host %d", dec, err, wantInner)
		}
	}
	nonceAt := func(node int) int64 {
		v, _, err := c.Nodes()[node].Store().Table(CheckTable).Bucket(x).Get(x)
		if err != nil {
			t.Fatal(err)
		}
		return DecodeNonce(v)
	}
	commit := func(w writer, nonce int64) {
		req := &txn.Request{Proc: ProcRMW2, Args: w.args(nonce)}
		for !w.eng.Run(context.Background(), req).Committed {
			time.Sleep(20 * time.Microsecond)
		}
	}
	for round := int64(1); round <= 60; round++ {
		first, second := a, b
		if round%2 == 0 {
			first, second = b, a
		}
		done := make(chan struct{})
		go func() { commit(first, round); close(done) }()
		// The second writer starts once the primary shows the first one's
		// value: it takes x's lock after the first released it, while the
		// first one's stream message may still be in flight.
		for nonceAt(0) != round {
			time.Sleep(5 * time.Microsecond)
		}
		commit(second, -round)
		<-done
		c.Drain()
		c.Settle()
		if p, r := nonceAt(0), nonceAt(1); p != -round || r != -round {
			t.Fatalf("round %d (inner-region writer first: %v): primary holds nonce %d, replica %d, want %d on both",
				round, round%2 == 1, p, r, -round)
		}
	}
	if n := c.VerifyReplicaConsistency(CheckTable); n != 0 {
		t.Fatalf("%d replica mismatches", n)
	}
}

func TestDroppedLockWaveAbortsCleanlyAllEngines(t *testing.T) {
	for _, kind := range []deploy.EngineKind{deploy.Engine2PL, deploy.EngineOCC, deploy.EngineChiller} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := faultCluster(t, &transport.FaultPlan{
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

// OCC's validate ring is droppable like its read and lock rings. Losing
// it, with phase 1's write locks held at the remote participant, must end
// the transaction unreachable and release those locks (the abort rides
// the protected tail envelope).
func TestDroppedValidateRingAbortsCleanly(t *testing.T) {
	var rings atomic.Int64
	c := faultCluster(t, &transport.FaultPlan{
		DropProb: 1,
		Droppable: func(m string) bool {
			// Node 0's pre-commit rings to node 1: read, lock, validate.
			return m == server.VerbDoorbell && rings.Add(1) == 3
		},
	})
	res := c.Engine(deploy.EngineOCC, 0).Run(context.Background(), &txn.Request{Proc: ProcRMW2, Args: txn.Args{1, 9, 1}})
	if res.Committed || res.Reason != txn.AbortUnreachable || !strings.HasPrefix(res.Detail, server.KindValidate+" at node 1") {
		t.Fatalf("want an unreachable abort at the validate wave, got %v (%s)", res.Reason, res.Detail)
	}
	if !c.Quiesced() {
		t.Fatal("phase 1's write locks leaked")
	}
}

// Lock-wave doorbells are droppable; the commit-tail doorbells (which
// also carry the abort wave) are protected — so even under a total drop
// of lock doorbells, the engine aborts cleanly and leaks nothing.
func TestDroppedLockDoorbellBatchedChiller(t *testing.T) {
	var drops atomic.Int64
	c := faultCluster(t, &transport.FaultPlan{
		DropProb: 1,
		Droppable: func(m string) bool {
			if m == server.VerbDoorbell {
				drops.Add(1)
				return true
			}
			return false
		},
	})
	eng := c.Engine(deploy.EngineChiller, 0)
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
