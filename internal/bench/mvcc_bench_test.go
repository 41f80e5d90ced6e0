package bench

import (
	"context"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// readHeavyAcceptanceOptions is the configuration the snapshot path is
// built for: a 2-partition cluster with full replication (every node
// holds a replica of every partition, so every snapshot read resolves
// against local versions), a slow simulated network (locking reads pay
// it, snapshot reads don't), hot-key contention between audits and
// transfers, and an open-loop window of 4 outstanding transactions per
// client.
//
// The window must NOT be wide enough to hide the network: with
// in-flight = parts × Concurrency × outstanding = 16 transactions and
// 100µs one-way latency, the locking run is latency-bound (every remote
// lock-read pays the round trip) while the snapshot run stays CPU-bound
// — the structural gap TestMVCCReadHeavyShapes pins. A saturating
// window (say 48 in-flight at 20µs) hides the latency behind pipelining
// and both runs converge on the same CPU ceiling.
func readHeavyAcceptanceOptions() (opt Options, parts, outstanding int) {
	opt = testOptions()
	opt.Replication = 2 // = parts: full replication
	opt.Latency = 100 * time.Microsecond
	opt.Concurrency = 2
	opt.Duration = 400 * time.Millisecond
	return opt, 2, 4
}

// TestMVCCReadHeavyAcceptance pins the two exact claims of the
// read-heavy MVCC path (the third, throughput ≥1.5× the locking path, is
// a wall-clock ordering and lives in TestMVCCReadHeavyShapes):
//   - aborts: snapshot audits never abort — the path takes no locks and
//     enters no lane schedule, so there is nothing to lose a race to;
//   - verbs: snapshot audits issue zero network verbs — with a replica
//     of every partition on the coordinator, VerbSnapshotRead is never
//     needed.
func TestMVCCReadHeavyAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt, parts, outstanding := readHeavyAcceptanceOptions()
	opt.Duration = 150 * time.Millisecond // the invariants are exact at any length
	on, err := runReadHeavy(opt, parts, outstanding, true)
	if err != nil {
		t.Fatal(err)
	}
	audits := on.ByProc[BankSnapAuditProc]
	if audits == nil || audits.Committed == 0 {
		t.Fatalf("MVCC-on run committed no snapshot audits: %+v", audits)
	}
	if audits.Aborted != 0 {
		t.Errorf("snapshot audits aborted %d times, want 0", audits.Aborted)
	}
	if vp := on.Verbs[server.KindSnapRead]; vp != nil && vp.Count != 0 {
		t.Errorf("snapshot audits issued %d %s verbs on a fully-replicated cluster, want 0",
			vp.Count, server.KindSnapRead)
	}
}

// A snapshot read costs one round trip per dependency round, however many
// cold nodes the round reads: the round is one wave, so the cold nodes'
// rings are in flight together. bank-ro-mvcc's layout (4 partitions,
// replication 2) leaves node 0 holding partitions 0 and 3, so an audit of
// one account on each of partitions 0, 1 and 2 reads two cold nodes in
// its one round. It rings one doorbell per cold node — none for the local
// read, none resent — and on a fabric slow enough to dwarf the CPU its
// fastest run takes one round trip, where ringing the nodes one after
// another took two.
func TestSnapshotRoundIsOneRoundTrip(t *testing.T) {
	const oneWay = 2 * time.Millisecond
	b := &Bank{AccountsPerPartition: 10}
	c := NewCluster(ClusterConfig{Partitions: 4, Replication: 2, Latency: oneWay, MVCC: true},
		cluster.RangePartitioner{N: 4, MaxKey: map[storage.TableID]storage.Key{BankTable: 40}})
	defer c.Close()
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	coord := c.Nodes[0]
	cold := map[transport.NodeID]bool{}
	var args txn.Args
	for p := 0; p < 3; p++ {
		k := b.CelebrityKey(p)
		if pid := c.Dir.Partition(storage.RID{Table: BankTable, Key: k}); !coord.HoldsPartition(pid) {
			cold[c.Topo.Primary(pid)] = true
		}
		args = append(args, int64(k))
	}
	if len(cold) != 2 {
		t.Fatalf("the audit reads %d cold nodes, want 2", len(cold))
	}
	req := &txn.Request{Proc: BankSnapAuditProc, Args: args}
	engine := c.Engine(EngineChiller, 0)
	const runs = 10
	stats := coord.Endpoint().Stats()
	before := stats.Doorbells.Load()
	fastest := time.Hour
	for i := 0; i < runs; i++ {
		start := time.Now()
		res := engine.Run(context.Background(), req)
		fastest = min(fastest, time.Since(start))
		if !res.Committed || !res.Distributed {
			t.Fatalf("audit: %+v", res)
		}
	}
	if got := float64(stats.Doorbells.Load()-before) / runs; got != float64(len(cold)) {
		t.Errorf("%.2f doorbells per audit, want %d: one per cold node", got, len(cold))
	}
	if rtt := 2 * oneWay; fastest >= rtt*3/2 {
		t.Errorf("fastest audit took %v, want one round trip (%v), not one per cold node", fastest, rtt)
	}
}

// OCC reaches its participants by waves too: a transfer between two
// accounts the coordinator holds neither of costs one read round (both
// reads in one wave), one write-lock wave, one validate wave and one
// commit wave — four round trips, where reading and validating at one
// node after another took six — and no two-sided call.
func TestOCCIsFourRoundTrips(t *testing.T) {
	const oneWay = 2 * time.Millisecond
	c := NewCluster(ClusterConfig{Partitions: 3, Latency: oneWay},
		cluster.RangePartitioner{N: 3, MaxKey: map[storage.TableID]storage.Key{BankTable: 30}})
	defer c.Close()
	if err := SetupBank(c, &Bank{AccountsPerPartition: 10}, true); err != nil {
		t.Fatal(err)
	}
	req := &txn.Request{Proc: BankTransferProc, Args: txn.Args{15, 25, 1}} // partitions 1 and 2
	engine := c.Engine(EngineOCC, 0)
	stats := c.Nodes[0].Endpoint().Stats()
	before := stats.RPCs.Load()
	fastest := time.Hour
	for i := 0; i < 10; i++ {
		start := time.Now()
		res := engine.Run(context.Background(), req)
		fastest = min(fastest, time.Since(start))
		if !res.Committed || !res.Distributed {
			t.Fatalf("transfer: %+v", res)
		}
	}
	if rpcs := stats.RPCs.Load() - before; rpcs != 0 {
		t.Errorf("%d two-sided calls, want 0", rpcs)
	}
	if rtt := 2 * oneWay; fastest > rtt*9/2 {
		t.Errorf("fastest transfer took %v, want four round trips (%v)", fastest, 4*rtt)
	}
}
