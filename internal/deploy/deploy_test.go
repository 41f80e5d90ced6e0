package deploy

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

const (
	accounts storage.TableID = 1
	journal  storage.TableID = 2

	perPartition = 8
	startBalance = 100
)

func balance(v int64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(v))
	return out
}

// transfer moves args[2] from account args[0] to account args[1].
func transfer() *txn.Procedure {
	key := func(i int) txn.KeyFunc {
		return func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) { return storage.Key(args[i]), true }
	}
	add := func(sign int64) txn.MutateFunc {
		return func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
			return balance(int64(binary.LittleEndian.Uint64(old)) + sign*args[2]), nil
		}
	}
	return &txn.Procedure{
		Name: "transfer",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: accounts, Key: key(0), Mutate: add(-1)},
			{ID: 1, Type: txn.OpUpdate, Table: accounts, Key: key(1), Mutate: add(+1)},
		},
	}
}

// run retries until commit: a transaction caught at a handoff cutover
// aborts with the retryable moved reason.
func run(t *testing.T, c *Cluster, kind EngineKind, node int, src, dst int64) {
	t.Helper()
	for attempt := 0; attempt < 1000; attempt++ {
		res := c.Engine(kind, node).Run(context.Background(), &txn.Request{Proc: "transfer", Args: txn.Args{src, dst, 1}})
		if res.Committed {
			if !res.Distributed {
				t.Fatalf("%s transfer %d→%d was not distributed", kind, src, dst)
			}
			return
		}
	}
	t.Fatalf("%s transfer %d→%d never committed", kind, src, dst)
}

// One table over the one assembly: every fabric × durability × MVCC
// combination is built, loaded, driven by each engine, grown, churned,
// shrunk and closed through the same code, and nothing it started may
// outlive Close.
func TestClusterLifecycle(t *testing.T) {
	const partitions, replication = 3, 2
	for _, transport := range []string{TransportSim, TransportTCP} {
		for _, durable := range []bool{false, true} {
			for _, mvcc := range []bool{false, true} {
				name := fmt.Sprintf("%s/wal=%v/mvcc=%v", transport, durable, mvcc)
				t.Run(name, func(t *testing.T) {
					testutil.CheckLeaks(t)
					cfg := Config{
						Transport:   transport,
						Partitions:  partitions,
						Replication: replication,
						Lanes:       2,
						MVCC:        mvcc,
					}
					if durable {
						cfg.WALDir = t.TempDir()
						cfg.WALPolicy = wal.Policy{NoSync: true}
					}
					c, err := NewCluster(cfg, cluster.RangePartitioner{
						N:      partitions,
						MaxKey: map[storage.TableID]storage.Key{accounts: partitions * perPartition},
					})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close() // idempotent: a no-op after the checked Close below

					if err := c.Registry.Register(transfer()); err != nil {
						t.Fatal(err)
					}
					c.CreateTable(accounts, 64)
					c.CreateTable(journal, 16)
					for k := 0; k < partitions*perPartition; k++ {
						if err := c.LoadRecord(accounts, storage.Key(k), balance(startBalance)); err != nil {
							t.Fatal(err)
						}
					}

					// One distributed transaction per engine, each from a
					// different coordinator.
					for i, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
						run(t, c, kind, i, int64(i*perPartition), int64(((i+1)%partitions)*perPartition+1))
					}

					id, err := c.AddNode()
					if err != nil {
						t.Fatal(err)
					}
					if id != partitions || len(c.Nodes()) != partitions+1 {
						t.Fatalf("AddNode id = %d with %d nodes, want id %d", id, len(c.Nodes()), partitions)
					}
					src, joiner := c.Nodes()[0].Store(), c.Nodes()[id].Store()
					for _, tid := range src.Tables() {
						tbl := joiner.Table(tid)
						if tbl == nil || tbl.NumBuckets() != src.Table(tid).NumBuckets() {
							t.Fatalf("joiner does not mirror table %d with %d buckets: %v", tid, src.Table(tid).NumBuckets(), tbl)
						}
					}
					if mvcc != joiner.MVCCEnabled() {
						t.Fatalf("joiner MVCC = %v, want %v", joiner.MVCCEnabled(), mvcc)
					}
					if durable != (c.Nodes()[id].WAL() != nil) {
						t.Fatalf("joiner WAL attached = %v, want %v", c.Nodes()[id].WAL() != nil, durable)
					}

					// There and back: the joiner serves partition 1 as primary
					// (coordinating a transaction itself), then hands it home.
					home := int(c.Topo.Primary(1))
					for _, to := range []int{id, home} {
						if err := c.MovePartition(1, to); err != nil {
							t.Fatalf("move partition 1 to node %d: %v", to, err)
						}
						if got := int(c.Topo.Primary(1)); got != to {
							t.Fatalf("partition 1 primary = %d, want %d", got, to)
						}
						if reps := c.Topo.Replicas(1); len(reps) != replication-1 {
							t.Fatalf("partition 1 replicas %v not trimmed to degree %d", reps, replication)
						}
						run(t, c, EngineChiller, id, perPartition+2, 3)
					}

					if err := c.RemoveNode(id); err != nil {
						t.Fatal(err)
					}
					for _, part := range c.Topo.Snapshot() {
						if int(part.Primary) == id {
							t.Fatalf("removed node still primaries partition %d", part.ID)
						}
						for _, r := range part.Replicas {
							if int(r) == id {
								t.Fatalf("removed node still replicates partition %d", part.ID)
							}
						}
					}

					c.Drain()
					c.Settle()
					if !c.Quiesced() {
						t.Fatal("participant state leaked")
					}
					if n := c.VerifyReplicaConsistency(accounts); n != 0 {
						t.Fatalf("%d replica mismatches", n)
					}
					var total int64
					for k := 0; k < partitions*perPartition; k++ {
						rid := storage.RID{Table: accounts, Key: storage.Key(k)}
						v, _, err := c.Nodes()[c.Dir.PrimaryOf(rid)].Store().Bucket(accounts, rid.Key).Get(rid.Key)
						if err != nil {
							t.Fatalf("account %d lost: %v", k, err)
						}
						total += int64(binary.LittleEndian.Uint64(v))
					}
					if want := int64(partitions * perPartition * startBalance); total != want {
						t.Fatalf("total balance %d, want %d", total, want)
					}

					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
					if _, err := c.AddNode(); err == nil {
						t.Fatal("AddNode succeeded on a closed cluster")
					}
				})
			}
		}
	}
}

// A durable cluster reopened over the same directory replays its logs
// (clock before replay, recover before the engine verbs), and the
// loading phase rerun on top yields to the recovered values.
func TestClusterRecoversAndLoadYields(t *testing.T) {
	testutil.CheckLeaks(t)
	cfg := Config{Partitions: 2, Replication: 2, Lanes: 2, MVCC: true, WALDir: t.TempDir(), WALPolicy: wal.Policy{NoSync: true}}
	part := cluster.RangePartitioner{N: 2, MaxKey: map[storage.TableID]storage.Key{accounts: 2 * perPartition}}
	open := func() *Cluster {
		c, err := NewCluster(cfg, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Registry.Register(transfer()); err != nil {
			t.Fatal(err)
		}
		c.CreateTable(accounts, 64)
		for k := 0; k < 2*perPartition; k++ {
			if err := c.LoadRecord(accounts, storage.Key(k), balance(startBalance)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	c := open()
	run(t, c, EngineChiller, 0, 0, perPartition)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c = open()
	defer c.Close()
	for _, n := range c.Nodes() {
		if !n.Recovered {
			t.Fatalf("node %d did not recover its log", n.ID())
		}
	}
	for key, want := range map[storage.Key]int64{0: startBalance - 1, perPartition: startBalance + 1} {
		for _, n := range c.Nodes() { // replication 2 of 2: every node holds every key
			v, _, err := n.Store().Bucket(accounts, key).Get(key)
			if err != nil || int64(binary.LittleEndian.Uint64(v)) != want {
				t.Fatalf("node %d account %d = %v (%v), want %d", n.ID(), key, v, err, want)
			}
		}
	}
	// The recovered clock is past every replayed version: new commits and
	// snapshots keep working.
	run(t, c, EngineChiller, 1, 1, perPartition+1)
}
