package deploy

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport"
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
// outlive Close. The "/faults" rows do it all again under pre-commit
// drop dice, on each fabric.
func TestClusterLifecycle(t *testing.T) {
	const partitions, replication = 3, 2
	type row struct{ durable, mvcc, faults bool }
	rows := []row{{false, false, false}, {false, true, false}, {true, false, false}, {true, true, false}, {true, true, true}}
	for _, fabric := range []string{TransportSim, TransportTCP} {
		for _, r := range rows {
			durable, mvcc := r.durable, r.mvcc
			name := fmt.Sprintf("%s/wal=%v/mvcc=%v", fabric, durable, mvcc)
			if r.faults {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				testutil.CheckLeaks(t)
				cfg := Config{
					Transport:   fabric,
					Partitions:  partitions,
					Replication: replication,
					Lanes:       2,
					MVCC:        mvcc,
				}
				var drops atomic.Int64
				if r.faults {
					// With no partition cut, the injector asks Droppable only
					// once the dice have rolled a drop.
					cfg.Faults = &transport.FaultPlan{Seed: 39, DropProb: 0.05, Droppable: func(m string) bool {
						if !server.PreCommitVerbs(m) {
							return false
						}
						drops.Add(1)
						return true
					}}
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
					for _, rep := range part.Replicas {
						if int(rep) == id {
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

				if r.faults && drops.Load() == 0 {
					t.Fatal("the fault plan dropped nothing: the row ran fault-free")
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

// bank builds a cluster of cfg.Partitions range partitions of
// perPartition accounts each, registers transfer, and loads every
// account with startBalance.
func bank(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, cluster.RangePartitioner{
		N:      cfg.Partitions,
		MaxKey: map[storage.TableID]storage.Key{accounts: storage.Key(cfg.Partitions * perPartition)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Registry.Register(transfer()); err != nil {
		t.Fatal(err)
	}
	c.CreateTable(accounts, 64)
	for k := 0; k < cfg.Partitions*perPartition; k++ {
		if err := c.LoadRecord(accounts, storage.Key(k), balance(startBalance)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// A durable cluster reopened over the same directory replays its logs
// (clock before replay, recover before the engine verbs), and the
// loading phase rerun on top yields to the recovered values.
func TestClusterRecoversAndLoadYields(t *testing.T) {
	testutil.CheckLeaks(t)
	cfg := Config{Partitions: 2, Replication: 2, Lanes: 2, MVCC: true, WALDir: t.TempDir(), WALPolicy: wal.Policy{NoSync: true}}
	c := bank(t, cfg)
	run(t, c, EngineChiller, 0, 0, perPartition)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c = bank(t, cfg)
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

// A background snapshot that fails costs a longer log, not a commit, so
// nothing stops for it then — Close reports it. A directory squats on
// the snapshot's temporary path, and a tiny SnapshotBytes makes the
// first commit trigger a snapshot on every node it writes.
func TestCloseReportsFailedSnapshot(t *testing.T) {
	testutil.CheckLeaks(t)
	walDir := t.TempDir()
	c := bank(t, Config{Partitions: 2, Replication: 2, Lanes: 2,
		WALDir: walDir, WALPolicy: wal.Policy{NoSync: true, SnapshotBytes: 1}})
	for _, n := range c.Nodes() {
		if err := os.Mkdir(filepath.Join(walDir, fmt.Sprintf("node-%d", n.ID()), "log.snap.tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	run(t, c, EngineChiller, 0, 0, perPartition)
	err := c.Close()
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("Close after a failed snapshot = %v, want an error naming the snapshot", err)
	}
}

// Settle is one lane barrier per node because a drained engine leaves
// no replica apply in flight: every stream send is awaited through
// server.Acks, and a replica acks only after its apply. So right after
// Drain — no Settle — every replica copy already holds each engine's
// committed writes, inner-region (a hot account) and outer alike.
func TestDrainedCommitIsOnEveryReplica(t *testing.T) {
	for _, fabric := range []string{TransportSim, TransportTCP} {
		t.Run(fabric, func(t *testing.T) {
			testutil.CheckLeaks(t)
			const partitions = 3
			c := bank(t, Config{Transport: fabric, Partitions: partitions, Replication: 2, Lanes: 2})
			defer c.Close()
			for p := 0; p < partitions; p++ {
				rid := storage.RID{Table: accounts, Key: storage.Key(p * perPartition)}
				c.Dir.SetHot(rid, cluster.PartitionID(p))
			}
			for i, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
				for round := 0; round < 10; round++ {
					src := int64(((i + round) % partitions) * perPartition)
					dst := int64(((i+round+1)%partitions)*perPartition + 1 + round%(perPartition-1))
					run(t, c, kind, i, src, dst)
					c.Drain()
					if n := c.VerifyReplicaConsistency(accounts); n != 0 {
						t.Fatalf("%s round %d: %d replica copies behind their primary after Drain", kind, round, n)
					}
				}
			}
		})
	}
}

// Reopen restarts a node through the construction Open runs: the new
// node replays its WAL, the loader rerun on it yields to what replay
// restored, it takes over the endpoint's handlers, and it serves
// traffic — as coordinator and as participant — on either fabric.
func TestReopenServesRecoveredState(t *testing.T) {
	for _, fabric := range []string{TransportSim, TransportTCP} {
		t.Run(fabric, func(t *testing.T) {
			testutil.CheckLeaks(t)
			const partitions = 2
			c := bank(t, Config{Transport: fabric, Partitions: partitions, Replication: 2, Lanes: 2,
				WALDir: t.TempDir(), WALPolicy: wal.Policy{NoSync: true}})
			defer c.Close()
			run(t, c, EngineChiller, 0, 0, perPartition)
			c.Drain()
			c.Settle()

			old := c.Nodes()[1]
			n, err := c.Reopen(1)
			if err != nil {
				t.Fatal(err)
			}
			if n == old || c.Nodes()[1] != n || !n.Recovered {
				t.Fatalf("Reopen did not publish a recovered node in slot 1 (recovered %v)", n.Recovered)
			}
			for k := 0; k < partitions*perPartition; k++ {
				if err := n.LoadRecord(accounts, storage.Key(k), balance(startBalance)); err != nil {
					t.Fatal(err)
				}
			}
			// Replication 2 of 2: the reopened node holds every account.
			for key, want := range map[storage.Key]int64{0: startBalance - 1, perPartition: startBalance + 1, 1: startBalance} {
				v, _, err := n.Store().Bucket(accounts, key).Get(key)
				if err != nil || int64(binary.LittleEndian.Uint64(v)) != want {
					t.Fatalf("reopened node: account %d = %v (%v), want %d", key, v, err, want)
				}
			}

			run(t, c, EngineChiller, 1, perPartition+1, 1)
			run(t, c, Engine2PL, 0, 2, perPartition+2)
			c.Drain()
			c.Settle()
			if n := c.VerifyReplicaConsistency(accounts); n != 0 {
				t.Fatalf("%d replica mismatches after traffic through the reopened node", n)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Reopen(0); err == nil {
				t.Fatal("Reopen succeeded on a closed cluster")
			}
		})
	}
}

// A reopened node mints past every id its predecessor minted: a
// transaction id a participant may still hold state under, or an ack id
// a replica may still ack, must never name new work.
func TestReopenContinuesIDs(t *testing.T) {
	testutil.CheckLeaks(t)
	c := bank(t, Config{Transport: TransportSim, Partitions: 2, Replication: 2})
	defer c.Close()
	run(t, c, EngineChiller, 1, perPartition, 0) // coordinated by node 1: an inner region, replica acks
	c.Drain()
	c.Settle()
	old := c.Nodes()[1]
	lastTxn := old.NextTxnID()
	_, lastAck := old.LastIDs()
	if lastAck == 0 {
		t.Fatal("node 1 minted no ack id before the reopen")
	}
	n, err := c.Reopen(1)
	if err != nil {
		t.Fatal(err)
	}
	if id := n.NextTxnID(); id <= lastTxn {
		t.Errorf("reopened node minted txn id %#x, not past %#x", id, lastTxn)
	}
	a := n.OpenAcks()
	defer a.Cancel()
	if _, ack := n.LastIDs(); ack <= lastAck {
		t.Errorf("reopened node minted ack id %d, not past %d", ack, lastAck)
	}
	// No WAL: the reopened node holds only what the loader reruns.
	for k := 0; k < 2*perPartition; k++ {
		if err := n.LoadRecord(accounts, storage.Key(k), balance(startBalance)); err != nil {
			t.Fatal(err)
		}
	}
	run(t, c, EngineChiller, 1, perPartition+1, 1)
}
