package chiller

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

const tcpAccounts Table = 1

func tcpEnc(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func tcpDec(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// tcpTransferProc builds the bank.transfer(src, dst, amount) procedure
// used on both sides of the wire (nodes and client must register
// identical procedures; they are not shipped over the network).
func tcpTransferProc() *Proc {
	p := NewProc("bank.transfer")
	p.Update(tcpAccounts, Arg(0), func(old []byte, args Args, _ Reads) ([]byte, error) {
		if tcpDec(old) < args[2] {
			return nil, fmt.Errorf("insufficient funds")
		}
		return tcpEnc(tcpDec(old) - args[2]), nil
	})
	p.Update(tcpAccounts, Arg(1), func(old []byte, args Args, _ Reads) ([]byte, error) {
		return tcpEnc(tcpDec(old) + args[2]), nil
	})
	return p
}

func tcpPartitioner(parts int) cluster.DefaultPartitioner {
	return cluster.RangePartitioner{
		N:      parts,
		MaxKey: map[storage.TableID]storage.Key{storage.TableID(tcpAccounts): 200},
	}
}

// startTCPTestCluster brings up `parts` in-process node "processes"
// over real loopback sockets — the same wiring cmd/chiller-node does,
// minus the process boundary — each loading its share of 200 accounts
// at balance 1000 (replicas start empty: the replication stream's apply
// inserts what it does not find). It returns the peer list and the
// per-node stores for post-commit inspection.
func startTCPTestCluster(t *testing.T, parts, replication int) ([]string, []*storage.Store) {
	t.Helper()
	proc, err := tcpTransferProc().build()
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewTopology(parts, replication)
	fabs := make([]*tcpnet.Fabric, parts)
	addrs := make(map[transport.NodeID]string, parts)
	peers := make([]string, parts)
	for i := range fabs {
		fab, err := tcpnet.New(tcpnet.Config{ID: transport.NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		fabs[i] = fab
		addrs[transport.NodeID(i)] = fab.Addr()
		peers[i] = fab.Addr()
	}
	stores := make([]*storage.Store, parts)
	for i, fab := range fabs {
		fab.SetPeers(addrs)
		dir := cluster.NewDirectory(topo, tcpPartitioner(parts))
		dir.SetLanes(cluster.DefaultLanes())
		reg := txn.NewRegistry()
		if err := reg.Register(proc); err != nil {
			t.Fatal(err)
		}
		st := storage.NewStore()
		st.CreateTable(storage.TableID(tcpAccounts), 256)
		node := server.New(fab, st, reg, dir, cluster.PartitionID(i))
		eng := core.New(node)
		stores[i] = st
		for k := storage.Key(0); k < 200; k++ {
			rid := storage.RID{Table: storage.TableID(tcpAccounts), Key: k}
			if topo.Primary(dir.Partition(rid)) != transport.NodeID(i) {
				continue
			}
			if err := st.Table(rid.Table).Bucket(k).Insert(k, tcpEnc(1000)); err != nil {
				t.Fatal(err)
			}
		}
		fab, node, eng := fab, node, eng
		t.Cleanup(func() {
			eng.Drain()
			fab.Close()
			node.Close()
		})
	}
	return peers, stores
}

func TestOpenTCPExecute(t *testing.T) {
	peers, stores := startTCPTestCluster(t, 2, 1)
	db, err := Open(
		WithTransport(TransportTCP),
		WithPeers(peers...),
		WithRangePartitioner(map[Table]Key{tcpAccounts: 200}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2 (derived from peers)", got)
	}
	if err := db.Register(tcpTransferProc()); err != nil {
		t.Fatal(err)
	}

	// Store-touching methods are typed-unsupported on a TCP client.
	if err := db.CreateTable(tcpAccounts, 8); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("CreateTable: got %v, want ErrUnsupported", err)
	}
	if err := db.Load(tcpAccounts, 1, tcpEnc(5)); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Load: got %v, want ErrUnsupported", err)
	}
	if _, err := db.Get(tcpAccounts, 1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Get: got %v, want ErrUnsupported", err)
	}
	if err := db.MarkHot(tcpAccounts, 1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("MarkHot: got %v, want ErrUnsupported", err)
	}
	if _, err := db.Repartition(context.Background()); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Repartition: got %v, want ErrUnsupported", err)
	}

	// Cross-partition transfer: key 10 lives on node 0, key 150 on node 1.
	res, err := db.ExecuteWithRetry(context.Background(), Retry{}, "bank.transfer", 10, 150, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Distributed {
		t.Fatal("transfer of keys 10 and 150 should be distributed")
	}
	// An overdraft aborts with the application's constraint error.
	if _, err := db.Execute(context.Background(), "bank.transfer", 11, 150, 1_000_000); !errors.Is(err, ErrConstraint) {
		t.Fatalf("overdraft: got %v, want ErrConstraint", err)
	}

	// The committed writes landed in the node processes' stores.
	read := func(node int, k storage.Key) int64 {
		t.Helper()
		v, _, err := stores[node].Table(storage.TableID(tcpAccounts)).Bucket(k).Get(k)
		if err != nil {
			t.Fatalf("read node %d key %d: %v", node, k, err)
		}
		return tcpDec(v)
	}
	deadline := time.Now().Add(5 * time.Second)
	for read(0, 10) != 975 || read(1, 150) != 1025 {
		if time.Now().After(deadline) {
			t.Fatalf("balances = %d/%d, want 975/1025", read(0, 10), read(1, 150))
		}
		time.Sleep(time.Millisecond)
	}
}

// A coordinator-only client replicates like any coordinator: the
// primaries stream its write sets and the replicas ack to it, for each
// engine's way of composing the replicate wave. No node has an address
// for the client, so an ack rides a connection the client dialed: the
// replica's own, or — for a replica the client never talked to, as in
// the single-partition transfer each client starts with — the primary's.
func TestOpenTCPReplicatedCommit(t *testing.T) {
	peers, stores := startTCPTestCluster(t, 3, 2)
	balance := func(node int, k storage.Key) int64 {
		t.Helper()
		v, _, err := stores[node].Table(storage.TableID(tcpAccounts)).Bucket(k).Get(k)
		if err != nil {
			t.Fatalf("node %d key %d: %v", node, k, err)
		}
		return tcpDec(v)
	}
	for i, kind := range []EngineKind{EngineChiller, Engine2PL, EngineOCC} {
		db, err := Open(
			WithTransport(TransportTCP),
			WithPeers(peers...),
			WithReplication(2),
			WithEngine(kind),
			WithRangePartitioner(map[Table]Key{tcpAccounts: 200}),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Register(tcpTransferProc()); err != nil {
			t.Fatal(err)
		}
		// Keys 10 and 11 live on node 0 (replica: node 1), key 150 on
		// node 2 (replica: node 0).
		for _, dst := range []int64{11, 150} {
			if _, err := db.ExecuteWithRetry(context.Background(), Retry{}, "bank.transfer", 10, dst, 25); err != nil {
				t.Fatalf("%s: transfer to %d: %v", kind, dst, err)
			}
		}
		if err := db.Close(); err != nil { // drains the commit tails: every replica has acked
			t.Fatal(err)
		}
		n := int64(i + 1)
		for _, c := range []struct {
			node int
			key  storage.Key
			want int64
		}{
			{0, 10, 1000 - 50*n}, {1, 10, 1000 - 50*n},
			{0, 11, 1000 + 25*n}, {1, 11, 1000 + 25*n},
			{2, 150, 1000 + 25*n}, {0, 150, 1000 + 25*n},
		} {
			if got := balance(c.node, c.key); got != c.want {
				t.Fatalf("%s: node %d key %d = %d, want %d", kind, c.node, c.key, got, c.want)
			}
		}
	}
}

func TestOpenTCPConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"peers without tcp transport", []Option{WithPeers("127.0.0.1:1")}},
		{"listen addr without tcp transport", []Option{WithListenAddr("127.0.0.1:0")}},
		{"tcp transport without peers", []Option{WithTransport(TransportTCP)}},
		{"unknown transport", []Option{WithTransport("carrier-pigeon")}},
		{"empty peer list", []Option{WithTransport(TransportTCP), WithPeers()}},
		{"tcp with partitions", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithPartitions(3)}},
		{"tcp with latency", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithLatency(time.Millisecond)}},
		{"tcp with jitter", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithJitter(time.Millisecond)}},
		{"tcp with sampling", []Option{WithTransport(TransportTCP), WithPeers("127.0.0.1:1"), WithSampling(0.1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(tc.opts...)
			if err == nil {
				db.Close()
				t.Fatal("Open succeeded, want ErrBadConfig")
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("got %v, want ErrBadConfig", err)
			}
		})
	}
}
