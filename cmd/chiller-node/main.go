// Command chiller-node hosts one node of a multi-process Chiller
// cluster over TCP. Every process is started with the same -peers list
// (index = node ID) and its own -id; each loads exactly its share of
// the deterministic TPC-C dataset (one warehouse per node, §7.3.1) and
// then serves verbs until killed. A chiller-bench client joins with
// `-transport=tcp -peers=...` and drives the Figure 10 sweep against
// the cluster; see docs/NETWORK.md for the transport's semantics.
//
// Example 3-node cluster on localhost:
//
//	chiller-node -id 0 -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//	chiller-node -id 1 -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//	chiller-node -id 2 -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 &
//	chiller-bench -exp fig10 -transport tcp -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//
// Sizing flags (-replication, -lanes, -customers, -items) must match
// between every node and the bench client: they shape verb addressing
// and the loaded dataset and are not negotiated on the wire.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

func main() {
	var (
		id          = flag.Int("id", -1, "this node's ID (index into -peers)")
		listen      = flag.String("listen", "", "listen address (default: the -peers entry at index -id)")
		peersFlag   = flag.String("peers", "", "comma-separated addresses of every node, index = node ID")
		replication = flag.Int("replication", 2, "replication degree (1 = none); must match the bench client")
		lanes       = flag.Int("lanes", 0, "execution lanes per node (0 = derive from host CPUs); must match the bench client")
		customers   = flag.Int("customers", 300, "TPC-C customers per district; must match the bench client")
		items       = flag.Int("items", 2000, "TPC-C items per warehouse; must match the bench client")
		dataDir     = flag.String("data-dir", "", "directory for this node's write-ahead log; a restart with the same dir replays it, making acknowledged commits survive the process")
		peerTimeout = flag.Duration("peer-timeout", 30*time.Second, "how long to wait for every peer to answer a ping at startup before exiting non-zero (0 = wait forever, the pre-probe behaviour)")
		join        = flag.Bool("join", false, "join a running cluster as a new (initially empty) node instead of being a founding member; requires -id beyond the -peers list (IDs len(peers)+1 upward — len(peers) itself is conventionally the bench client) and an explicit -listen")
		joinPart    = flag.Int("join-partition", -1, "with -join: partition to take over through the incremental handoff protocol once up (-1 joins without data)")
	)
	flag.Parse()
	if err := run(*id, *listen, *peersFlag, *replication, *lanes, *customers, *items, *dataDir, *peerTimeout, *join, *joinPart); err != nil {
		fmt.Fprintln(os.Stderr, "chiller-node:", err)
		os.Exit(1)
	}
}

func run(id int, listen, peersFlag string, replication, lanes, customers, items int, dataDir string, peerTimeout time.Duration, join bool, joinPart int) (err error) {
	if peersFlag == "" {
		return fmt.Errorf("-peers is required")
	}
	peers := strings.Split(peersFlag, ",")
	if join {
		// A joiner lives outside the founding peer list: its ID must not
		// collide with a founder (0..len(peers)-1) or with the bench
		// client's conventional ID (len(peers)).
		if id <= len(peers) {
			return fmt.Errorf("-join requires -id > %d (founders are 0..%d, %d is the bench client)",
				len(peers), len(peers)-1, len(peers))
		}
		if listen == "" {
			return fmt.Errorf("-join requires an explicit -listen (the joiner has no -peers entry)")
		}
	} else {
		if joinPart >= 0 {
			return fmt.Errorf("-join-partition requires -join")
		}
		if id < 0 || id >= len(peers) {
			return fmt.Errorf("-id %d out of range for %d peers", id, len(peers))
		}
	}
	if listen == "" {
		listen = peers[id]
	}
	if replication <= 0 {
		replication = 1
	}

	nodes := len(peers)
	tcfg := tpcc.WarehousePerNode(nodes, customers, items)
	if err := tcfg.Validate(); err != nil {
		return err
	}

	fab, err := tcpnet.New(tcpnet.Config{ID: transport.NodeID(id), ListenAddr: listen})
	if err != nil {
		return fmt.Errorf("listen on %s: %w", listen, err)
	}
	defer fab.Close()
	addrs := make(map[transport.NodeID]string, nodes)
	for i, addr := range peers {
		addrs[transport.NodeID(i)] = addr
	}
	fab.SetPeers(addrs)

	topo, dir := deploy.NewDirectory(nodes, replication, lanes, tpcc.Partitioner(tcfg.Warehouses, tcfg.Partitions))
	lanes = dir.Lanes()
	reg := txn.NewRegistry()
	if err := tpcc.RegisterAll(reg); err != nil {
		return err
	}

	// A joiner primaries nothing at startup; ownership arrives through
	// the handoff protocol and is tracked by the topology, not the home
	// partition hint.
	home := cluster.PartitionID(id)
	if join {
		home = cluster.PartitionID(-1)
	}
	// A restart with the same -data-dir replays the previous incarnation's
	// snapshot+tail into the store before any peer traffic can land.
	// chiller-node clusters run without MVCC: the commit clock is
	// in-process and cannot span processes.
	node, err := deploy.NewNode(fab, home, deploy.Spec{
		Registry: reg,
		Dir:      dir,
		WALDir:   dataDir,
	})
	if err != nil {
		return err
	}
	// Close runs the deployment close order: drain, fabric, lanes, WAL.
	// Its error — a failed background snapshot's included — fails the
	// exit.
	defer func() {
		if cerr := node.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", cerr)
		}
	}()
	if node.Recovered {
		fmt.Printf("chiller-node %d: recovered durable state from %s (last lsn %d)\n",
			id, dataDir, node.WAL().LastLSN())
	}

	// The loading phase runs unconditionally — the node keeps only the
	// records it hosts, and on a recovered node it yields to replayed
	// values (strictly newer: they reflect committed transactions), so
	// restart needs no special casing by the operator.
	if err := tpcc.Load(node, tcfg); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	tpcc.MarkHot(dir, tcfg)

	// Startup barrier: every peer must answer a ping before this node
	// reports ready, so a cluster with a dead or misaddressed member
	// fails fast with a non-zero exit instead of hanging until killed.
	// All nodes probe concurrently (the ping verb is served as soon as
	// the fabric listens, before "ready"), so mutual probing converges.
	if err := probePeers(fab, nodes, id, peerTimeout); err != nil {
		return err
	}

	if join {
		// The cluster's layout may have churned since it started (earlier
		// joins, promotions); adopt the current one before asking for a
		// partition. The fetch also merges any node addresses this joiner's
		// static -peers list lacks (other joiners).
		if err := deploy.AdoptTopology(fab, topo); err != nil {
			return err
		}

		if joinPart >= 0 {
			if joinPart >= nodes {
				return fmt.Errorf("-join-partition %d out of range for %d partitions", joinPart, nodes)
			}
			// Ask the partition's current primary to run the incremental
			// handoff: it streams commits to us while backfilling, fences,
			// flushes, flips the topology, and broadcasts the new layout
			// (to us first, so we name ourselves primary before re-routed
			// traffic arrives). The call returns once we own the partition.
			pid := cluster.PartitionID(joinPart)
			req := server.EncodeHandoffReq(pid, transport.NodeID(id), fab.Addr())
			if _, err := fab.Call(topo.Primary(pid), server.VerbHandoff, req); err != nil {
				return fmt.Errorf("handoff of partition %d: %w", joinPart, err)
			}
			fmt.Printf("chiller-node %d: took partition %d via incremental handoff\n", id, joinPart)
		}
	}

	// Stdout "ready" is the startup barrier scripts wait on; the dial
	// retry in tcpnet absorbs the remaining race for peers that are
	// slower to come up.
	fmt.Printf("chiller-node %d ready on %s (%d nodes, %d warehouses, replication %d, lanes %d)\n",
		id, fab.Addr(), nodes, tcfg.Warehouses, replication, lanes)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("chiller-node %d: %v, shutting down\n", id, s)
	if node.WAL() != nil {
		// Compact the log on the way out: without this, only log-size
		// pressure ever snapshots, so a node stopped cleanly after
		// moderate traffic would replay its entire commit history on the
		// next start. Drain the engine first so the snapshots cover every
		// commit this node coordinated.
		node.Drain()
		if err := node.SnapshotAll(); err != nil {
			fmt.Fprintf(os.Stderr, "chiller-node %d: shutdown snapshot: %v\n", id, err)
		} else {
			fmt.Printf("chiller-node %d: log compacted (restart replays snapshot + empty tail)\n", id)
		}
	}
	return nil
}

// probePeers pings every other node until it answers or the deadline
// passes. The returned error wraps the transport's final failure —
// errors.Is(err, transport.ErrUnreachable) for a peer that never came
// up — so callers and scripts can tell "peer missing" from local
// misconfiguration. timeout 0 waits forever.
func probePeers(fab *tcpnet.Fabric, nodes, id int, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for peer := 0; peer < nodes; peer++ {
		if peer == id {
			continue
		}
		for {
			_, err := fab.Call(transport.NodeID(peer), server.VerbPing, nil)
			if err == nil {
				break
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				return fmt.Errorf("peer %d did not come up within %v: %w", peer, timeout, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}
