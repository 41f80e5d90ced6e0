// Package deploy is the one place a Chiller node is built, grown into a
// cluster and torn down. The public chiller.DB, the experiment harness
// (internal/bench), the black-box checker (internal/check, through
// bench) and cmd/chiller-node all assemble through it, so the code the
// checker certifies is the code users run.
//
// It has two levels. NewNode is the per-node construction sequence —
// used directly by processes that host exactly one node (chiller-node,
// and the coordinator-only TCP clients through Connect). Cluster is the
// in-process multi-node deployment over either fabric, with the
// membership operations (AddNode, MovePartition, RemoveNode) and the
// background MVCC garbage collector.
//
// Construction order (see docs/ARCHITECTURE.md "Assembly" for why each
// step sits where it does): directory lanes → store → server node →
// sampler → commit clock → WAL recover + replay → WAL attach → engine
// verbs → engines. Close order: background loops → engine drains →
// fabric → lane executors → WALs.
package deploy

import (
	"fmt"
	"path/filepath"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cc/occ"
	"github.com/chillerdb/chiller/internal/cc/twopl"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

// EngineKind selects a concurrency-control engine.
type EngineKind string

// The three engines compared throughout §7. Every node carries one of
// each; a deployment picks per transaction stream.
const (
	Engine2PL     EngineKind = "2PL"
	EngineOCC     EngineKind = "OCC"
	EngineChiller EngineKind = "Chiller"
)

// Spec is what every node of one deployment shares.
type Spec struct {
	// Registry and Dir are the deployment-wide procedure registry and
	// routing directory. Dir.SetLanes must already have been called:
	// nodes size their lane executors (and their WAL) from it.
	Registry *txn.Registry
	Dir      *cluster.Directory
	// Sampler, when non-nil, observes sampled access sets on every node.
	Sampler *stats.Sampler
	// Clock, when non-nil, is the shared MVCC commit clock; the node's
	// store keeps version chains.
	Clock *storage.Clock
	// WALDir, when non-empty, gives every node a write-ahead log under
	// WALDir/node-<id>, recovered and replayed at construction.
	WALDir    string
	WALPolicy wal.Policy
}

// Node is one assembled cluster member: the server node plus one engine
// of each kind coordinating on it.
type Node struct {
	*server.Node
	// Recovered reports that construction found durable state under the
	// node's WAL directory and replayed it into the store.
	Recovered bool

	twoPL   *twopl.Engine
	occ     *occ.Engine
	chiller *core.Engine
}

// NewNode builds a node on ep that calls partition home its own (-1 for
// a coordinator-only client or a joiner that owns nothing yet). On error
// everything it started is stopped again; ep stays the caller's.
func NewNode(ep transport.Endpoint, home cluster.PartitionID, spec Spec) (*Node, error) {
	return newNode(ep, home, spec, nil)
}

// newNode is NewNode with the tables of schema (when non-nil) created
// before WAL replay, so a joiner's recovered and handed-off records land
// in tables with the cluster's bucket counts rather than the tolerant
// replica-apply defaults.
func newNode(ep transport.Endpoint, home cluster.PartitionID, spec Spec, schema *storage.Store) (*Node, error) {
	st := storage.NewStore()
	sn := server.New(ep, st, spec.Registry, spec.Dir, home)
	n := &Node{Node: sn}
	if spec.Sampler != nil {
		sn.SetSampler(spec.Sampler)
	}
	// Clock before replay: SetClock flips the store to versioned records,
	// so replay rebuilds version chains at their logged commit timestamps.
	sn.SetClock(spec.Clock)
	if schema != nil {
		for _, tid := range schema.Tables() {
			if tbl := schema.Table(tid); tbl != nil {
				st.CreateTable(tid, tbl.NumBuckets())
			}
		}
	}
	if spec.WALDir != "" {
		// Recover-then-attach before the engine verbs register: whatever a
		// previous incarnation logged is back in the store before the
		// first transaction message can be served.
		dir := filepath.Join(spec.WALDir, fmt.Sprintf("node-%d", ep.ID()))
		l, rec, err := wal.Recover(dir, spec.Dir.Lanes(), spec.WALPolicy)
		if err == nil && !rec.Empty() {
			n.Recovered = true
			var maxTS uint64
			if maxTS, err = server.RecoverStore(st, rec); err != nil {
				l.Close()
			} else if spec.Clock != nil {
				// Future commits must stamp past everything replay installed.
				spec.Clock.AdvanceTo(maxTS)
			}
		}
		if err != nil {
			sn.Close()
			return nil, fmt.Errorf("deploy: durability for node %d: %w", ep.ID(), err)
		}
		sn.SetWAL(l)
	}
	n.twoPL = twopl.New(sn)
	n.occ = occ.New(sn)
	// Every node needs a Chiller engine whichever kind its clients use:
	// core.New registers the transaction-placement verb peers route to.
	n.chiller = core.New(sn)
	return n, nil
}

// Engine returns the node's engine of the given kind (nil if unknown).
func (n *Node) Engine(kind EngineKind) cc.Engine {
	switch kind {
	case Engine2PL:
		return n.twoPL
	case EngineOCC:
		return n.occ
	case EngineChiller:
		return n.chiller
	}
	return nil
}

// Drain joins the background commit tails of transactions this node
// coordinated (only the Chiller engine completes commits asynchronously).
func (n *Node) Drain() { n.chiller.Drain() }

// closeFabric closes the node's endpoint when it is a TCP fabric: a
// fabric serves exactly one node, so its lifetime is the node's. Simfab
// endpoints belong to their Network, which the Cluster closes.
func (n *Node) closeFabric() {
	if f, ok := n.Endpoint().(*tcpnet.Fabric); ok {
		f.Close()
	}
}

func (n *Node) closeWAL() error {
	if l := n.WAL(); l != nil {
		return l.Close()
	}
	return nil
}

// Close tears a single node down in the deployment close order: drain
// the engines, stop the fabric (a closed fabric delivers no new lane
// work), stop the lane executors, and only then release the WAL, so
// every record a lane logged is flushed first. Members of a Cluster are
// closed by Cluster.Close instead.
func (n *Node) Close() error {
	n.Drain()
	n.closeFabric()
	n.Node.Close()
	return n.closeWAL()
}

// CreateTable creates a table in the node's store.
func (n *Node) CreateTable(id storage.TableID, buckets int) {
	n.Store().CreateTable(id, buckets)
}

// LoadRecord inserts the record if this node is primary or replica of
// its partition and silently skips it otherwise, so every process of a
// multi-process cluster can run the same deterministic loader and keep
// exactly its share. With CreateTable it implements the workload Loader
// interfaces. Recovered nodes keep replayed values (see load).
func (n *Node) LoadRecord(table storage.TableID, key storage.Key, value []byte) error {
	if !n.HoldsPartition(n.Directory().Partition(storage.RID{Table: table, Key: key})) {
		return nil
	}
	return n.load(table, key, value, n.Recovered)
}

// load is the one record loader. The store copies value into fresh
// storage, so the caller's buffer may be reused. When yield is set (the
// deployment recovered durable state) a key the store already holds
// keeps its value: replayed state reflects committed transactions and
// is strictly newer than initial data, so restart code can rerun its
// loading phase unconditionally. The check stays off the fresh-load
// path.
func (n *Node) load(table storage.TableID, key storage.Key, value []byte, yield bool) error {
	tbl := n.Store().Table(table)
	if tbl == nil {
		return fmt.Errorf("deploy: table %d missing on node %d (CreateTable first)", table, n.ID())
	}
	b := tbl.Bucket(key)
	if yield {
		if _, _, err := b.Get(key); err == nil {
			return nil
		}
	}
	if err := b.Insert(key, value); err != nil {
		return fmt.Errorf("deploy: load %d/%d on node %d: %w", table, key, n.ID(), err)
	}
	return nil
}

// NewDirectory builds the topology and routing directory every assembly
// starts from (lanes <= 0 takes the host default). Lanes are set here,
// before any node exists: nodes size their lane executors from the
// directory at construction.
func NewDirectory(partitions, replication, lanes int, def cluster.DefaultPartitioner) (*cluster.Topology, *cluster.Directory) {
	if lanes <= 0 {
		lanes = cluster.DefaultLanes()
	}
	topo := cluster.NewTopology(partitions, replication)
	dir := cluster.NewDirectory(topo, def)
	dir.SetLanes(lanes)
	return topo, dir
}
