// Package bench is the experiment harness: it assembles simulated
// clusters, loads workloads, drives closed-loop clients, and prints the
// rows and series of every table and figure in the paper's evaluation
// (§7). See README.md for the experiment index.
package bench

import (
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/wal"
)

// The harness assembles through internal/deploy — the same code behind
// chiller.Open and DB.AddNode/MovePartition/RemoveNode — so every figure
// and every checker cell runs what users run. The names below keep the
// harness vocabulary (and the benchmark seam, benchmark/README.md)
// stable over it.
type (
	// EngineKind selects a concurrency-control engine.
	EngineKind = deploy.EngineKind
	// ClusterConfig sizes a cluster (see deploy.Config for the fields).
	ClusterConfig = deploy.Config
)

// The three engines compared throughout §7.
const (
	Engine2PL     = deploy.Engine2PL
	EngineOCC     = deploy.EngineOCC
	EngineChiller = deploy.EngineChiller
)

// Transport kinds a cluster can be assembled over.
const (
	TransportSim = deploy.TransportSim
	TransportTCP = deploy.TransportTCP
)

// Cluster is a deploy.Cluster plus what only a harness needs: a plain
// node slice, per-verb profiles, and the bank helpers. Crashes and
// restarts are the deployment's own: Faults.Partition/Heal cut a node
// from every other and revive its links, and Reopen restarts it through
// deploy's construction.
type Cluster struct {
	*deploy.Cluster
	// Nodes mirrors the deployment's node list (node ID == index) as of
	// construction or the last AddNode or Reopen. It is a plain slice because tests
	// and the benchmark index it; harness code that can race a membership
	// change reads the embedded Cluster's Nodes() instead.
	Nodes []*server.Node
}

// NewCluster builds a cluster with the given default partitioner,
// panicking if it cannot (harness callers have no recovery path). A
// zero Latency takes the harness default of 5µs: the paper's InfiniBand
// EDR testbed sits around 1-2µs, and 5µs keeps the network/memory ratio
// honest while tolerating OS timer slop.
func NewCluster(cfg ClusterConfig, def cluster.DefaultPartitioner) *Cluster {
	if cfg.Latency == 0 {
		cfg.Latency = 5 * time.Microsecond
	}
	dc, err := deploy.NewCluster(cfg, def)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	c := &Cluster{Cluster: dc}
	c.syncNodes()
	return c
}

func (c *Cluster) syncNodes() {
	nodes := c.Cluster.Nodes()
	mirror := make([]*server.Node, len(nodes))
	for i, n := range nodes {
		mirror[i] = n.Node
	}
	c.Nodes = mirror
}

// AddNode grows the cluster by one node (deploy.Cluster.AddNode) and
// refreshes the Nodes mirror.
func (c *Cluster) AddNode() (int, error) {
	id, err := c.Cluster.AddNode()
	if err == nil {
		c.syncNodes()
	}
	return id, err
}

// Reopen restarts node i in place (deploy.Cluster.Reopen) and refreshes
// the Nodes mirror.
func (c *Cluster) Reopen(i int) (*deploy.Node, error) {
	n, err := c.Cluster.Reopen(i)
	if err == nil {
		c.syncNodes()
	}
	return n, err
}

// ResetVerbMetrics zeroes every node's per-verb counters (called at the
// warmup/measurement boundary so percentiles cover only the counted
// window).
func (c *Cluster) ResetVerbMetrics() { resetVerbMetrics(c.Cluster.Nodes()) }

// VerbProfiles aggregates every node's per-verb metrics into one profile
// per verb kind (see verbProfiles).
func (c *Cluster) VerbProfiles() map[string]*VerbProfile { return verbProfiles(c.Cluster.Nodes()) }

func resetVerbMetrics(nodes []*deploy.Node) {
	for _, n := range nodes {
		n.VerbMetrics().Reset()
	}
}

// verbProfiles merges the nodes' per-verb metrics into one profile per
// verb kind: summed counts, merged latency histograms, and the
// p50/p95/p99 extracted from the merge. nil when nothing was observed.
func verbProfiles(nodes []*deploy.Node) map[string]*VerbProfile {
	out := make(map[string]*VerbProfile)
	for _, n := range nodes {
		for kind, snap := range n.VerbMetrics().Snapshot() {
			p := out[kind]
			if p == nil {
				p = &VerbProfile{hist: &stats.LatencyHist{}}
				out[kind] = p
			}
			p.Count += snap.Count
			snap.Hist.AddTo(p.hist)
		}
	}
	for _, p := range out {
		p.refresh()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Close tears the cluster down (deploy.Cluster.Close; a WAL close error
// is of no use to a harness that is done with the run).
func (c *Cluster) Close() { _ = c.Cluster.Close() }

// WAL returns node i's write-ahead log, or nil when the cluster runs
// volatile.
func (c *Cluster) WAL(i int) *wal.Log { return c.Cluster.Nodes()[i].WAL() }
