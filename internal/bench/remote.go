package bench

import (
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// ConnectConfig joins an already-running chiller-node cluster as a
// benchmarking client. The client is a full coordinator: it owns no
// partition, but it runs engines locally and issues every verb over the
// TCP fabric, so its view of the cluster (peer order, replication
// degree, lane count, partitioning) must match what the nodes were
// started with — these values shape verb addressing and are not
// negotiated on the wire.
type ConnectConfig struct {
	// Peers lists every node's address; index i is node i. The client
	// itself takes node ID len(Peers), outside the data topology.
	Peers []string
	// Replication must equal the cluster's replication degree: the
	// coordinator drives replication fan-outs itself, and a client that
	// believes Replicas(pid) is empty silently skips them.
	Replication int
	// Lanes must equal the nodes' per-lane executor count (0 = host
	// default, fine when client and nodes share a machine): verbs carry
	// lane assignments computed from the client's directory.
	Lanes int
}

// RemoteClient coordinates transactions against a cluster of
// chiller-node processes over TCP. It mirrors Cluster's benchmarking
// surface (Run with the same RunConfig, per-verb profiles) over a
// deploy.Client, which owns no data: every lock, commit, and replication
// verb crosses a real socket, so its per-verb latencies are
// client-observed round trips.
type RemoteClient struct {
	*deploy.Client
	Cfg ConnectConfig

	partitions int
}

// Connect builds the client-side coordinator for a cluster of
// len(cfg.Peers) chiller-node processes (deploy.Connect: nothing is
// dialed until the first verb). Register procedures on Registry (and
// install any hot-record directory entries) before running transactions.
func Connect(cfg ConnectConfig, def cluster.DefaultPartitioner) (*RemoteClient, error) {
	dc, err := deploy.Connect(deploy.ClientConfig{
		Peers:       cfg.Peers,
		Replication: cfg.Replication,
		Lanes:       cfg.Lanes,
	}, def)
	if err != nil {
		return nil, err
	}
	cfg.Lanes = dc.Dir.Lanes()
	return &RemoteClient{Client: dc, Cfg: cfg, partitions: len(cfg.Peers)}, nil
}

// Engine returns the client-side engine of the given kind.
func (rc *RemoteClient) Engine(kind EngineKind) cc.Engine {
	return rc.Node.Engine(kind)
}

// RefreshTopology adopts the cluster's current layout and address book
// (deploy.AdoptTopology). Nodes cannot push layout changes to the client
// — they have no dialable address for it — so a client that must survive
// membership churn polls (see WatchTopology).
func (rc *RemoteClient) RefreshTopology() error {
	return deploy.AdoptTopology(rc.Fabric, rc.Topo)
}

// WatchTopology polls RefreshTopology every interval (default 100ms)
// until the returned stop func is called, so the client follows live
// node joins and partition handoffs: a transaction aborted with the
// moved reason retries against the refreshed layout. Safe to call once
// per client; errors (a node mid-restart) leave the previous layout in
// place and are retried next tick.
func (rc *RemoteClient) WatchTopology(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_ = rc.RefreshTopology()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Close drains in-flight work and tears the client down. The remote
// nodes keep running.
func (rc *RemoteClient) Close() { _ = rc.Client.Close() }

// ResetVerbMetrics zeroes the client's per-verb counters.
func (rc *RemoteClient) ResetVerbMetrics() { resetVerbMetrics(rc.Nodes()) }

// VerbProfiles summarizes the client node's per-verb metrics — unlike
// Cluster.VerbProfiles there is exactly one observing node, so every
// latency is a client-side round trip over the kernel's loopback (or
// real) network.
func (rc *RemoteClient) VerbProfiles() map[string]*VerbProfile { return verbProfiles(rc.Nodes()) }

// Run drives the workload against the remote cluster with Cluster.Run's
// client structure — Concurrency clients per partition, closed-loop by
// default or cfg.Outstanding in flight per client — except that every
// client shares the single client-side engine (there is one coordinator
// process, as opposed to the simulated cluster's one engine per node).
func (rc *RemoteClient) Run(w Workload, cfg RunConfig) *Metrics {
	engine := rc.Engine(cfg.Engine)
	engineFor := func(int) cc.Engine { return engine }
	return runClients(rc.partitions, rc.Cfg.Lanes, engineFor, rc.ResetVerbMetrics, rc.Node.Drain, rc.VerbProfiles, w, cfg)
}

// RemoteTPCCConfig is the TPC-C shape a chiller-node cluster of n nodes
// loads and a remote client sweeps: one warehouse per node (= per
// partition, §7.3.1's one-warehouse-per-engine deployment), sized by
// the same -customers/-items knobs on both sides. Node processes and
// the bench client both derive their config through this function so
// the two sides agree by construction.
func RemoteTPCCConfig(nodes, customers, items int) tpcc.Config {
	return tpcc.Config{
		Warehouses:           nodes,
		Partitions:           nodes,
		CustomersPerDistrict: customers,
		Items:                items,
	}.Defaults()
}

// Figure10Remote reproduces the Figure 10 sweep (NewOrder+Payment
// 50/50, transaction-level remote probability 0..100%) against a live
// chiller-node cluster over TCP. Unlike the simulated Figure10 it
// cannot rebuild the cluster per measurement point — the nodes were
// loaded once at startup — so the sweep varies only the workload
// generator's remote probability and the series share the evolving
// database state, as successive runs against a real deployment would.
func Figure10Remote(opt Options, peers []string) (*Figure, error) {
	tcfg := RemoteTPCCConfig(len(peers), opt.Customers, opt.Items)
	tcfg.NewOrderPct, tcfg.PaymentPct = 50, 50
	tcfg.OrderStatusPct, tcfg.DeliveryPct, tcfg.StockLevelPct = 0, 0, 0
	tcfg.TxnLevelRemote = true
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}

	rc, err := Connect(ConnectConfig{
		Peers:       peers,
		Replication: opt.Replication,
		Lanes:       opt.laneCount(),
	}, tpcc.Partitioner(tcfg.Warehouses, tcfg.Partitions))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	if err := tpcc.RegisterAll(rc.Registry); err != nil {
		return nil, err
	}
	tpcc.MarkHot(rc.Dir, tcfg)
	// Adopt the cluster's current layout and follow it for the sweep's
	// duration: the CI churn job live-adds a node mid-sweep, and the
	// client must route to whoever primaries each partition now.
	if err := rc.RefreshTopology(); err != nil {
		return nil, err
	}
	defer rc.WatchTopology(100 * time.Millisecond)()

	fig := &Figure{
		Name:      "Figure 10 (tcp)",
		Title:     "Impact of distributed transactions (NewOrder+Payment 50/50, TCP cluster)",
		XLabel:    "% distributed txns",
		YLabel:    "txns/sec",
		Transport: TransportTCP,
		Lanes:     opt.laneCount(),
	}
	type variant struct {
		kind EngineKind
		conc int
	}
	variants := []variant{
		{Engine2PL, 1}, {EngineOCC, 1},
		{Engine2PL, 5}, {EngineOCC, 5},
		{EngineChiller, 5},
	}
	for pct := 0; pct <= 100; pct += 20 {
		cfg := tcfg
		cfg.TxnRemoteProb = float64(pct) / 100
		w, err := tpcc.NewWorkload(cfg)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			m := rc.Run(w, RunConfig{
				Engine:         v.kind,
				Concurrency:    v.conc,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
			label := fmt.Sprintf("%s (%d txn)", v.kind, v.conc)
			fig.Add(label, float64(pct), m.Throughput())
			fig.AddAborts(label, m)
			fig.AddVerbs(label, m)
		}
	}
	return fig, nil
}
