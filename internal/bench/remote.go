package bench

import (
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// Figure10Remote reproduces the Figure 10 sweep (NewOrder+Payment
// 50/50, transaction-level remote probability 0..100%) against a live
// chiller-node cluster over TCP, as a deploy.Client: a coordinator that
// owns no data, so every lock, commit and replication verb crosses a
// real socket and its per-verb latencies are client-observed round
// trips. Its view of the cluster — peer order, replication degree, lane
// count, the TPC-C sizing — must match what the nodes were started with;
// these shape verb addressing and are not negotiated on the wire.
//
// Unlike the simulated Figure10 it cannot rebuild the cluster per
// measurement point — the nodes were loaded once at startup — so the
// sweep varies only the workload generator's remote probability and the
// series share the evolving database state, as successive runs against
// a real deployment would. Every client shares the one client-side
// engine (one coordinator process, where the simulated cluster has one
// engine per node).
func Figure10Remote(opt Options, peers []string) (*Figure, error) {
	base := tpcc.WarehousePerNode(len(peers), opt.Customers, opt.Items)
	client, err := deploy.Connect(deploy.ClientConfig{
		Peers:       peers,
		Replication: opt.Replication,
		Lanes:       opt.laneCount(),
	}, tpcc.Partitioner(base.Warehouses, base.Partitions))
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if err := tpcc.RegisterAll(client.Registry); err != nil {
		return nil, err
	}
	tpcc.MarkHot(client.Dir, base)
	// Adopt the cluster's current layout and follow it for the sweep's
	// duration: the CI churn job live-adds a node mid-sweep, and the
	// client must route to whoever primaries each partition now. Nodes
	// cannot push a layout to the client (it has no dialable address), so
	// it polls; a failed poll (a node mid-restart) keeps the previous
	// layout, and a moved-abort retries against the next one.
	if err := deploy.AdoptTopology(client.Fabric, client.Topo); err != nil {
		return nil, err
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = deploy.AdoptTopology(client.Fabric, client.Topo)
			}
		}
	}()
	defer func() { close(stop); <-polled }()

	nodes := client.Nodes()
	run := func(w Workload, cfg RunConfig) *Metrics {
		engine := client.Node.Engine(cfg.Engine)
		return runClients(len(peers), client.Dir.Lanes(), func(int) cc.Engine { return engine },
			func() { resetVerbMetrics(nodes) }, client.Node.Drain,
			func() map[string]*VerbProfile { return verbProfiles(nodes) }, w, cfg)
	}
	fig := opt.figure("Figure 10 (tcp)", "Impact of distributed transactions (NewOrder+Payment 50/50, TCP cluster)", "% distributed txns")
	fig.Transport = TransportTCP
	for _, pct := range span(0, 100, 20) {
		w, err := tpcc.NewWorkload(newOrderPayment(base, pct))
		if err != nil {
			return nil, err
		}
		for _, p := range grid([]float64{pct}, fig10Series...) {
			fig.record(p, opt.measure(run, w, p))
		}
	}
	return fig, nil
}
