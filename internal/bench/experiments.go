package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/partition"
	"github.com/chillerdb/chiller/internal/partition/chillerpart"
	"github.com/chillerdb/chiller/internal/partition/schism"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/wal"
	"github.com/chillerdb/chiller/internal/workload/instacart"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// Options sizes the experiment sweeps. DefaultOptions returns values
// small enough for CI; cmd/chiller-bench scales them up.
type Options struct {
	// Duration is the measurement window per data point.
	Duration time.Duration
	// Latency is the simulated one-way network latency.
	Latency time.Duration
	// Replication degree (the paper uses 2).
	Replication int
	// Seed for reproducibility.
	Seed int64
	// Lanes is the number of execution lanes per node (0 = host-derived
	// default, see DefaultLanes). Figure 9a's lane sweep varies this.
	Lanes int

	// Instacart experiments (Figures 7, 8, lookup table).
	Products      int // catalogue size
	TraceTxns     int // partitioner input trace size
	MaxPartitions int // sweep 2..MaxPartitions
	Concurrency   int // clients per partition

	// TPC-C experiments (Figures 9, 10).
	Warehouses     int
	Customers      int
	Items          int
	MaxConcurrency int // Figure 9 sweeps 1..MaxConcurrency

	// FsyncPolicies selects the WAL durability variants the fsync sweep
	// (Figure10Fsync) compares, from FsyncNone, FsyncNoSync, FsyncSync.
	// Empty runs all three.
	FsyncPolicies []string

	// walDir/walPolicy attach a write-ahead log to clusters built by
	// SetupTPCC. Internal: Figure10Fsync sets them per measurement.
	walDir    string
	walPolicy wal.Policy
}

// DefaultOptions returns a configuration that completes each figure in
// seconds on a laptop while preserving the paper's qualitative shapes.
func DefaultOptions() Options {
	return Options{
		Duration:       300 * time.Millisecond,
		Latency:        5 * time.Microsecond,
		Replication:    2,
		Seed:           42,
		Products:       5000,
		TraceTxns:      1500,
		MaxPartitions:  8,
		Concurrency:    4,
		Warehouses:     8,
		Customers:      100,
		Items:          1000,
		MaxConcurrency: 8,
	}
}

// Scheme names for the partitioning comparison.
const (
	SchemeHash    = "Hashing"
	SchemeSchism  = "Schism"
	SchemeChiller = "Chiller"
)

// InstacartDeployment is a cluster prepared for one partitioning scheme.
type InstacartDeployment struct {
	Cluster *Cluster
	W       *instacart.Workload
	Layout  *partition.Layout
	Agg     *stats.Aggregate
	Engine  EngineKind
	Scheme  string
}

// SetupInstacart builds an Instacart cluster under the named scheme:
// Hashing (default layout, 2PL), Schism (min-distributed-txn layout,
// 2PL), or Chiller (contention-centric layout + two-region execution).
func SetupInstacart(scheme string, partitions int, opt Options) (*InstacartDeployment, error) {
	icfg := instacart.Config{
		Products:   opt.Products,
		Partitions: partitions,
		Seed:       opt.Seed,
	}.Defaults()
	w := instacart.NewWorkload(icfg)
	rng := rand.New(rand.NewSource(opt.Seed + int64(partitions)))
	// Calibrate the lock window so a record's λ approximates its
	// expected number of concurrent holders: trace-share × concurrent
	// clients. Only the true head (shares above a few percent) crosses
	// the hot threshold then, as in the paper's lookup-table discussion.
	lockWindows := float64(opt.TraceTxns) / float64(partitions*opt.Concurrency)
	agg := w.BuildAggregate(opt.TraceTxns, rng, lockWindows)

	dep := &InstacartDeployment{W: w, Agg: agg, Scheme: scheme}
	var layout *partition.Layout
	switch scheme {
	case SchemeHash:
		dep.Engine = Engine2PL
	case SchemeSchism:
		l, err := schism.Partition(agg.Txns(), schism.Config{K: partitions, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		layout, dep.Engine = l, Engine2PL
	case SchemeChiller:
		res, err := chillerpart.Partition(agg, chillerpart.Config{
			K: partitions, Lanes: opt.laneCount(), Seed: opt.Seed, HotThreshold: 0.05,
		})
		if err != nil {
			return nil, err
		}
		layout, dep.Engine = res.Layout, EngineChiller
	default:
		return nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	dep.Layout = layout

	c := NewCluster(ClusterConfig{
		Partitions:  partitions,
		Replication: opt.Replication,
		Latency:     opt.Latency,
		Seed:        opt.Seed,
		Lanes:       opt.laneCount(),
	}, instacart.DefaultPartitioner(partitions))
	if layout != nil {
		layout.Install(c.Dir)
	}
	if err := instacart.RegisterAll(c.Registry); err != nil {
		c.Close()
		return nil, err
	}
	if err := instacart.Load(c, icfg); err != nil {
		c.Close()
		return nil, err
	}
	dep.Cluster = c
	return dep, nil
}

// Figure7 reproduces the partitioning-scheme throughput comparison:
// Instacart NewOrder baskets, 2..MaxPartitions partitions, one series per
// scheme. The paper's shape: Schism ≈ +50% over Hashing but neither
// scales; Chiller scales near-linearly.
func Figure7(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Figure 7",
		Title:  "Throughput of partitioning schemes (Instacart baskets)",
		XLabel: "partitions",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
	}
	for parts := 2; parts <= opt.MaxPartitions; parts++ {
		for _, scheme := range []string{SchemeHash, SchemeSchism, SchemeChiller} {
			dep, err := SetupInstacart(scheme, parts, opt)
			if err != nil {
				return nil, err
			}
			m := dep.Cluster.Run(dep.W, RunConfig{
				Engine:         dep.Engine,
				Concurrency:    opt.Concurrency,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
			dep.Cluster.Close()
			fig.Add(scheme, float64(parts), m.Throughput())
			fig.AddAborts(scheme, m)
			fig.AddVerbs(scheme, m)
		}
	}
	return fig, nil
}

// Figure8 reproduces the distributed-transaction-ratio comparison over
// the same sweep, evaluated on the workload trace (as the paper does):
// Schism lowest, Chiller higher (≈60% more at 2 partitions, narrowing).
func Figure8(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Figure 8",
		Title:  "Ratio of distributed transactions",
		XLabel: "partitions",
		YLabel: "ratio",
	}
	for parts := 2; parts <= opt.MaxPartitions; parts++ {
		for _, scheme := range []string{SchemeHash, SchemeSchism, SchemeChiller} {
			dep, err := SetupInstacart(scheme, parts, opt)
			if err != nil {
				return nil, err
			}
			router := partition.RouterFor(dep.Layout, instacart.DefaultPartitioner(parts))
			ratio := partition.DistributedRatio(dep.Agg.Txns(), router)
			dep.Cluster.Close()
			fig.Add(scheme, float64(parts), ratio)
		}
	}
	return fig, nil
}

// LookupTableSizes reproduces the §7.2.2 metadata comparison: routing
// entries needed by Schism (every record in the trace) versus Chiller
// (hot records only), per partition count.
func LookupTableSizes(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "§7.2.2",
		Title:  "Lookup table size (routing entries)",
		XLabel: "partitions",
		YLabel: "entries",
	}
	for parts := 2; parts <= opt.MaxPartitions; parts += 2 {
		for _, scheme := range []string{SchemeSchism, SchemeChiller} {
			dep, err := SetupInstacart(scheme, parts, opt)
			if err != nil {
				return nil, err
			}
			fig.Add(scheme, float64(parts), float64(dep.Layout.LookupTableSize()))
			dep.Cluster.Close()
		}
	}
	return fig, nil
}

// TPCCDeployment is a cluster loaded with TPC-C.
type TPCCDeployment struct {
	Cluster *Cluster
	W       *tpcc.Workload
	Cfg     tpcc.Config
}

// SetupTPCC builds a warehouse-partitioned TPC-C cluster (the layout is
// identical for every engine, per §7.3.1).
func SetupTPCC(opt Options, cfg tpcc.Config) (*TPCCDeployment, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := NewCluster(ClusterConfig{
		Partitions:  cfg.Partitions,
		Replication: opt.Replication,
		Latency:     opt.Latency,
		Seed:        opt.Seed,
		Lanes:       opt.laneCount(),
		WALDir:      opt.walDir,
		WALPolicy:   opt.walPolicy,
	}, tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
	if err := tpcc.RegisterAll(c.Registry); err != nil {
		c.Close()
		return nil, err
	}
	if err := tpcc.Load(c, cfg); err != nil {
		c.Close()
		return nil, err
	}
	tpcc.MarkHot(c.Dir, cfg)
	w, err := tpcc.NewWorkload(cfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &TPCCDeployment{Cluster: c, W: w, Cfg: cfg}, nil
}

// laneCount resolves the per-node lane count (0 = host default).
func (o Options) laneCount() int {
	if o.Lanes > 0 {
		return o.Lanes
	}
	return cluster.DefaultLanes()
}

func (o Options) tpccConfig() tpcc.Config {
	return tpcc.Config{
		Warehouses:           o.Warehouses,
		Partitions:           o.Warehouses, // one warehouse per engine, as in §7.3.1
		CustomersPerDistrict: o.Customers,
		Items:                o.Items,
	}.Defaults()
}

// Figure9 reproduces the concurrency sweep on the full TPC-C mix:
// throughput (9a), abort rate (9b) for 2PL/OCC/Chiller, and the 2PL
// per-procedure abort breakdown (9c), as three figures.
func Figure9(opt Options) (thr, abr, breakdown *Figure, err error) {
	thr = &Figure{Name: "Figure 9a", Title: "TPC-C throughput", XLabel: "concurrent txns/warehouse", YLabel: "txns/sec", Lanes: opt.laneCount()}
	abr = &Figure{Name: "Figure 9b", Title: "TPC-C abort rate", XLabel: "concurrent txns/warehouse", YLabel: "abort rate", Lanes: opt.laneCount()}
	breakdown = &Figure{Name: "Figure 9c", Title: "2PL abort rate by transaction type", XLabel: "concurrent txns/warehouse", YLabel: "abort rate", Lanes: opt.laneCount()}

	for conc := 1; conc <= opt.MaxConcurrency; conc++ {
		for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
			dep, derr := SetupTPCC(opt, opt.tpccConfig())
			if derr != nil {
				return nil, nil, nil, derr
			}
			m := dep.Cluster.Run(dep.W, RunConfig{
				Engine:         kind,
				Concurrency:    conc,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
			dep.Cluster.Close()
			thr.Add(string(kind), float64(conc), m.Throughput())
			abr.Add(string(kind), float64(conc), m.AbortRate())
			abr.AddAborts(string(kind), m)
			thr.AddVerbs(string(kind), m)
			if kind == Engine2PL {
				breakdown.Add("New-order", float64(conc), newOrderAbortRate(m))
				breakdown.Add("Payment", float64(conc), m.ProcAbortRate(tpcc.ProcPayment))
				breakdown.Add("Stock-level", float64(conc), m.ProcAbortRate(tpcc.ProcStockLevel))
			}
		}
	}
	return thr, abr, breakdown, nil
}

// Figure9Lanes extends Figure 9a with the intra-node scale-out sweep:
// the multi-warehouse TPC-C mix at a fixed client count, per-node lane
// count swept from 1 up to max(4, Options.Lanes) — so `-lanes 8` on an
// 8-core host extends the sweep to 8. With one lane every node is the
// paper's single-threaded engine and per-node throughput is capped by
// it; each added lane is another single-threaded engine over a stable
// shard of the key space, so Chiller's throughput rises with the lane
// count until the host runs out of cores. 2PL is included as the
// contrast series: it never enters an inner region, so lanes buy it
// only parallel replica applies.
func Figure9Lanes(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Figure 9a (lanes)",
		Title:  "TPC-C throughput vs execution lanes per node",
		XLabel: "lanes per node",
		YLabel: "txns/sec",
	}
	top := 4
	if opt.Lanes > top {
		top = opt.Lanes
	}
	for lanes := 1; lanes <= top; lanes++ {
		lopt := opt
		lopt.Lanes = lanes
		for _, kind := range []EngineKind{Engine2PL, EngineChiller} {
			dep, err := SetupTPCC(lopt, lopt.tpccConfig())
			if err != nil {
				return nil, err
			}
			m := dep.Cluster.Run(dep.W, RunConfig{
				Engine:         kind,
				Concurrency:    opt.MaxConcurrency,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
			dep.Cluster.Close()
			fig.Add(string(kind), float64(lanes), m.Throughput())
			fig.AddAborts(string(kind), m)
			fig.AddVerbs(string(kind), m)
		}
	}
	return fig, nil
}

// newOrderAbortRate aggregates the per-cart-size NewOrder variants.
func newOrderAbortRate(m *Metrics) float64 {
	var committed, aborted uint64
	for n := tpcc.MinOrderLines; n <= tpcc.MaxOrderLines; n++ {
		if pm := m.ByProc[tpcc.NewOrderProc(n)]; pm != nil {
			committed += pm.Committed
			aborted += pm.Aborted
		}
	}
	if committed+aborted == 0 {
		return 0
	}
	return float64(aborted) / float64(committed+aborted)
}

// Figure10 reproduces the distributed-transaction sweep: NewOrder and
// Payment 50/50, transaction-level remote probability 0..100%, with
// 2PL(1), 2PL(5), OCC(1), OCC(5) and Chiller(5) series. The paper's
// shape: Chiller degrades < 20%; the others fall steeply.
func Figure10(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Figure 10",
		Title:  "Impact of distributed transactions (NewOrder+Payment 50/50)",
		XLabel: "% distributed txns",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
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
		cfg := opt.tpccConfig()
		cfg.NewOrderPct, cfg.PaymentPct = 50, 50
		cfg.OrderStatusPct, cfg.DeliveryPct, cfg.StockLevelPct = 0, 0, 0
		cfg.TxnLevelRemote = true
		cfg.TxnRemoteProb = float64(pct) / 100
		for _, v := range variants {
			dep, err := SetupTPCC(opt, cfg)
			if err != nil {
				return nil, err
			}
			m := dep.Cluster.Run(dep.W, RunConfig{
				Engine:         v.kind,
				Concurrency:    v.conc,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
			dep.Cluster.Close()
			label := fmt.Sprintf("%s (%d txn)", v.kind, v.conc)
			fig.Add(label, float64(pct), m.Throughput())
			fig.AddAborts(label, m)
			fig.AddVerbs(label, m)
		}
	}
	return fig, nil
}

// Figure7ReadHeavy is the MVCC companion sweep: a read-heavy bank
// workload (85% three-account read-only audits, 15% contended
// transfers) on the Chiller engine, open-loop window swept on the X
// axis, with the audits executed both ways — on the locking path
// ("locking reads") and as ReadOnly snapshot transactions on an MVCC
// cluster ("MVCC snapshot reads"). The expected shape: the snapshot
// series pulls away as the window widens (snapshot reads take no locks,
// never abort, and resolve replica-locally with zero verbs, so they
// neither queue behind writers nor pay network round trips), while the
// locking series is capped by lock conflicts against the transfer
// traffic on the celebrity accounts. The per-series abort and verb
// profiles in the figure JSON carry the evidence: the snapshot series
// shows no read aborts and no lock-read verbs for the audits.
func Figure7ReadHeavy(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Figure 7 (read-heavy)",
		Title:  "Read-heavy throughput: MVCC snapshot reads vs locking reads",
		XLabel: "outstanding txns per client",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
	}
	for _, outstanding := range []int{1, 2, 4, 8} {
		for _, mvcc := range []bool{false, true} {
			m, err := runReadHeavy(opt, 4, outstanding, mvcc)
			if err != nil {
				return nil, err
			}
			label := "locking reads"
			if mvcc {
				label = "MVCC snapshot reads"
			}
			fig.Add(label, float64(outstanding), m.Throughput())
			fig.AddAborts(label, m)
			fig.AddVerbs(label, m)
		}
	}
	return fig, nil
}

// runReadHeavy runs one read-heavy bank measurement; mvcc selects both
// the cluster's versioned stores and the ReadOnly audit variant.
func runReadHeavy(opt Options, parts, outstanding int, mvcc bool) (*Metrics, error) {
	const accounts = 400
	b := &Bank{
		AccountsPerPartition: accounts,
		HotProb:              0.6,
		RemoteProb:           0.5,
		ReadOnlyProb:         0.85,
		SnapshotReads:        mvcc,
	}
	def := cluster.RangePartitioner{
		N:      parts,
		MaxKey: map[storage.TableID]storage.Key{BankTable: storage.Key(parts * accounts)},
	}
	c := NewCluster(ClusterConfig{
		Partitions:  parts,
		Replication: opt.Replication,
		Latency:     opt.Latency,
		Seed:        opt.Seed,
		Lanes:       opt.laneCount(),
		MVCC:        mvcc,
	}, def)
	if err := SetupBank(c, b, true); err != nil {
		c.Close()
		return nil, err
	}
	b.MarkCelebritiesHot(c)
	m := c.Run(b, RunConfig{
		Engine:         EngineChiller,
		Concurrency:    opt.Concurrency,
		Duration:       opt.Duration,
		Retry:          true,
		WarmupFraction: 0.25,
		Seed:           opt.Seed,
		Outstanding:    outstanding,
	})
	c.Close()
	return m, nil
}

// Fsync policy names for the Figure 10 durability sweep.
const (
	// FsyncNone runs without a WAL — the pre-durability baseline.
	FsyncNone = "none"
	// FsyncNoSync logs every commit with group-committed writes but
	// skips the fsync syscall (survives process death, not power loss).
	FsyncNoSync = "nosync"
	// FsyncSync is the full policy: acknowledged commits wait for their
	// batch's fsync.
	FsyncSync = "sync"
)

// Figure10Fsync is the durability A/B over the Figure 10 shape: the
// NewOrder+Payment 50/50 mix on the Chiller engine as the distributed
// fraction sweeps, one series per WAL fsync policy. What it shows: how
// much of the paper's throughput survives real durability, and that the
// cost is a near-constant factor (group commit amortizes the fsync
// across the batch) rather than growing with the distributed fraction —
// the WAL appends ride the async commit tails, off the contention span.
func Figure10Fsync(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Figure 10 (fsync)",
		Title:  "Durability cost: WAL fsync policy (Chiller, NewOrder+Payment 50/50)",
		XLabel: "% distributed txns",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
	}
	policies := opt.FsyncPolicies
	if len(policies) == 0 {
		policies = []string{FsyncNone, FsyncNoSync, FsyncSync}
	}
	for _, pol := range policies {
		switch pol {
		case FsyncNone, FsyncNoSync, FsyncSync:
		default:
			return nil, fmt.Errorf("bench: unknown fsync policy %q (want %s, %s or %s)",
				pol, FsyncNone, FsyncNoSync, FsyncSync)
		}
	}
	for pct := 0; pct <= 100; pct += 25 {
		cfg := opt.tpccConfig()
		cfg.NewOrderPct, cfg.PaymentPct = 50, 50
		cfg.OrderStatusPct, cfg.DeliveryPct, cfg.StockLevelPct = 0, 0, 0
		cfg.TxnLevelRemote = true
		cfg.TxnRemoteProb = float64(pct) / 100
		for _, pol := range policies {
			wopt := opt
			if pol != FsyncNone {
				dir, err := os.MkdirTemp("", "chiller-fsync-")
				if err != nil {
					return nil, err
				}
				wopt.walDir = dir
				wopt.walPolicy = wal.Policy{NoSync: pol == FsyncNoSync}
			}
			dep, err := SetupTPCC(wopt, cfg)
			if err != nil {
				return nil, err
			}
			m := dep.Cluster.Run(dep.W, RunConfig{
				Engine:         EngineChiller,
				Concurrency:    5,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
			dep.Cluster.Close()
			if wopt.walDir != "" {
				os.RemoveAll(wopt.walDir)
			}
			fig.Add(pol, float64(pct), m.Throughput())
			fig.AddAborts(pol, m)
			fig.AddVerbs(pol, m)
		}
	}
	return fig, nil
}

// AblationReorderOnly isolates the paper's claim that re-ordering without
// re-partitioning "only leads to limited performance improvements" (§1):
// it runs the Instacart workload under (a) hash layout + 2PL, (b) hash
// layout + Chiller execution (reorder only: hot records flagged but not
// relocated), and (c) Chiller layout + Chiller execution.
func AblationReorderOnly(parts int, opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Ablation A1",
		Title:  "Reordering vs. reordering + contention-aware partitioning",
		XLabel: "variant (1=2PL/hash 2=reorder-only 3=chiller)",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
	}
	run := func(dep *InstacartDeployment, kind EngineKind, x float64, label string) {
		m := dep.Cluster.Run(dep.W, RunConfig{
			Engine:         kind,
			Concurrency:    opt.Concurrency,
			Duration:       opt.Duration,
			Retry:          true,
			WarmupFraction: 0.25,
			Seed:           opt.Seed,
		})
		fig.Add(label, x, m.Throughput())
	}
	// (a) hash + 2PL.
	dep, err := SetupInstacart(SchemeHash, parts, opt)
	if err != nil {
		return nil, err
	}
	run(dep, Engine2PL, 1, "throughput")
	dep.Cluster.Close()

	// (b) hash layout + two-region execution: mark hot records at their
	// *hash* homes so the engine reorders but nothing moves.
	dep, err = SetupInstacart(SchemeHash, parts, opt)
	if err != nil {
		return nil, err
	}
	for _, rs := range dep.Agg.Records() {
		if rs.Pc > 0.05 {
			dep.Cluster.Dir.SetHot(rs.RID, dep.Cluster.Dir.Default().Partition(rs.RID))
		}
	}
	run(dep, EngineChiller, 2, "throughput")
	dep.Cluster.Close()

	// (c) full Chiller.
	dep, err = SetupInstacart(SchemeChiller, parts, opt)
	if err != nil {
		return nil, err
	}
	run(dep, EngineChiller, 3, "throughput")
	dep.Cluster.Close()
	return fig, nil
}

// AblationMinEdgeWeight exercises the §4.4 co-optimization knob: sweep
// the minimum edge weight and report both the distributed-transaction
// ratio and the contention cost of the resulting layouts.
func AblationMinEdgeWeight(parts int, opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Ablation A2",
		Title:  "Co-optimizing contention and distribution (min edge weight)",
		XLabel: "min edge weight",
		YLabel: "ratio / normalized cost",
	}
	icfg := instacart.Config{Products: opt.Products, Partitions: parts, Seed: opt.Seed}.Defaults()
	w := instacart.NewWorkload(icfg)
	rng := rand.New(rand.NewSource(opt.Seed))
	agg := w.BuildAggregate(opt.TraceTxns, rng, float64(opt.TraceTxns)/float64(parts*opt.Concurrency))
	def := instacart.DefaultPartitioner(parts)

	base := chillerpart.ContentionCost(agg, partition.RouterFor(nil, def), parts)
	if base == 0 {
		base = 1
	}
	for _, mw := range []float64{0, 0.01, 0.05, 0.2, 1.0} {
		res, err := chillerpart.Partition(agg, chillerpart.Config{
			K: parts, Seed: opt.Seed, HotThreshold: 0.05, MinEdgeWeight: mw,
		})
		if err != nil {
			return nil, err
		}
		router := partition.RouterFor(res.Layout, def)
		fig.Add("distributed-ratio", mw, partition.DistributedRatio(agg.Txns(), router))
		fig.Add("contention-cost", mw, chillerpart.ContentionCost(agg, router, parts)/base)
	}
	return fig, nil
}

// AblationSamplingRate exercises §4.1's claim that light sampling
// suffices: partition layouts computed from traces sampled at different
// rates are compared by the hot-set overlap with the full-trace layout.
func AblationSamplingRate(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Ablation A3",
		Title:  "Sampling-rate sensitivity of the hot set",
		XLabel: "sampling rate",
		YLabel: "hot-set recall",
	}
	icfg := instacart.Config{Products: opt.Products, Partitions: 4, Seed: opt.Seed}.Defaults()
	w := instacart.NewWorkload(icfg)
	rng := rand.New(rand.NewSource(opt.Seed))
	full := w.Trace(opt.TraceTxns*10, rng)

	reference := hotSetOf(full, 1, opt)
	if len(reference) == 0 {
		return nil, fmt.Errorf("bench: empty reference hot set")
	}
	for _, rate := range []float64{0.001, 0.01, 0.1, 1.0} {
		sampler := stats.NewSampler(rate, opt.Seed+7)
		for _, t := range full {
			sampler.ObserveTxn(t.Reads, t.Writes)
		}
		agg := stats.NewAggregate()
		agg.Add(sampler.Drain())
		agg.Finalize(rate, float64(opt.TraceTxns)/5)
		got := agg.HotSet(0.05)
		hit := 0
		gotSet := make(map[string]bool, len(got))
		for _, r := range got {
			gotSet[r.String()] = true
		}
		for _, r := range reference {
			if gotSet[r.String()] {
				hit++
			}
		}
		fig.Add("recall", rate, float64(hit)/float64(len(reference)))
	}
	return fig, nil
}

func hotSetOf(trace []stats.TxnSample, rate float64, opt Options) []txnRID {
	agg := stats.NewAggregate()
	agg.Add(trace)
	agg.Finalize(rate, float64(opt.TraceTxns)/5)
	hs := agg.HotSet(0.05)
	out := make([]txnRID, len(hs))
	for i, r := range hs {
		out[i] = txnRID{r.String()}
	}
	return out
}

type txnRID struct{ s string }

func (t txnRID) String() string { return t.s }

// AblationLatency sweeps the simulated one-way network latency and
// reports Chiller's throughput advantage over 2PL on the hot-heavy bank
// workload. This probes the paper's core premise directly: contention
// span is measured in network round trips, so the two-region model's win
// should grow as the network slows — and shrink toward parity as the
// network approaches local-memory speed.
func AblationLatency(parts int, opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Ablation A4",
		Title:  "Chiller advantage vs one-way network latency",
		XLabel: "latency (µs)",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
	}
	for _, lat := range []time.Duration{0, 5 * time.Microsecond, 20 * time.Microsecond, 100 * time.Microsecond} {
		for _, kind := range []EngineKind{Engine2PL, EngineChiller} {
			b := &Bank{
				AccountsPerPartition: 500,
				HotProb:              0.6,
				RemoteProb:           0.3,
				GlobalCelebrity:      true,
			}
			def := cluster.RangePartitioner{
				N:      parts,
				MaxKey: map[storage.TableID]storage.Key{BankTable: storage.Key(parts * 500)},
			}
			c := NewCluster(ClusterConfig{
				Partitions:  parts,
				Replication: opt.Replication,
				Latency:     lat,
				Seed:        opt.Seed,
				Lanes:       opt.laneCount(),
			}, def)
			if err := SetupBank(c, b, true); err != nil {
				c.Close()
				return nil, err
			}
			b.MarkCelebritiesHot(c)
			m := c.Run(b, RunConfig{
				Engine:         kind,
				Concurrency:    opt.Concurrency * 2,
				Duration:       opt.Duration,
				WarmupFraction: 0.25,
				Retry:          true,
				Seed:           opt.Seed,
			})
			c.Close()
			fig.Add(string(kind), float64(lat.Microseconds()), m.Throughput())
			fig.AddAborts(string(kind), m)
			fig.AddVerbs(string(kind), m)
		}
	}
	return fig, nil
}

// MembershipChurn measures throughput across a live membership change:
// the bank transfer mix on a 3-partition cluster, sampled in three equal
// windows — steady state, a window during which a new node joins and
// takes over partition 0 through the incremental handoff protocol, and
// steady state on the grown cluster. Clients retry moved-aborts, so the
// "during" window quantifies the handoff's cost without any global
// quiesce: the paper-faithful outcome is a dip bounded by the fenced
// partition's share, never a stall to zero.
func MembershipChurn(opt Options) (*Figure, error) {
	const parts = 3
	const accounts = 500
	fig := &Figure{
		Name:   "Membership churn",
		Title:  "Throughput across a live node join (bank transfers)",
		XLabel: "phase (0=before, 1=during handoff, 2=after)",
		YLabel: "txns/sec",
		Lanes:  opt.laneCount(),
	}
	for _, kind := range []EngineKind{Engine2PL, EngineChiller} {
		b := &Bank{
			AccountsPerPartition: accounts,
			HotProb:              0.2,
			RemoteProb:           0.3,
		}
		c := NewCluster(ClusterConfig{
			Partitions:  parts,
			Replication: opt.Replication,
			Latency:     opt.Latency,
			Seed:        opt.Seed,
			Lanes:       opt.laneCount(),
		}, cluster.RangePartitioner{
			N:      parts,
			MaxKey: map[storage.TableID]storage.Key{BankTable: storage.Key(parts * accounts)},
		})
		if err := SetupBank(c, b, true); err != nil {
			c.Close()
			return nil, err
		}
		run := func() *Metrics {
			return c.Run(b, RunConfig{
				Engine:         kind,
				Concurrency:    opt.Concurrency,
				Duration:       opt.Duration,
				Retry:          true,
				WarmupFraction: 0.25,
				Seed:           opt.Seed,
			})
		}

		before := run()
		fig.Add(string(kind), 0, before.Throughput())
		fig.AddAborts(string(kind), before)

		// The churn overlaps the measured window: wait out the warmup
		// quarter, then add a node and hand it partition 0 while clients
		// keep issuing transfers against the moving range.
		churnErr := make(chan error, 1)
		go func() {
			time.Sleep(opt.Duration / 4)
			id, err := c.AddNode()
			if err != nil {
				churnErr <- err
				return
			}
			churnErr <- c.MovePartition(0, id)
		}()
		during := run()
		if err := <-churnErr; err != nil {
			c.Close()
			return nil, err
		}
		fig.Add(string(kind), 1, during.Throughput())
		fig.AddAborts(string(kind), during)

		after := run()
		fig.Add(string(kind), 2, after.Throughput())
		fig.AddAborts(string(kind), after)
		c.Close()
	}
	return fig, nil
}
