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

// laneCount resolves the per-node lane count (0 = host default).
func (o Options) laneCount() int {
	if o.Lanes > 0 {
		return o.Lanes
	}
	return cluster.DefaultLanes()
}

// clusterConfig is the simulated cluster every measurement point starts
// from; the point's builder sets the partition count and anything the
// sweep varies.
func (o Options) clusterConfig() ClusterConfig {
	return ClusterConfig{Replication: o.Replication, Latency: o.Latency, Seed: o.Seed, Lanes: o.laneCount()}
}

// figure starts a figure of live runs, which records its lane count.
func (o Options) figure(name, title, xLabel string) *Figure {
	return &Figure{Name: name, Title: title, XLabel: xLabel, YLabel: "txns/sec", Lanes: o.laneCount()}
}

// A point is one measurement of a sweep: series label at x, driven on
// engine kind by conc clients per partition, each keeping outstanding
// transactions in flight (0 = closed loop). An experiment is its grid
// of points plus how to build the cluster each one runs on.
type point struct {
	label       string
	x           float64
	kind        EngineKind
	conc        int
	outstanding int
}

// grid crosses xs with series, x-major: for every x, one point per
// series.
func grid(xs []float64, series ...point) []point {
	out := make([]point, 0, len(xs)*len(series))
	for _, x := range xs {
		for _, s := range series {
			s.x = x
			out = append(out, s)
		}
	}
	return out
}

// span returns lo, lo+step, ... up to hi.
func span(lo, hi, step int) []float64 {
	var xs []float64
	for x := lo; x <= hi; x += step {
		xs = append(xs, float64(x))
	}
	return xs
}

// measure runs one point through run — a Cluster's Run, or Figure10Remote's
// loop over a TCP client — for the sweep's window, a quarter of it
// warm-up.
func (o Options) measure(run func(Workload, RunConfig) *Metrics, w Workload, p point) *Metrics {
	return run(w, RunConfig{Engine: p.kind, Concurrency: p.conc, Outstanding: p.outstanding, Duration: o.Duration, Seed: o.Seed})
}

// sweep measures every point of a grid on a fresh cluster from build,
// closed again before the next point, and hands the metrics to record.
func (o Options) sweep(points []point, build func(point) (*Cluster, Workload, error), record func(point, *Metrics)) error {
	for _, p := range points {
		c, w, err := build(p)
		if err != nil {
			return err
		}
		m := o.measure(c.Run, w, p)
		c.Close()
		record(p, m)
	}
	return nil
}

// record lands one live point in its series: the window's throughput,
// abort profile and verb profile.
func (f *Figure) record(p point, m *Metrics) {
	f.Add(p.label, p.x, m.Throughput())
	f.AddAborts(p.label, m)
	f.AddVerbs(p.label, m)
}

// loaded builds a cluster and runs setup on it, closing it again if
// setup fails.
func loaded(cfg ClusterConfig, def cluster.DefaultPartitioner, setup func(*Cluster) error) (*Cluster, error) {
	c := NewCluster(cfg, def)
	if err := setup(c); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// --- Instacart: partitioning schemes (Figures 7, 8, §7.2.2, A1-A3) ---

// Scheme names for the partitioning comparison.
const (
	SchemeHash    = "Hashing"
	SchemeSchism  = "Schism"
	SchemeChiller = "Chiller"
)

var schemes = []string{SchemeHash, SchemeSchism, SchemeChiller}

// instacartLayout is the partitioner's half of an Instacart point: the
// workload, its sampled trace statistics, and a scheme's layout (nil for
// Hashing). Computing it builds no cluster, so the trace-only figures
// never build one.
type instacartLayout struct {
	cfg    instacart.Config
	w      *instacart.Workload
	agg    *stats.Aggregate
	layout *partition.Layout
}

// newInstacartLayout samples the trace for parts partitions and
// partitions it under the named scheme: Hashing (default layout, 2PL),
// Schism (min-distributed-txn layout, 2PL), or Chiller
// (contention-centric layout + two-region execution).
func newInstacartLayout(scheme string, parts int, opt Options) (*instacartLayout, error) {
	l := &instacartLayout{cfg: instacart.Config{Products: opt.Products, Partitions: parts, Seed: opt.Seed}.Defaults()}
	l.w = instacart.NewWorkload(l.cfg)
	// Calibrate the lock window so a record's λ approximates its
	// expected number of concurrent holders: trace-share × concurrent
	// clients. Only the true head (shares above a few percent) crosses
	// the hot threshold then, as in the paper's lookup-table discussion.
	rng := rand.New(rand.NewSource(opt.Seed + int64(parts)))
	l.agg = l.w.BuildAggregate(opt.TraceTxns, rng, float64(opt.TraceTxns)/float64(parts*opt.Concurrency))
	var err error
	switch scheme {
	case SchemeHash:
	case SchemeSchism:
		l.layout, err = schism.Partition(l.agg.Txns(), schism.Config{K: parts, Seed: opt.Seed})
	case SchemeChiller:
		var res *chillerpart.Result
		res, err = chillerpart.Partition(l.agg, chillerpart.Config{K: parts, Lanes: opt.laneCount(), Seed: opt.Seed, HotThreshold: 0.05})
		if err == nil {
			l.layout = res.Layout
		}
	default:
		err = fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	return l, err
}

// router routes the trace under the layout.
func (l *instacartLayout) router() partition.Router {
	return partition.RouterFor(l.layout, instacart.DefaultPartitioner(l.cfg.Partitions))
}

// cluster builds the replicated cluster the layout describes and loads
// the catalogue onto it.
func (l *instacartLayout) cluster(opt Options) (*Cluster, error) {
	cfg := opt.clusterConfig()
	cfg.Partitions = l.cfg.Partitions
	return loaded(cfg, instacart.DefaultPartitioner(l.cfg.Partitions), func(c *Cluster) error {
		if l.layout != nil {
			l.layout.Install(c.Dir)
		}
		if err := instacart.RegisterAll(c.Registry); err != nil {
			return err
		}
		return instacart.Load(c, l.cfg)
	})
}

// schemePoints sweeps the partition counts xs, one series per scheme,
// each on its scheme's engine: Chiller's layout is made for two-region
// execution, Hashing and Schism run 2PL.
func schemePoints(opt Options, xs []float64, schemes ...string) []point {
	series := make([]point, len(schemes))
	for i, s := range schemes {
		series[i] = point{label: s, kind: Engine2PL, conc: opt.Concurrency}
		if s == SchemeChiller {
			series[i].kind = EngineChiller
		}
	}
	return grid(xs, series...)
}

// Figure7 reproduces the partitioning-scheme throughput comparison:
// Instacart NewOrder baskets, 2..MaxPartitions partitions, one series per
// scheme. The paper's shape: Schism ≈ +50% over Hashing but neither
// scales; Chiller scales near-linearly.
func Figure7(opt Options) (*Figure, error) {
	fig := opt.figure("Figure 7", "Throughput of partitioning schemes (Instacart baskets)", "partitions")
	return fig, opt.sweep(schemePoints(opt, span(2, opt.MaxPartitions, 1), schemes...), func(p point) (*Cluster, Workload, error) {
		l, err := newInstacartLayout(p.label, int(p.x), opt)
		if err != nil {
			return nil, nil, err
		}
		c, err := l.cluster(opt)
		return c, l.w, err
	}, fig.record)
}

// tracePoints evaluates metric on the layout of every point, without a
// cluster.
func tracePoints(opt Options, fig *Figure, points []point, metric func(*instacartLayout) float64) (*Figure, error) {
	for _, p := range points {
		l, err := newInstacartLayout(p.label, int(p.x), opt)
		if err != nil {
			return nil, err
		}
		fig.Add(p.label, p.x, metric(l))
	}
	return fig, nil
}

// Figure8 reproduces the distributed-transaction-ratio comparison over
// the same sweep, evaluated on the workload trace (as the paper does):
// Schism lowest, Chiller higher (≈60% more at 2 partitions, narrowing).
func Figure8(opt Options) (*Figure, error) {
	fig := &Figure{Name: "Figure 8", Title: "Ratio of distributed transactions", XLabel: "partitions", YLabel: "ratio"}
	return tracePoints(opt, fig, schemePoints(opt, span(2, opt.MaxPartitions, 1), schemes...), func(l *instacartLayout) float64 {
		return partition.DistributedRatio(l.agg.Txns(), l.router())
	})
}

// LookupTableSizes reproduces the §7.2.2 metadata comparison: routing
// entries needed by Schism (every record in the trace) versus Chiller
// (hot records only), per partition count.
func LookupTableSizes(opt Options) (*Figure, error) {
	fig := &Figure{Name: "§7.2.2", Title: "Lookup table size (routing entries)", XLabel: "partitions", YLabel: "entries"}
	points := schemePoints(opt, span(2, opt.MaxPartitions, 2), SchemeSchism, SchemeChiller)
	return tracePoints(opt, fig, points, func(l *instacartLayout) float64 {
		return float64(l.layout.LookupTableSize())
	})
}

// ablationParts is the cluster size of the Instacart ablations.
const ablationParts = 4

// AblationReorderOnly isolates the paper's claim that re-ordering without
// re-partitioning "only leads to limited performance improvements" (§1):
// it runs the Instacart workload under (a) hash layout + 2PL, (b) hash
// layout + Chiller execution (reorder only: hot records flagged but not
// relocated), and (c) Chiller layout + Chiller execution.
func AblationReorderOnly(opt Options) (*Figure, error) {
	fig := opt.figure("Ablation A1", "Reordering vs. reordering + contention-aware partitioning", "variant (1=2PL/hash 2=reorder-only 3=chiller)")
	points := []point{
		{label: "throughput", x: 1, kind: Engine2PL, conc: opt.Concurrency},
		{label: "throughput", x: 2, kind: EngineChiller, conc: opt.Concurrency},
		{label: "throughput", x: 3, kind: EngineChiller, conc: opt.Concurrency},
	}
	// x 1 and 2 run the hash layout, 2 with its hot records flagged in
	// place; x 3 runs Chiller's layout.
	return fig, opt.sweep(points, func(p point) (*Cluster, Workload, error) {
		scheme := SchemeHash
		if p.x == 3 {
			scheme = SchemeChiller
		}
		l, err := newInstacartLayout(scheme, ablationParts, opt)
		if err != nil {
			return nil, nil, err
		}
		c, err := l.cluster(opt)
		if err == nil && p.x == 2 {
			// Hot records flagged at their *hash* homes: the engine
			// reorders, nothing moves.
			for _, rs := range l.agg.Records() {
				if rs.Pc > 0.05 {
					c.Dir.SetHot(rs.RID, c.Dir.Default().Partition(rs.RID))
				}
			}
		}
		return c, l.w, err
	}, func(p point, m *Metrics) { fig.Add(p.label, p.x, m.Throughput()) })
}

// AblationMinEdgeWeight exercises the §4.4 co-optimization knob: sweep
// the minimum edge weight and report both the distributed-transaction
// ratio and the contention cost of the resulting layouts.
func AblationMinEdgeWeight(opt Options) (*Figure, error) {
	fig := &Figure{
		Name:   "Ablation A2",
		Title:  "Co-optimizing contention and distribution (min edge weight)",
		XLabel: "min edge weight",
		YLabel: "ratio / normalized cost",
	}
	l, err := newInstacartLayout(SchemeHash, ablationParts, opt)
	if err != nil {
		return nil, err
	}
	base := chillerpart.ContentionCost(l.agg, l.router(), ablationParts)
	if base == 0 {
		base = 1
	}
	for _, mw := range []float64{0, 0.01, 0.05, 0.2, 1.0} {
		res, err := chillerpart.Partition(l.agg, chillerpart.Config{
			K: ablationParts, Seed: opt.Seed, HotThreshold: 0.05, MinEdgeWeight: mw,
		})
		if err != nil {
			return nil, err
		}
		route := partition.RouterFor(res.Layout, instacart.DefaultPartitioner(ablationParts))
		fig.Add("distributed-ratio", mw, partition.DistributedRatio(l.agg.Txns(), route))
		fig.Add("contention-cost", mw, chillerpart.ContentionCost(l.agg, route, ablationParts)/base)
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
	icfg := instacart.Config{Products: opt.Products, Partitions: ablationParts, Seed: opt.Seed}.Defaults()
	full := instacart.NewWorkload(icfg).Trace(opt.TraceTxns*10, rand.New(rand.NewSource(opt.Seed)))
	hotSet := func(samples []stats.TxnSample, rate float64) []storage.RID {
		agg := stats.NewAggregate()
		agg.Add(samples)
		agg.Finalize(rate, float64(opt.TraceTxns)/5)
		return agg.HotSet(0.05)
	}
	reference := make(map[storage.RID]bool)
	for _, r := range hotSet(full, 1) {
		reference[r] = true
	}
	if len(reference) == 0 {
		return nil, fmt.Errorf("bench: empty reference hot set")
	}
	for _, rate := range []float64{0.001, 0.01, 0.1, 1.0} {
		sampler := stats.NewSampler(rate, opt.Seed+7)
		for _, t := range full {
			sampler.ObserveTxn(t.Reads, t.Writes)
		}
		hit := 0
		for _, r := range hotSet(sampler.Drain(), rate) {
			if reference[r] {
				hit++
			}
		}
		fig.Add("recall", rate, float64(hit)/float64(len(reference)))
	}
	return fig, nil
}

// --- TPC-C (Figures 9, 10) ---

// loadTPCC builds a warehouse-partitioned TPC-C cluster loaded with cfg's
// database, and cfg's workload (the layout is identical for every
// engine, per §7.3.1).
func loadTPCC(ccfg ClusterConfig, cfg tpcc.Config) (*Cluster, Workload, error) {
	w, err := tpcc.NewWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	ccfg.Partitions = cfg.Partitions
	c, err := loaded(ccfg, tpcc.Partitioner(cfg.Warehouses, cfg.Partitions), func(c *Cluster) error {
		if err := tpcc.RegisterAll(c.Registry); err != nil {
			return err
		}
		if err := tpcc.Load(c, cfg); err != nil {
			return err
		}
		tpcc.MarkHot(c.Dir, cfg)
		return nil
	})
	return c, w, err
}

// tpccConfig is the sweeps' TPC-C database: one warehouse per engine,
// as in §7.3.1.
func (o Options) tpccConfig() tpcc.Config {
	return tpcc.WarehousePerNode(o.Warehouses, o.Customers, o.Items)
}

// Figure9 reproduces the concurrency sweep on the full TPC-C mix:
// throughput (9a), abort rate (9b) for 2PL/OCC/Chiller, and the 2PL
// per-procedure abort breakdown (9c), as three figures.
func Figure9(opt Options) (thr, abr, breakdown *Figure, err error) {
	const xLabel = "concurrent txns/warehouse"
	thr = opt.figure("Figure 9a", "TPC-C throughput", xLabel)
	abr = &Figure{Name: "Figure 9b", Title: "TPC-C abort rate", XLabel: xLabel, YLabel: "abort rate", Lanes: opt.laneCount()}
	breakdown = &Figure{Name: "Figure 9c", Title: "2PL abort rate by transaction type", XLabel: xLabel, YLabel: "abort rate", Lanes: opt.laneCount()}
	var points []point
	for conc := 1; conc <= opt.MaxConcurrency; conc++ {
		for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
			points = append(points, point{label: string(kind), x: float64(conc), kind: kind, conc: conc})
		}
	}
	cfg := opt.tpccConfig()
	err = opt.sweep(points, func(point) (*Cluster, Workload, error) {
		return loadTPCC(opt.clusterConfig(), cfg)
	}, func(p point, m *Metrics) {
		thr.Add(p.label, p.x, m.Throughput())
		thr.AddVerbs(p.label, m)
		abr.Add(p.label, p.x, m.AbortRate())
		abr.AddAborts(p.label, m)
		if p.kind == Engine2PL {
			breakdown.Add("New-order", p.x, newOrderAbortRate(m))
			breakdown.Add("Payment", p.x, m.ProcAbortRate(tpcc.ProcPayment))
			breakdown.Add("Stock-level", p.x, m.ProcAbortRate(tpcc.ProcStockLevel))
		}
	})
	return thr, abr, breakdown, err
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
	fig := opt.figure("Figure 9a (lanes)", "TPC-C throughput vs execution lanes per node", "lanes per node")
	fig.Lanes = 0 // on the X axis
	cfg := opt.tpccConfig()
	points := grid(span(1, max(4, opt.Lanes), 1),
		point{label: string(Engine2PL), kind: Engine2PL, conc: opt.MaxConcurrency},
		point{label: string(EngineChiller), kind: EngineChiller, conc: opt.MaxConcurrency})
	return fig, opt.sweep(points, func(p point) (*Cluster, Workload, error) {
		ccfg := opt.clusterConfig()
		ccfg.Lanes = int(p.x)
		return loadTPCC(ccfg, cfg)
	}, fig.record)
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

// newOrderPayment is Figure 10's mix over base: NewOrder and Payment
// 50/50, each transaction remote with probability pct %.
func newOrderPayment(base tpcc.Config, pct float64) tpcc.Config {
	cfg := base
	cfg.NewOrderPct, cfg.PaymentPct = 50, 50
	cfg.OrderStatusPct, cfg.DeliveryPct, cfg.StockLevelPct = 0, 0, 0
	cfg.TxnLevelRemote = true
	cfg.TxnRemoteProb = pct / 100
	return cfg
}

// fig10Series are Figure 10's series: 2PL and OCC at one and at five
// transactions per warehouse, Chiller at five.
var fig10Series = []point{
	{label: "2PL (1 txn)", kind: Engine2PL, conc: 1},
	{label: "OCC (1 txn)", kind: EngineOCC, conc: 1},
	{label: "2PL (5 txn)", kind: Engine2PL, conc: 5},
	{label: "OCC (5 txn)", kind: EngineOCC, conc: 5},
	{label: "Chiller (5 txn)", kind: EngineChiller, conc: 5},
}

// Figure10 reproduces the distributed-transaction sweep: NewOrder and
// Payment 50/50, transaction-level remote probability 0..100%, with
// 2PL(1), 2PL(5), OCC(1), OCC(5) and Chiller(5) series. The paper's
// shape: Chiller degrades < 20%; the others fall steeply.
func Figure10(opt Options) (*Figure, error) {
	fig := opt.figure("Figure 10", "Impact of distributed transactions (NewOrder+Payment 50/50)", "% distributed txns")
	return fig, opt.sweep(grid(span(0, 100, 20), fig10Series...), func(p point) (*Cluster, Workload, error) {
		return loadTPCC(opt.clusterConfig(), newOrderPayment(opt.tpccConfig(), p.x))
	}, fig.record)
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
	policies := opt.FsyncPolicies
	if len(policies) == 0 {
		policies = []string{FsyncNone, FsyncNoSync, FsyncSync}
	}
	series := make([]point, len(policies))
	for i, pol := range policies {
		switch pol {
		case FsyncNone, FsyncNoSync, FsyncSync:
		default:
			return nil, fmt.Errorf("bench: unknown fsync policy %q (want %s, %s or %s)",
				pol, FsyncNone, FsyncNoSync, FsyncSync)
		}
		series[i] = point{label: pol, kind: EngineChiller, conc: 5}
	}
	// Every point logs into a fresh directory under one root, removed
	// however the sweep ends.
	root, err := os.MkdirTemp("", "chiller-fsync-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	fig := opt.figure("Figure 10 (fsync)", "Durability cost: WAL fsync policy (Chiller, NewOrder+Payment 50/50)", "% distributed txns")
	return fig, opt.sweep(grid(span(0, 100, 25), series...), func(p point) (*Cluster, Workload, error) {
		ccfg := opt.clusterConfig()
		if p.label != FsyncNone {
			dir, err := os.MkdirTemp(root, p.label+"-")
			if err != nil {
				return nil, nil, err
			}
			ccfg.WALDir, ccfg.WALPolicy = dir, wal.Policy{NoSync: p.label == FsyncNoSync}
		}
		return loadTPCC(ccfg, newOrderPayment(opt.tpccConfig(), p.x))
	}, fig.record)
}

// --- bank: MVCC reads, network latency, membership churn ---

// loadBank loads b onto parts range partitions of a cluster built
// from ccfg; a bank issuing snapshot reads gets versioned stores.
func loadBank(ccfg ClusterConfig, b *Bank, parts int) (*Cluster, error) {
	ccfg.Partitions, ccfg.MVCC = parts, b.SnapshotReads
	def := cluster.RangePartitioner{
		N:      parts,
		MaxKey: map[storage.TableID]storage.Key{BankTable: storage.Key(parts * b.AccountsPerPartition)},
	}
	return loaded(ccfg, def, func(c *Cluster) error { return SetupBank(c, b, true) })
}

// readHeavyBank is Figure 7 (read-heavy)'s workload: 85% three-account
// audits beside contended transfers; mvcc issues the audits as snapshot
// reads.
func readHeavyBank(mvcc bool) *Bank {
	return &Bank{AccountsPerPartition: 400, HotProb: 0.6, RemoteProb: 0.5, ReadOnlyProb: 0.85, SnapshotReads: mvcc}
}

// runReadHeavy runs one read-heavy bank measurement on Chiller with the
// celebrities hot; mvcc selects both the cluster's versioned stores and
// the ReadOnly audit variant.
func runReadHeavy(opt Options, parts, outstanding int, mvcc bool) (*Metrics, error) {
	b := readHeavyBank(mvcc)
	c, err := loadBank(opt.clusterConfig(), b, parts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	b.MarkCelebritiesHot(c)
	return opt.measure(c.Run, b, point{kind: EngineChiller, conc: opt.Concurrency, outstanding: outstanding}), nil
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
	fig := opt.figure("Figure 7 (read-heavy)", "Read-heavy throughput: MVCC snapshot reads vs locking reads", "outstanding txns per client")
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
			fig.record(point{label: label, x: float64(outstanding)}, m)
		}
	}
	return fig, nil
}

// AblationLatency sweeps the simulated one-way network latency and
// reports Chiller's throughput advantage over 2PL on the hot-heavy bank
// workload. This probes the paper's core premise directly: contention
// span is measured in network round trips, so the two-region model's win
// should grow as the network slows — and shrink toward parity as the
// network approaches local-memory speed.
func AblationLatency(opt Options) (*Figure, error) {
	fig := opt.figure("Ablation A4", "Chiller advantage vs one-way network latency", "latency (µs)")
	points := grid([]float64{0, 5, 20, 100},
		point{label: string(Engine2PL), kind: Engine2PL, conc: 2 * opt.Concurrency},
		point{label: string(EngineChiller), kind: EngineChiller, conc: 2 * opt.Concurrency})
	return fig, opt.sweep(points, func(p point) (*Cluster, Workload, error) {
		b := &Bank{AccountsPerPartition: 500, HotProb: 0.6, RemoteProb: 0.3, GlobalCelebrity: true}
		ccfg := opt.clusterConfig()
		ccfg.Latency = time.Duration(p.x) * time.Microsecond
		c, err := loadBank(ccfg, b, ablationParts)
		if err == nil {
			b.MarkCelebritiesHot(c)
		}
		return c, b, err
	}, fig.record)
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
	fig := opt.figure("Membership churn", "Throughput across a live node join (bank transfers)", "phase (0=before, 1=during handoff, 2=after)")
	for _, kind := range []EngineKind{Engine2PL, EngineChiller} {
		b := &Bank{AccountsPerPartition: 500, HotProb: 0.2, RemoteProb: 0.3}
		c, err := loadBank(opt.clusterConfig(), b, 3)
		if err != nil {
			return nil, err
		}
		for phase := 0; phase < 3; phase++ {
			// The churn overlaps the measured window: wait out the warmup
			// quarter, then add a node and hand it partition 0 while
			// clients keep issuing transfers against the moving range.
			churned := make(chan error, 1)
			if phase == 1 {
				go func() {
					time.Sleep(opt.Duration / 4)
					id, err := c.AddNode()
					if err == nil {
						err = c.MovePartition(0, id)
					}
					churned <- err
				}()
			} else {
				churned <- nil
			}
			p := point{label: string(kind), x: float64(phase), kind: kind, conc: opt.Concurrency}
			m := opt.measure(c.Run, b, p)
			if err := <-churned; err != nil {
				c.Close()
				return nil, err
			}
			fig.Add(p.label, p.x, m.Throughput())
			fig.AddAborts(p.label, m)
		}
		c.Close()
	}
	return fig, nil
}
