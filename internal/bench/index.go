package bench

// Experiment names one runnable experiment. Descriptions are one line
// each because `chiller-bench -exp list` prints them as the CLI's index.
type Experiment struct {
	Name string
	Desc string
	Run  func(Options) ([]*Figure, error)
}

func one(fn func(Options) (*Figure, error)) func(Options) ([]*Figure, error) {
	return func(opt Options) ([]*Figure, error) {
		f, err := fn(opt)
		if err != nil {
			return nil, err
		}
		return []*Figure{f}, nil
	}
}

// Experiments is the index of everything chiller-bench can run, in the
// order `-exp all` runs it.
var Experiments = []Experiment{
	{"fig7", "Instacart throughput per partitioning scheme (Hashing vs Schism vs Chiller), 2..N partitions", one(Figure7)},
	{"fig8", "distributed-transaction ratio of each scheme on the Instacart trace", one(Figure8)},
	{"lookup", "routing-metadata size: Schism's full map vs Chiller's hot-only lookup table (§7.2.2)", one(LookupTableSizes)},
	{"fig9", "TPC-C mix: throughput, abort rate, and 2PL per-procedure aborts vs concurrency per warehouse", func(opt Options) ([]*Figure, error) {
		thr, abr, brk, err := Figure9(opt)
		if err != nil {
			return nil, err
		}
		return []*Figure{thr, abr, brk}, nil
	}},
	{"fig9lanes", "TPC-C throughput vs execution lanes per node (intra-node scale-out, Figure 9a companion)", one(Figure9Lanes)},
	{"fig7ro", "read-heavy bank workload: MVCC snapshot reads vs the same reads on the locking path, open-loop window sweep", one(Figure7ReadHeavy)},
	{"fig10", "NewOrder+Payment throughput as the distributed fraction sweeps 0..100%", one(Figure10)},
	{"fig10fsync", "Figure 10 shape under durability: one Chiller series per WAL fsync policy (-fsync-policy)", one(Figure10Fsync)},
	{"churn", "bank throughput before/during/after a live node join with incremental partition handoff", one(MembershipChurn)},
	{"a1", "ablation: hot-record reordering alone vs reordering plus contention-aware placement", one(AblationReorderOnly)},
	{"a2", "ablation: min-edge-weight knob trading contention cost against distributed ratio (§4.4)", one(AblationMinEdgeWeight)},
	{"a3", "ablation: hot-set recall vs statistics sampling rate (§4.1)", one(AblationSamplingRate)},
	{"a4", "ablation: Chiller's advantage over 2PL as one-way network latency sweeps 0..100µs", one(AblationLatency)},
}
