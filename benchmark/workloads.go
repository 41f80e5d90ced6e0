package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// The common load shape (README.md "Load shape"): 4 partitions on 4
// nodes, 2 lanes per node, 2 closed-loop clients per partition. Eight
// clients is deliberate: contention needs at least two concurrent
// transactions per warehouse (Fig. 9), and four clients already keep
// both cores of the reference host busy, so the load saturates the
// program, not the scheduler.
const (
	partitions          = 4
	lanesPerNode        = 2
	clientsPerPartition = 2
	numClients          = partitions * clientsPerPartition
	oneWayLatency       = 5 * time.Microsecond
)

// Spec is one workload: everything that decides what the system is asked
// to do. It marshals to JSON so the configuration is recorded beside the
// results it produced.
type Spec struct {
	Name string `json:"name"`
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	Why         string `json:"why"`
	Engine      string `json:"engine"`
	Transport   string `json:"transport"`
	Replication int    `json:"replication"`
	Batching    bool   `json:"verb_batching"`
	MVCC        bool   `json:"mvcc"`
	// WAL attaches a NoSync write-ahead log to every node. NoSync is
	// stated, not hidden: the sandbox device's fsync is not repeatable.
	WAL bool `json:"wal_nosync"`
	// TPCC or Bank is set, never both.
	TPCC *tpcc.Config `json:"tpcc,omitempty"`
	Bank *bench.Bank  `json:"bank,omitempty"`
	// RatePerSecond sizes the fixed work: a run asked to last s seconds
	// issues RatePerSecond*s requests. It is 0.9 of the commit rate
	// measured on the reference host (a 2-vCPU Xeon at 2.1 GHz), so a run
	// there takes about 0.9*s.
	RatePerSecond int `json:"rate_per_second"`
}

// tpccMix is the Figure 10 mix at spec-shaped sizes: NewOrder/Payment
// 50/50 over 4 warehouses, remote selection per transaction.
func tpccMix(remoteProb float64) *tpcc.Config {
	return &tpcc.Config{
		Warehouses:           partitions,
		Partitions:           partitions,
		CustomersPerDistrict: 3000,
		Items:                100000,
		NewOrderPct:          50,
		PaymentPct:           50,
		TxnLevelRemote:       true,
		TxnRemoteProb:        remoteProb,
	}
}

var specs = []*Spec{
	{
		Name:   "tpcc-dist",
		Why:    "every TPC-C transaction crosses partitions: core waves, doorbells, wire, simnet and replication are all on the critical path",
		Engine: string(bench.EngineChiller), Transport: bench.TransportSim, Replication: 2, Batching: true,
		TPCC: tpccMix(1.0), RatePerSecond: 14000,
	},
	{
		Name:   "tpcc-local",
		Why:    "same data with no remote access and no replicas: zero verbs on the wire, so only depgraph, core, lanes and storage are measured",
		Engine: string(bench.EngineChiller), Transport: bench.TransportSim, Replication: 1, Batching: true,
		TPCC: tpccMix(0), RatePerSecond: 40000,
	},
	{
		Name:   "tpcc-dist-2pl",
		Why:    "tpcc-dist on the 2PL engine: the paper's baseline, the scalar two-sided coordinator path, several attempts per commit",
		Engine: string(bench.Engine2PL), Transport: bench.TransportSim, Replication: 2, Batching: true,
		TPCC: tpccMix(1.0), RatePerSecond: 9200,
	},
	{
		Name:   "tpcc-dist-tcp",
		Why:    "tpcc-dist over loopback TCP: identical verbs per commit, so the difference to tpcc-dist is the fabric",
		Engine: string(bench.EngineChiller), Transport: bench.TransportTCP, Replication: 2, Batching: true,
		TPCC: tpccMix(1.0), RatePerSecond: 8600,
	},
	{
		Name:   "tpcc-dist-wal",
		Why:    "tpcc-dist with a NoSync WAL per node: log append and group-commit wait sit on the commit tail",
		Engine: string(bench.EngineChiller), Transport: bench.TransportSim, Replication: 2, Batching: true, WAL: true,
		TPCC: tpccMix(1.0), RatePerSecond: 9800,
	},
	{
		Name:   "bank-ro-mvcc",
		Why:    "85% snapshot audits beside 15% contended transfers: lock-free version-chain reads against chain-extending writes on one store",
		Engine: string(bench.EngineChiller), Transport: bench.TransportSim, Replication: 2, Batching: true, MVCC: true,
		Bank: &bench.Bank{
			AccountsPerPartition: 100000,
			HotProb:              0.6,
			RemoteProb:           0.5,
			ReadOnlyProb:         0.85,
			SnapshotReads:        true,
		},
		RatePerSecond: 92000,
	},
}

func specByName(name string) *Spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// generator is the part of a workload the driver needs: the next request
// of a client homed at a partition. *tpcc.Workload and *bench.Bank both
// satisfy it.
type generator interface {
	Next(partition int, rng *rand.Rand) *txn.Request
}

// newGenerator builds a fresh request generator for the spec — fresh
// because tpcc.Workload carries a shared history-sequence counter.
func (s *Spec) newGenerator() (generator, error) {
	if s.TPCC != nil {
		return tpcc.NewWorkload(*s.TPCC)
	}
	b := *s.Bank
	b.Partitions = partitions
	b.Amount = 10
	return &b, nil
}

// deployment is a built, loaded cluster ready to take a workload's
// requests.
type deployment struct {
	spec   *Spec
	c      *bench.Cluster
	gen    generator
	bank   *bench.Bank // the loaded bank (nil for TPC-C)
	walDir string      // removed by close
}

// setup builds the cluster the figures and the checker certify
// (bench.NewCluster) and loads the workload's data. workdir holds the
// WAL directory when the spec has one; nothing is written elsewhere.
func (s *Spec) setup(workdir string, seed int64) (*deployment, error) {
	gen, err := s.newGenerator()
	if err != nil {
		return nil, err
	}
	d := &deployment{spec: s, gen: gen}
	cfg := bench.ClusterConfig{
		Transport:    s.Transport,
		Partitions:   partitions,
		Replication:  s.Replication,
		Latency:      oneWayLatency,
		Seed:         seed,
		Lanes:        lanesPerNode,
		VerbBatching: s.Batching,
		MVCC:         s.MVCC,
	}
	if s.WAL {
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			return nil, err
		}
		d.walDir = dir
		cfg.WALDir = dir
		cfg.WALPolicy = wal.Policy{NoSync: true}
	}
	if s.TPCC != nil {
		d.c = bench.NewCluster(cfg, tpcc.Partitioner(s.TPCC.Warehouses, s.TPCC.Partitions))
		if err := tpcc.RegisterAll(d.c.Registry); err != nil {
			d.close()
			return nil, err
		}
		if err := tpcc.Load(d.c, *s.TPCC); err != nil {
			d.close()
			return nil, err
		}
		tpcc.MarkHot(d.c.Dir, *s.TPCC)
		return d, nil
	}
	d.bank = gen.(*bench.Bank)
	d.c = bench.NewCluster(cfg, cluster.RangePartitioner{
		N:      partitions,
		MaxKey: map[storage.TableID]storage.Key{bench.BankTable: storage.Key(partitions * d.bank.AccountsPerPartition)},
	})
	// Overdraft allowed: the celebrity accounts are drained by design and
	// the benchmark wants workloads on which no operation fails.
	if err := bench.SetupBank(d.c, d.bank, true); err != nil {
		d.close()
		return nil, err
	}
	d.bank.MarkCelebritiesHot(d.c)
	return d, nil
}

// close tears the cluster down and removes its WAL directory.
func (d *deployment) close() {
	if d.c != nil {
		d.c.Close()
		d.c = nil
	}
	if d.walDir != "" {
		if err := os.RemoveAll(d.walDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: remove %s: %v\n", d.walDir, err)
		}
		d.walDir = ""
	}
}

// requestsPerClient sizes the fixed work: the reference commit rate times
// the requested seconds times share (1 for a measured run, 1/4 for a
// traced one), split evenly over the clients.
func (s *Spec) requestsPerClient(seconds int, share float64) int {
	n := int(float64(s.RatePerSecond) * float64(seconds) * share / numClients)
	if n < 1 {
		n = 1
	}
	return n
}
