package bench

import (
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

func TestMetricsMath(t *testing.T) {
	m := &Metrics{
		Committed:   80,
		Aborted:     20,
		Distributed: 40,
		Elapsed:     2 * time.Second,
		ByProc: map[string]*ProcMetrics{
			"p": {Committed: 30, Aborted: 10},
		},
	}
	if got := m.Throughput(); got != 40 {
		t.Errorf("Throughput = %v, want 40", got)
	}
	if got := m.AbortRate(); got != 0.2 {
		t.Errorf("AbortRate = %v, want 0.2", got)
	}
	if got := m.DistributedRatio(); got != 0.5 {
		t.Errorf("DistributedRatio = %v, want 0.5", got)
	}
	if got := m.ProcAbortRate("p"); got != 0.25 {
		t.Errorf("ProcAbortRate = %v, want 0.25", got)
	}
	if got := m.ProcAbortRate("missing"); got != 0 {
		t.Errorf("missing proc rate = %v", got)
	}
}

func TestMetricsZeroDivisionSafety(t *testing.T) {
	m := &Metrics{}
	if m.Throughput() != 0 || m.AbortRate() != 0 || m.DistributedRatio() != 0 {
		t.Fatal("zero metrics should be 0, not NaN")
	}
}

func TestRunCountsAbortReasons(t *testing.T) {
	b := &Bank{AccountsPerPartition: 4, HotProb: 1} // tiny: constant conflicts
	c := bankCluster(t, 2, 1, b)
	defer c.Close()
	m := c.Run(b, RunConfig{
		Engine:      Engine2PL,
		Concurrency: 4,
		Duration:    100 * time.Millisecond,
		Seed:        9,
	})
	if m.Aborted == 0 {
		t.Skip("no conflicts materialized; nothing to assert")
	}
	var sum uint64
	for _, n := range m.ByReason {
		sum += n
	}
	if sum != m.Aborted {
		t.Fatalf("ByReason sums to %d, Aborted = %d", sum, m.Aborted)
	}
	if m.ByReason[txn.AbortLockConflict] == 0 {
		t.Fatalf("expected lock-conflict aborts, got %v", m.ByReason)
	}
}

// Open-loop issuance: with Outstanding > 1 a single client keeps a
// window of transactions in flight, so throughput on a latency-bound
// workload must clearly exceed the closed-loop equivalent, and the
// metrics bookkeeping must stay exact across the per-lane shards.
func TestRunOpenLoopOutstanding(t *testing.T) {
	// Every transfer crosses partitions over a deliberately slow fabric,
	// so a single closed-loop client is hard latency-bound and a window
	// of outstanding transactions pays regardless of host CPU noise.
	b := &Bank{AccountsPerPartition: 4096, RemoteProb: 1}
	def := cluster.RangePartitioner{
		N:      2,
		MaxKey: map[storage.TableID]storage.Key{BankTable: storage.Key(2 * b.AccountsPerPartition)},
	}
	c := NewCluster(ClusterConfig{
		Partitions:  2,
		Replication: 1,
		Latency:     300 * time.Microsecond,
		Seed:        7,
	}, def)
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	closed := c.Run(b, RunConfig{
		Engine:      Engine2PL,
		Concurrency: 1,
		Duration:    150 * time.Millisecond,
		Seed:        7,
	})
	open := c.Run(b, RunConfig{
		Engine:      Engine2PL,
		Concurrency: 1,
		Outstanding: 8,
		Duration:    150 * time.Millisecond,
		Seed:        7,
	})
	if open.Committed == 0 {
		t.Fatal("open-loop run committed nothing")
	}
	// With a 300µs one-way latency the closed loop is capped near
	// 1/RTT·clients while eight outstanding lanes overlap their waits;
	// require a conservative 2x. Skipped in short mode, where the race
	// detector's overhead can make even this configuration CPU-bound.
	if !testing.Short() && open.Throughput() < 2*closed.Throughput() {
		t.Errorf("open-loop %.0f tps not ahead of closed-loop %.0f tps",
			open.Throughput(), closed.Throughput())
	}
	var sum uint64
	for _, pm := range open.ByProc {
		sum += pm.Committed + pm.Aborted
	}
	if sum != open.Committed+open.Aborted {
		t.Fatalf("per-proc totals %d != %d committed+aborted", sum, open.Committed+open.Aborted)
	}
	if !c.Quiesced() {
		t.Fatal("cluster not quiesced after open-loop run")
	}
}
