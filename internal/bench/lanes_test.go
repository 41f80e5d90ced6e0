package bench

import (
	"runtime"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
)

// lanedBankCluster is bankCluster with an explicit per-node lane count
// (the shared helper lets the host derive it, which is 1 on single-core
// CI runners — these tests need the multi-lane paths exercised
// regardless of the host).
func lanedBankCluster(t *testing.T, partitions, replication, lanes int, b *Bank) *Cluster {
	t.Helper()
	def := cluster.RangePartitioner{
		N: partitions,
		MaxKey: map[storage.TableID]storage.Key{
			BankTable: storage.Key(partitions * b.AccountsPerPartition),
		},
	}
	c := NewCluster(ClusterConfig{
		Partitions:  partitions,
		Replication: replication,
		Latency:     2 * time.Microsecond,
		Seed:        7,
		Lanes:       lanes,
	}, def)
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	return c
}

// Conservation with lanes > 1 is the serializability invariant for the
// sharded engine: money moved between accounts on different lanes (and
// different nodes) must still sum to the initial total, under both the
// deterministic runner and a contended closed loop.
func TestBankConservationWithLanes(t *testing.T) {
	b := &Bank{AccountsPerPartition: 50, RemoteProb: 0.4, HotProb: 0.4}
	c := lanedBankCluster(t, 3, 2, 4, b)
	defer c.Close()
	b.MarkCelebritiesHot(c)
	if got := c.Nodes[0].NumLanes(); got != 4 {
		t.Fatalf("node lanes = %d, want 4", got)
	}

	before := c.TotalBalance(b)
	m := c.RunN(b, EngineChiller, 150, 31)
	if m.Committed != 3*150 {
		t.Fatalf("committed %d, want 450", m.Committed)
	}
	if m.Lanes != 4 {
		t.Fatalf("metrics lanes = %d, want 4", m.Lanes)
	}
	if after := c.TotalBalance(b); after != before {
		t.Fatalf("balance leak with lanes: %d → %d (Δ=%d)", before, after, after-before)
	}
	if !c.Quiesced() {
		t.Fatal("locks leaked after laned run")
	}
	if mm := c.VerifyReplicaConsistency(BankTable); mm != 0 {
		t.Fatalf("%d replica mismatches with lanes", mm)
	}

	// Contended closed loop on top: many clients per partition so
	// distinct lanes genuinely run concurrent inner regions.
	mid := c.TotalBalance(b)
	cm := c.Run(b, RunConfig{
		Engine:      EngineChiller,
		Concurrency: 6,
		Duration:    150 * time.Millisecond,
		Seed:        17,
	})
	if cm.Committed == 0 {
		t.Fatal("closed loop committed nothing")
	}
	if after := c.TotalBalance(b); after != mid {
		t.Fatalf("closed-loop balance leak with lanes: %d → %d", mid, after)
	}
	if !c.Quiesced() {
		t.Fatal("locks leaked after closed loop")
	}
}

// The same invariant must hold when lane placements come from the
// contention-centric partitioner (hot records pinned to explicit lanes
// rather than the stable hash).
func TestBankConservationWithPlacedLanes(t *testing.T) {
	b := &Bank{AccountsPerPartition: 40, RemoteProb: 0.3, HotProb: 0.5}
	c := lanedBankCluster(t, 2, 2, 3, b)
	defer c.Close()
	// Pin each celebrity to a chosen lane (round-robin), the way a
	// Layout with Lane entries installs.
	for p := 0; p < b.Partitions; p++ {
		rid := storage.RID{Table: BankTable, Key: b.CelebrityKey(p)}
		c.Dir.SetHotPlacement(rid, c.Dir.Default().Partition(rid), 2.0, p%3)
	}
	before := c.TotalBalance(b)
	if m := c.RunN(b, EngineChiller, 120, 5); m.Committed != 2*120 {
		t.Fatalf("committed %d, want 240", m.Committed)
	}
	if after := c.TotalBalance(b); after != before {
		t.Fatalf("balance leak with placed lanes: %d → %d", before, after)
	}
	if mm := c.VerifyReplicaConsistency(BankTable); mm != 0 {
		t.Fatalf("%d replica mismatches with placed lanes", mm)
	}
}

// Figure 9a's intra-node scale-out: TPC-C throughput must rise
// monotonically as lanes per node go 1 → 4. Lanes add real parallelism
// only when the host has cores to run them, so the shape is asserted
// only on ≥4-CPU machines (single-core CI still exercises the sweep's
// correctness through the other lane tests).
func TestTPCCLaneScalingMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep; run without -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("intra-node scaling needs ≥4 CPUs, host has %d", runtime.NumCPU())
	}
	opt := DefaultOptions()
	opt.Duration = 300 * time.Millisecond
	opt.Latency = time.Microsecond
	opt.Replication = 1
	opt.Warehouses = 2
	opt.Customers = 60
	opt.Items = 400
	opt.MaxConcurrency = 12 // clients per warehouse: enough to saturate one lane

	fig, err := Figure9Lanes(opt)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, lanes := range []float64{1, 2, 3, 4} {
		y, ok := fig.Get(string(EngineChiller), lanes)
		if !ok {
			t.Fatalf("missing Chiller point at %v lanes", lanes)
		}
		// Monotone within the simulation's run-to-run noise (the verify
		// notes document ±15% on shared hosts): no step may lose more
		// than 10%, and the sweep overall must gain (checked below).
		if y < prev*0.90 {
			t.Fatalf("throughput fell %v → %v lanes: %.0f → %.0f", lanes-1, lanes, prev, y)
		}
		prev = y
	}
	one, _ := fig.Get(string(EngineChiller), 1)
	four, _ := fig.Get(string(EngineChiller), 4)
	if four < one*1.15 {
		t.Fatalf("1→4 lanes gained only %.0f → %.0f txns/s (want ≥ +15%%)", one, four)
	}
}
