package bench

import (
	"context"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

func bankCluster(t *testing.T, partitions, replication int, b *Bank) *Cluster {
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
	}, def)
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	return c
}

// Money conservation under concurrency is the serializability smoke test:
// any lost or double-applied update shifts the total.
func TestBankConservationAllEngines(t *testing.T) {
	for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			b := &Bank{AccountsPerPartition: 50, RemoteProb: 0.3, HotProb: 0.2}
			c := bankCluster(t, 4, 2, b)
			defer c.Close()
			b.MarkCelebritiesHot(c)

			before := c.TotalBalance(b)
			m := c.RunN(b, kind, 150, 11)
			if m.Committed != 4*150 {
				t.Fatalf("committed %d, want 600", m.Committed)
			}
			after := c.TotalBalance(b)
			if before != after {
				t.Fatalf("balance leak: %d → %d (Δ=%d)", before, after, after-before)
			}
			if !c.Quiesced() {
				t.Fatal("locks leaked after run")
			}
			if mm := c.VerifyReplicaConsistency(BankTable); mm != 0 {
				t.Fatalf("%d replica mismatches", mm)
			}
		})
	}
}

func TestBankClosedLoopRun(t *testing.T) {
	b := &Bank{AccountsPerPartition: 100, RemoteProb: 0.2, HotProb: 0.1}
	c := bankCluster(t, 2, 1, b)
	defer c.Close()
	b.MarkCelebritiesHot(c)

	m := c.Run(b, RunConfig{
		Engine:      EngineChiller,
		Concurrency: 3,
		Duration:    200 * time.Millisecond,
		Seed:        5,
	})
	if m.Committed == 0 {
		t.Fatal("no transactions committed in closed loop")
	}
	if m.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if !c.Quiesced() {
		t.Fatal("locks leaked")
	}
}

// The two-region decision must actually trigger for hot records.
func TestChillerUsesTwoRegion(t *testing.T) {
	b := &Bank{AccountsPerPartition: 20}
	c := bankCluster(t, 2, 1, b)
	defer c.Close()
	b.MarkCelebritiesHot(c)

	eng := c.Engine(EngineChiller, 0)
	type decider interface {
		Decide(req *txn.Request) (interface{ InnerSet() map[int]bool }, error)
	}
	_ = eng
	// Request: transfer from partition 0's celebrity (hot) to a cold
	// remote account.
	ce, ok := eng.(interface {
		Run(context.Context, *txn.Request) txn.Result
	})
	if !ok {
		t.Fatal("engine lost its Run method?!")
	}
	req := &txn.Request{
		Proc: BankTransferProc,
		Args: txn.Args{int64(b.CelebrityKey(0)), int64(b.CelebrityKey(1) + 5), 7},
	}
	res := ce.Run(context.Background(), req)
	if !res.Committed {
		t.Fatalf("hot transfer aborted: %v", res.Reason)
	}
	if !res.Distributed {
		t.Fatal("cross-partition transfer not counted distributed")
	}
	// Verify effects.
	srcBal := readBalance(t, c, b.CelebrityKey(0))
	if srcBal != InitialBalance-7 {
		t.Fatalf("src balance %d, want %d", srcBal, InitialBalance-7)
	}
}

func readBalance(t *testing.T, c *Cluster, key storage.Key) int64 {
	t.Helper()
	rid := storage.RID{Table: BankTable, Key: key}
	node := c.Nodes[int(c.Topo.Primary(c.Dir.Partition(rid)))]
	v, _, err := node.Store().Table(BankTable).Bucket(key).Get(key)
	if err != nil {
		t.Fatalf("read %v: %v", rid, err)
	}
	return DecodeBalance(v)
}

// A constraint violation (overdraft) must abort cleanly on every engine,
// leaving no partial effects and no locks.
func TestConstraintAbortNoPartialEffects(t *testing.T) {
	for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			b := &Bank{AccountsPerPartition: 10}
			def := cluster.RangePartitioner{
				N:      2,
				MaxKey: map[storage.TableID]storage.Key{BankTable: 20},
			}
			c := NewCluster(ClusterConfig{Partitions: 2, Latency: time.Microsecond}, def)
			defer c.Close()
			if err := SetupBank(c, b, false); err != nil { // overdrafts forbidden
				t.Fatal(err)
			}
			req := &txn.Request{
				Proc: BankTransferProc,
				Args: txn.Args{0, 15, InitialBalance + 1}, // more than the balance
			}
			res := c.Engine(kind, 0).Run(context.Background(), req)
			if res.Committed {
				t.Fatal("overdraft committed")
			}
			if res.Reason != txn.AbortConstraint {
				t.Fatalf("reason = %v, want constraint", res.Reason)
			}
			if got := readBalance(t, c, 0); got != InitialBalance {
				t.Fatalf("src mutated to %d on abort", got)
			}
			if got := readBalance(t, c, 15); got != InitialBalance {
				t.Fatalf("dst mutated to %d on abort", got)
			}
			if !c.Quiesced() {
				t.Fatal("locks leaked after abort")
			}
		})
	}
}

// Lock conflicts must abort (NO_WAIT), and an aborted transaction must
// leave the conflicting lock holder untouched.
func TestNoWaitConflictAborts(t *testing.T) {
	b := &Bank{AccountsPerPartition: 10}
	c := bankCluster(t, 2, 1, b)
	defer c.Close()

	// Manually hold an exclusive lock on account 0's bucket.
	node := c.Nodes[0]
	bkt := node.Store().Table(BankTable).Bucket(0)
	if !bkt.Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup lock failed")
	}
	defer bkt.Lock.Unlock(storage.LockExclusive)

	req := &txn.Request{Proc: BankTransferProc, Args: txn.Args{0, 5, 1}}
	res := c.Engine(Engine2PL, 0).Run(context.Background(), req)
	if res.Committed {
		t.Fatal("transaction committed through a held lock")
	}
	if res.Reason != txn.AbortLockConflict {
		t.Fatalf("reason = %v, want lock-conflict", res.Reason)
	}
}

// Read-only audits must commit on all engines and see a consistent total.
func TestAuditReadsConsistentSnapshot(t *testing.T) {
	b := &Bank{AccountsPerPartition: 10}
	c := bankCluster(t, 2, 1, b)
	defer c.Close()
	for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
		req := &txn.Request{Proc: BankAuditProc, Args: txn.Args{0, 5, 15}}
		res := c.Engine(kind, 0).Run(context.Background(), req)
		if !res.Committed {
			t.Fatalf("%s: audit aborted: %v", kind, res.Reason)
		}
		sum := DecodeBalance(res.Reads[0]) + DecodeBalance(res.Reads[1]) + DecodeBalance(res.Reads[2])
		if sum != 3*InitialBalance {
			t.Fatalf("%s: audit sum %d, want %d", kind, sum, 3*InitialBalance)
		}
	}
}

// Replicas of the inner region must converge: run hot traffic through
// Chiller with replication and compare stores afterwards.
func TestInnerReplicationConverges(t *testing.T) {
	b := &Bank{AccountsPerPartition: 30, RemoteProb: 0.5, HotProb: 0.6}
	c := bankCluster(t, 3, 2, b)
	defer c.Close()
	b.MarkCelebritiesHot(c)

	m := c.RunN(b, EngineChiller, 200, 13)
	if m.Committed != 600 {
		t.Fatalf("committed %d", m.Committed)
	}
	// All inner-replication acks were awaited inside Run, so replica
	// stores must already match primaries exactly.
	if mm := c.VerifyReplicaConsistency(BankTable); mm != 0 {
		t.Fatalf("%d replica mismatches after inner replication", mm)
	}
}

// Sampling: with SampleRate enabled the cluster's sampler accumulates
// access sets the statistics service can aggregate.
func TestSamplingPipeline(t *testing.T) {
	b := &Bank{AccountsPerPartition: 20, HotProb: 0.5}
	def := cluster.RangePartitioner{
		N:      2,
		MaxKey: map[storage.TableID]storage.Key{BankTable: 40},
	}
	c := NewCluster(ClusterConfig{
		Partitions: 2,
		Latency:    time.Microsecond,
		SampleRate: 1.0,
	}, def)
	defer c.Close()
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	c.RunN(b, Engine2PL, 50, 3)
	total, sampled := c.Sampler.Counts()
	if total == 0 || sampled == 0 {
		t.Fatalf("sampler saw %d/%d", sampled, total)
	}
	samples := c.Sampler.Drain()
	if len(samples) == 0 {
		t.Fatal("no samples drained")
	}
	// Every transfer writes two records.
	if len(samples[0].Writes) != 2 {
		t.Fatalf("sample writes = %v", samples[0].Writes)
	}
}
