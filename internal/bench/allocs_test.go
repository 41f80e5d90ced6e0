package bench

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/core"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// Allocation ceilings for the Chiller commit path: the region decision
// and one whole local NewOrder on a one-node cluster (the write-set
// codecs and the lane grouping have theirs in internal/server). The
// commit path allocates what it keeps — the read set, the values the
// mutators build, the records' slots — and its working memory is pooled
// (core's scratch), so a count that creeps up is a regression that
// fails here, before the next benchmark run (docs/ARCHITECTURE.md has
// the budget by layer).
func TestCommitPathAllocations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := tpcc.Config{
		Warehouses: 1, Partitions: 1, CustomersPerDistrict: 30, Items: 200,
		NewOrderPct: 100, FixedOrderLines: 10,
	}
	c := NewCluster(ClusterConfig{Partitions: 1, Replication: 1, Latency: time.Nanosecond, Lanes: 2},
		tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
	defer c.Close()
	if err := tpcc.RegisterAll(c.Registry); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(c, cfg); err != nil {
		t.Fatal(err)
	}
	tpcc.MarkHot(c.Dir, cfg)
	w, err := tpcc.NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	rng := rand.New(rand.NewSource(42))
	reqs := make([]*txn.Request, 2*(runs+1)) // AllocsPerRun warms up with one extra call
	for i := range reqs {
		reqs[i] = w.Next(0, rng)
	}
	engine := c.Engine(EngineChiller, 0).(*core.Engine)

	next := 0
	decide := testing.AllocsPerRun(runs, func() {
		if dec, err := engine.Decide(reqs[next]); err != nil || !dec.TwoRegion {
			t.Fatalf("decide: %+v %v", dec, err)
		}
		next++
	})
	if decide > 1 {
		t.Errorf("region decision of a NewOrder: %v allocations, want 1 (the op lists)", decide)
	}

	// What a 10-line NewOrder keeps: its read set and the 23 values its
	// mutators build (10 stock rows, the district, 12 inserted rows); the
	// remainder is the participant state, the lane hand-off and the
	// request's own decision. The slots the inserts take come from their
	// tables' slabs, a chunk now and then. The ceiling is the measured 32
	// plus a tenth (43 while every slot array was an object of its own,
	// 99 before the scratch and the value hand-over).
	const ceiling = 35
	newOrder := testing.AllocsPerRun(runs, func() {
		if res := engine.Run(context.Background(), reqs[next]); !res.Committed {
			t.Fatalf("new order: %v %s", res.Reason, res.Detail)
		}
		next++
	})
	c.Drain()
	t.Logf("one local 10-line NewOrder: %v allocations (ceiling %d)", newOrder, ceiling)
	if newOrder > ceiling {
		t.Errorf("one local 10-line NewOrder: %v allocations, ceiling %d", newOrder, ceiling)
	}
}

// The same ceiling for the baselines: one distributed 10-line NewOrder
// (one line supplied by the other node's warehouse) under 2PL and under
// OCC, coordinator and participant allocations together. Both run on the
// pooled cc.Txn Chiller's scratch is built on, so what they allocate is
// what they keep or put on the wire — 2PL stood at 105 and OCC at 157
// when each had a private context of maps, and OCC at 112 while its
// execution reads and validations were two-sided calls, one per record
// or participant, each with a request, a response and a decoded read
// set. Now its reads and validations are wave frames too.
func TestBaselineCommitPathAllocations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := tpcc.Config{
		Warehouses: 2, Partitions: 2, CustomersPerDistrict: 30, Items: 200,
		NewOrderPct: 100, FixedOrderLines: 10, TxnLevelRemote: true, TxnRemoteProb: 1,
	}
	c := NewCluster(ClusterConfig{Partitions: 2, Replication: 1, Latency: time.Nanosecond, Lanes: 2},
		tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
	defer c.Close()
	if err := tpcc.RegisterAll(c.Registry); err != nil {
		t.Fatal(err)
	}
	if err := tpcc.Load(c, cfg); err != nil {
		t.Fatal(err)
	}
	w, err := tpcc.NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	rng := rand.New(rand.NewSource(42))
	reqs := make([]*txn.Request, 2*(runs+1)) // AllocsPerRun warms up with one extra call
	for i := range reqs {
		reqs[i] = w.Next(0, rng)
	}
	for _, tc := range []struct {
		kind    EngineKind
		ceiling float64 // the measured count plus a tenth
	}{
		{Engine2PL, 36}, // 33 (44 while every slot array was an object of its own)
		{EngineOCC, 45}, // 41 (52)
	} {
		engine := c.Engine(tc.kind, 0)
		got := testing.AllocsPerRun(runs, func() {
			res := engine.Run(context.Background(), reqs[0])
			if reqs = reqs[1:]; !res.Committed || !res.Distributed {
				t.Fatalf("%s new order: %+v", engine.Name(), res)
			}
		})
		t.Logf("one distributed 10-line NewOrder under %s: %v allocations (ceiling %v)", engine.Name(), got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("one distributed 10-line NewOrder under %s: %v allocations, ceiling %v", engine.Name(), got, tc.ceiling)
		}
	}
}

// One local 3-read snapshot audit on the Chiller engine: the snapshot
// policy runs on the pooled cc.Txn and reads straight into the read set,
// its values copied into the transaction's buffer (which allocates once
// per 4 KiB read), so the read set's map is all it allocates. The ceiling is the measured
// 2 plus a tenth (it was 13 when the snapshot path had an interpreter of
// its own and a response and a map per read).
func TestSnapshotAuditAllocations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	b := &Bank{AccountsPerPartition: 10}
	c := NewCluster(ClusterConfig{Partitions: 1, Replication: 1, Latency: time.Nanosecond, MVCC: true},
		cluster.RangePartitioner{N: 1, MaxKey: map[storage.TableID]storage.Key{BankTable: 10}})
	defer c.Close()
	if err := SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	req := &txn.Request{Proc: BankSnapAuditProc, Args: txn.Args{1, 2, 3}}
	engine := c.Engine(EngineChiller, 0)
	const ceiling = 2
	got := testing.AllocsPerRun(200, func() {
		if res := engine.Run(context.Background(), req); !res.Committed || res.Distributed {
			t.Fatalf("audit: %+v", res)
		}
	})
	t.Logf("one local 3-read snapshot audit: %v allocations (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("one local 3-read snapshot audit: %v allocations, ceiling %d", got, ceiling)
	}
}

// The pooled context must carry nothing from one baseline transaction
// into the next: a distributed NewOrder that buffers its district
// increment and stock updates and then aborts (its last line names an
// item that does not exist), followed by another order, leaves no trace
// in what that order reads or writes — under 2PL and under OCC, the
// context through the pool in between. The aborted order is built so a
// leak would show: its first line updates the stock record the valid
// order's second line updates (a stale own-write entry would shadow that
// read), and its third line updates a stock record the valid order never
// touches (a stale buffered write would reach the store). Chiller's
// scratch has the same test in internal/core; the arrays themselves are
// checked in internal/cc (TestReleasePinsNothing).
func TestBaselineContextDoesNotLeakAbortedWrites(t *testing.T) {
	cfg := tpcc.Config{
		Warehouses: 2, Partitions: 2, CustomersPerDistrict: 30, Items: 200,
		NewOrderPct: 100, FixedOrderLines: 10, TxnLevelRemote: true, TxnRemoteProb: 1,
	}
	w, err := tpcc.NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := w.Next(0, rand.New(rand.NewSource(42)))
	home := good.Args[0]
	const line = 3 // args per line: item, supplying warehouse, quantity; line i starts at 3+3i
	unused := int64(0)
	for i := 3; i < len(good.Args); i += line {
		unused = max(unused, good.Args[i]+1)
	}
	if unused >= int64(cfg.Items) {
		t.Fatalf("no item left outside the order: %v", good.Args)
	}
	bad := &txn.Request{Proc: good.Proc, Args: append(txn.Args(nil), good.Args...)}
	copy(bad.Args[3:3+line], good.Args[3+line:3+2*line])                                    // line 0 := the valid order's line 1
	bad.Args[3+2*line], bad.Args[4+2*line] = unused, home                                   // line 2: a record only this order touches
	bad.Args[len(bad.Args)-line], bad.Args[len(bad.Args)-line+1] = int64(cfg.Items+7), home // last line: no such item
	district := tpcc.DistrictKey(int(home), int(good.Args[1]))
	shared := tpcc.StockKey(int(good.Args[4+line]), int(good.Args[3+line]))
	private := tpcc.StockKey(int(home), int(unused))

	for _, kind := range []EngineKind{Engine2PL, EngineOCC} {
		c := NewCluster(ClusterConfig{Partitions: 2, Replication: 1, Latency: time.Nanosecond, Lanes: 2},
			tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
		if err := tpcc.RegisterAll(c.Registry); err != nil {
			t.Fatal(err)
		}
		if err := tpcc.Load(c, cfg); err != nil {
			t.Fatal(err)
		}
		engine := c.Engine(kind, 0)
		stored := func(table storage.TableID, key storage.Key) string {
			node := c.Nodes[c.Topo.Primary(c.Dir.Partition(storage.RID{Table: table, Key: key}))]
			v, _, err := node.Store().Table(table).Bucket(key).Get(key)
			if err != nil {
				t.Fatalf("%s: %v", engine.Name(), err)
			}
			return string(v)
		}
		wantDistrict, wantShared, wantPrivate := stored(tpcc.TableDistrict, district), stored(tpcc.TableStock, shared), stored(tpcc.TableStock, private)
		for i := 0; i < 3; i++ {
			if res := engine.Run(context.Background(), bad); res.Committed || res.Reason != txn.AbortNotFound {
				t.Fatalf("%s: order with an unknown item: %+v", engine.Name(), res)
			}
		}
		res := engine.Run(context.Background(), good)
		if !res.Committed {
			t.Fatalf("%s: valid order: %v %s", engine.Name(), res.Reason, res.Detail)
		}
		if got := string(res.Reads[1]); got != wantDistrict {
			t.Errorf("%s: after aborted orders the district update read %v, want the stored %v", engine.Name(), []byte(got), []byte(wantDistrict))
		}
		if got := string(res.Reads[4]); got != wantShared {
			t.Errorf("%s: after aborted orders the second stock update read %v, want the stored %v", engine.Name(), []byte(got), []byte(wantShared))
		}
		if got := stored(tpcc.TableStock, private); got != wantPrivate {
			t.Errorf("%s: a stock record only the aborted orders touched changed: %v, was %v", engine.Name(), []byte(got), []byte(wantPrivate))
		}
		before := tpcc.DecodeDistrict([]byte(wantDistrict)).NextOID
		if got := tpcc.DecodeDistrict([]byte(stored(tpcc.TableDistrict, district))).NextOID; got != before+1 {
			t.Errorf("%s: district next order id %d after one committed order from %d", engine.Name(), got, before)
		}
		if !c.Quiesced() {
			t.Errorf("%s: participant state left behind", engine.Name())
		}
		c.Close()
	}
}
