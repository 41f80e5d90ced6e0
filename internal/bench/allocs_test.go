package bench

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/core"
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

	// What a 10-line NewOrder keeps: its read set, the 23 values its
	// mutators build (10 stock rows, the district, 12 inserted rows) and
	// the slots the inserts take; the remainder is the participant
	// state, the lane hand-off and the request's own decision. The
	// ceiling is the measured 47 plus a tenth (it was 99 before the
	// scratch and the value hand-over).
	const ceiling = 51
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
