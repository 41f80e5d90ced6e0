package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
)

const laneTestTable storage.TableID = 1

// lanedNode builds a one-node cluster with the given lane count and a
// touch procedure whose mutator invokes hook(key) while the inner
// region holds the record's bucket lock on its owning lane.
func lanedNode(t *testing.T, lanes int, hook func(k storage.Key)) *server.Node {
	t.Helper()
	net := simfab.New(simfab.Config{})
	topo := cluster.NewTopology(1, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 1})
	dir.SetLanes(lanes)
	st := storage.NewStore()
	tbl := st.CreateTable(laneTestTable, 256)
	for k := storage.Key(0); k < 128; k++ {
		if err := tbl.Bucket(k).Insert(k, []byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	reg := txn.NewRegistry()
	if err := reg.Register(&txn.Procedure{
		Name: "lanes.touch",
		Ops: []txn.OpSpec{{
			ID:    0,
			Type:  txn.OpUpdate,
			Table: laneTestTable,
			Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
				return storage.Key(args[0]), true
			},
			Mutate: func(old []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
				hook(storage.Key(args[0]))
				return []byte{old[0] + 1}, nil
			},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	n := server.New(net.Endpoint(0), st, reg, dir, 0)
	t.Cleanup(func() {
		net.Close()
		n.Close()
	})
	return n
}

// keysOnLane returns count distinct keys whose stable lane is `lane`,
// skipping every `avoid` key (so same-lane keys can still differ).
func keysOnLane(t *testing.T, lane, lanes, count int, avoid map[storage.Key]bool) []storage.Key {
	t.Helper()
	var out []storage.Key
	for k := storage.Key(0); k < 128 && len(out) < count; k++ {
		if avoid[k] {
			continue
		}
		if storage.LaneOf(storage.RID{Table: laneTestTable, Key: k}, lanes) == lane {
			out = append(out, k)
		}
	}
	if len(out) < count {
		t.Fatalf("could not find %d keys on lane %d", count, lane)
	}
	return out
}

func runInner(n *server.Node, key storage.Key) *txn.Result {
	reason := execInnerOn(n, n.NextTxnID(), n.Registry().Lookup("lanes.touch"),
		txn.Args{int64(key)}, []int{0}, txn.ReadSet{})
	return &txn.Result{Committed: reason == txn.AbortNone, Reason: reason}
}

// Inner regions whose hot records live on distinct lanes must execute
// concurrently: each region's mutator waits for the other region to
// enter — a rendezvous that deadlocks under the old node-wide inner
// mutex and under any regression that collapses lanes back to one.
func TestInnerRegionsOnDistinctLanesInterleave(t *testing.T) {
	const lanes = 4
	var k0, k1 storage.Key
	gates := map[storage.Key]chan struct{}{}
	hook := func(k storage.Key) {
		close(gates[k])
		var other storage.Key
		if k == k0 {
			other = k1
		} else {
			other = k0
		}
		select {
		case <-gates[other]:
		case <-time.After(5 * time.Second):
			// Let the region finish; the test fails on the flag below.
		}
	}
	n := lanedNode(t, lanes, hook)
	k0 = keysOnLane(t, 0, lanes, 1, nil)[0]
	k1 = keysOnLane(t, 1, lanes, 1, nil)[0]
	gates[k0], gates[k1] = make(chan struct{}), make(chan struct{})

	var wg sync.WaitGroup
	results := make([]*txn.Result, 2)
	start := time.Now()
	for i, k := range []storage.Key{k0, k1} {
		i, k := i, k
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runInner(n, k)
		}()
	}
	wg.Wait()
	if time.Since(start) > 4*time.Second {
		t.Fatal("distinct-lane inner regions serialized (rendezvous timed out)")
	}
	for i, r := range results {
		if !r.Committed {
			t.Fatalf("region %d aborted: %v", i, r.Reason)
		}
	}
}

// Inner regions on the same lane must serialize even when they touch
// different records: the lane is a single-threaded engine. The hook
// bumps an unsynchronized counter (-race proves mutual exclusion) and
// an in-flight gauge (catches overlap without -race).
func TestInnerRegionsOnSameLaneSerialize(t *testing.T) {
	const lanes = 4
	plain := 0
	var inFlight, maxInFlight atomic.Int32
	hook := func(storage.Key) {
		if cur := inFlight.Add(1); cur > maxInFlight.Load() {
			maxInFlight.Store(cur)
		}
		plain++
		inFlight.Add(-1)
	}
	n := lanedNode(t, lanes, hook)
	keys := keysOnLane(t, 2, lanes, 4, nil)

	const perKey = 50
	var wg sync.WaitGroup
	var aborted atomic.Int32
	for _, k := range keys {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				if r := runInner(n, k); !r.Committed {
					aborted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := aborted.Load(); got != 0 {
		t.Fatalf("%d same-lane inner regions aborted — lane serialization should prevent every conflict", got)
	}
	if plain != len(keys)*perKey {
		t.Fatalf("lost mutator runs: %d, want %d", plain, len(keys)*perKey)
	}
	if maxInFlight.Load() != 1 {
		t.Fatalf("same-lane inner regions overlapped (max in flight %d)", maxInFlight.Load())
	}
}
