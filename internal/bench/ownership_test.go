package bench

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// The store copies the slice a mutator returns into its value chunks
// on every apply: the inner-region apply, a coordinator's own-node
// commit, a remote commit and a replica's. This is the guard for the
// mutators that do not build a fresh exact-length value: one returns old
// untouched, one a window into a buffer its caller reuses, one a slice
// with spare capacity. The caller then scribbles over every buffer it
// still holds; the stored values — primary and replica — must not
// change, and no stored value may expose more memory than it holds. It
// runs on a clockless store and on one that retains versions. Run it
// under -race: the scribbling races any reader that still aliases those
// buffers.
func TestMutatorValuesAreOwnedSafely(t *testing.T) {
	for _, kind := range []EngineKind{EngineChiller, Engine2PL, EngineOCC} {
		t.Run(string(kind), func(t *testing.T) {
			for _, mvcc := range []bool{false, true} {
				t.Run(fmt.Sprintf("mvcc=%v", mvcc), func(t *testing.T) { testOwnedValues(t, kind, mvcc) })
			}
		})
	}
}

func testOwnedValues(t *testing.T, kind EngineKind, mvcc bool) {
	const ownTable storage.TableID = 77
	// Keys 0-2 are hot (inner region); 10-12 are cold and live on the
	// coordinator's partition, so they commit through the own-node
	// short-circuit; 110-112 live on the other partition and travel
	// encoded. Key k's mutator is picked by k%10.
	keys := []storage.Key{0, 1, 2, 10, 11, 12, 110, 111, 112}
	initial := func(k storage.Key) []byte { return []byte(fmt.Sprintf("initial-%03d", k)) }
	window := func(k storage.Key) []byte { return []byte(fmt.Sprintf("window-%03d", k)) }
	spare := func(k storage.Key) []byte { return []byte(fmt.Sprintf("spare-%03d", k)) }

	c := NewCluster(ClusterConfig{Partitions: 2, Replication: 2, Latency: 2 * time.Microsecond, Seed: 7, Lanes: 2, MVCC: mvcc},
		cluster.RangePartitioner{N: 2, MaxKey: map[storage.TableID]storage.Key{ownTable: 200}})
	defer c.Close()
	c.CreateTable(ownTable, 64)
	for _, k := range keys {
		if err := c.LoadRecord(ownTable, k, initial(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := storage.Key(0); k < 3; k++ {
		c.Dir.SetHot(storage.RID{Table: ownTable, Key: k}, 0)
	}

	// The buffers the caller keeps: one backs every window value,
	// the others are the spare-capacity values themselves.
	backing := make([]byte, 0, 4096)
	var kept [][]byte
	proc := &txn.Procedure{Name: "own.mix"}
	for i, k := range keys {
		var mutate txn.MutateFunc
		switch k % 10 {
		case 0: // old, untouched
			mutate = func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) { return old, nil }
		case 1: // an interior window of a buffer the caller reuses
			mutate = func([]byte, txn.Args, txn.ReadSet) ([]byte, error) {
				start := len(backing) + 8
				backing = append(backing, make([]byte, 8)...)
				backing = append(backing, window(k)...)
				backing = append(backing, make([]byte, 8)...)
				return backing[start : start+len(window(k))], nil
			}
		case 2: // spare capacity behind the value
			mutate = func([]byte, txn.Args, txn.ReadSet) ([]byte, error) {
				v := append(make([]byte, 0, 64), spare(k)...)
				kept = append(kept, v)
				return v, nil
			}
		}
		proc.Ops = append(proc.Ops, txn.OpSpec{
			ID: i, Type: txn.OpUpdate, Table: ownTable, Mutate: mutate,
			Key: func(txn.Args, txn.ReadSet) (storage.Key, bool) { return k, true },
		})
	}
	c.Registry.MustRegister(proc)

	req := &txn.Request{Proc: proc.Name, Args: txn.Args{1, 2, 3}}
	var res txn.Result
	for attempt := 0; attempt < 100 && !res.Committed; attempt++ {
		res = c.Engine(kind, 0).Run(context.Background(), req)
	}
	if !res.Committed {
		t.Fatalf("did not commit: %v %s", res.Reason, res.Detail)
	}
	c.Drain()
	c.Settle()

	// Scribble over everything the caller still holds.
	for i := range backing[:cap(backing)] {
		backing[:cap(backing)][i] = 0xEE
	}
	for _, v := range kept {
		for i := range v[:cap(v)] {
			v[:cap(v)][i] = 0xEE
		}
	}
	for i := range req.Args {
		req.Args[i] = -1
	}

	for _, k := range keys {
		want := map[storage.Key][]byte{0: initial(k), 1: window(k), 2: spare(k)}[k%10]
		copies := 0
		for id, n := range c.Nodes {
			v, _, err := n.Store().Table(ownTable).Bucket(k).Get(k)
			if err != nil {
				continue // this node holds no copy of k's partition
			}
			copies++
			if !bytes.Equal(v, want) {
				t.Errorf("key %d at node %d: stored %q, want %q", k, id, v, want)
			}
			if cap(v) != len(v) {
				t.Errorf("key %d at node %d: stored value pins %d bytes for %d", k, id, cap(v), len(v))
			}
		}
		if copies != 2 {
			t.Errorf("key %d: %d stored copies, want primary and replica", k, copies)
		}
	}
	if mm := c.VerifyReplicaConsistency(ownTable); mm != 0 {
		t.Errorf("%d replica mismatches", mm)
	}
}
