package bench

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// The sharpest serializability probe there is: N clients concurrently
// increment one hot counter; the final value must equal the number of
// commits. Any lost update, double apply, or dirty read shifts it.
func TestNoLostUpdatesOnHotCounter(t *testing.T) {
	const counterTable storage.TableID = 9

	enc := func(v int64) []byte {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(v))
		return out
	}
	dec := func(p []byte) int64 { return int64(binary.LittleEndian.Uint64(p)) }

	incProc := &txn.Procedure{
		Name: "counter.inc",
		Ops: []txn.OpSpec{
			{
				ID: 0, Type: txn.OpUpdate, Table: counterTable,
				Key: func(txn.Args, txn.ReadSet) (storage.Key, bool) { return 0, true },
				Mutate: func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
					return enc(dec(old) + 1), nil
				},
			},
		},
	}

	for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := NewCluster(ClusterConfig{
				Partitions:  3,
				Replication: 2,
				Latency:     time.Microsecond,
				Seed:        3,
			}, cluster.HashPartitioner{N: 3})
			defer c.Close()
			if err := c.Registry.Register(incProc); err != nil {
				t.Fatal(err)
			}
			c.CreateTable(counterTable, 8)
			if err := c.LoadRecord(counterTable, 0, enc(0)); err != nil {
				t.Fatal(err)
			}
			rid := storage.RID{Table: counterTable, Key: 0}
			c.Dir.SetHot(rid, c.Dir.Partition(rid))

			var commits atomic.Int64
			var wg sync.WaitGroup
			// 3 partitions × 3 clients, 80 increments each (retrying).
			for p := 0; p < 3; p++ {
				eng := c.Engine(kind, p)
				for k := 0; k < 3; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 80; i++ {
							for {
								res := eng.Run(context.Background(), &txn.Request{Proc: "counter.inc"})
								if res.Committed {
									commits.Add(1)
									break
								}
							}
						}
					}()
				}
			}
			wg.Wait()

			owner := c.Nodes[int(c.Topo.Primary(c.Dir.Partition(rid)))]
			v, _, err := owner.Store().Table(counterTable).Bucket(0).Get(0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dec(v), commits.Load(); got != want {
				t.Fatalf("counter = %d, commits = %d: updates lost or doubled", got, want)
			}
			if got := commits.Load(); got != 3*3*80 {
				t.Fatalf("commits = %d, want 720", got)
			}
			if !c.Quiesced() {
				t.Fatal("locks leaked")
			}
			if mm := c.VerifyReplicaConsistency(counterTable); mm != 0 {
				t.Fatalf("%d replica mismatches", mm)
			}
		})
	}
}
