package bench_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/workload/instacart"
	"github.com/chillerdb/chiller/internal/workload/tpcc"
)

// loadRecord is one record a loader produced.
type loadRecord struct {
	table storage.TableID
	key   storage.Key
	value []byte
}

// recorder is a Loader that keeps what it is given; failAt > 0 fails the
// failAt'th LoadRecord call, and every later one.
type recorder struct {
	mu      sync.Mutex
	tables  map[storage.TableID]int
	records []loadRecord
	calls   atomic.Int64
	failAt  int64
}

var errInjected = errors.New("injected load failure")

func (r *recorder) CreateTable(id storage.TableID, buckets int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tables == nil {
		r.tables = map[storage.TableID]int{}
	}
	r.tables[id] = buckets
}

func (r *recorder) LoadRecord(table storage.TableID, key storage.Key, value []byte) error {
	if n := r.calls.Add(1); r.failAt > 0 && n >= r.failAt {
		return errInjected
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records = append(r.records, loadRecord{table, key, append([]byte(nil), value...)})
	return nil
}

// contents is every record of every table of every node, by node, table
// and key, with its version: content, not slot order.
func contents(c *bench.Cluster) map[string]string {
	out := map[string]string{}
	for _, n := range c.Nodes {
		for _, id := range n.Store().Tables() {
			n.Store().Table(id).Range(func(k storage.Key, v []byte, version uint64) bool {
				out[fmt.Sprintf("node %d table %d key %d", n.ID(), id, k)] = fmt.Sprintf("%x@%d", v, version)
				return true
			})
		}
	}
	return out
}

func sameContents(t *testing.T, serial, parallel *bench.Cluster) {
	t.Helper()
	want, got := contents(serial), contents(parallel)
	if len(want) == 0 {
		t.Fatal("the serial load stored nothing")
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: parallel load holds %q, serial %q", k, got[k], v)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: only the parallel load holds it (%q)", k, v)
		}
	}
}

// relocate points each key of table away from its default partition in
// c's directory, as a layout installed before the load does.
func relocate(c *bench.Cluster, table storage.TableID, keys ...storage.Key) map[storage.RID]cluster.PartitionID {
	moved := map[storage.RID]cluster.PartitionID{}
	for _, k := range keys {
		rid := storage.RID{Table: table, Key: k}
		p := (c.Dir.Partition(rid) + 1) % cluster.PartitionID(c.Cfg.Partitions)
		c.Dir.SetHot(rid, p)
		moved[rid] = p
	}
	return moved
}

// relocatedAtTarget checks that each moved record is on exactly the
// nodes that hold the partition the directory names for it — its
// primary and replicas — and on no other, its default home included.
func relocatedAtTarget(t *testing.T, c *bench.Cluster, moved map[storage.RID]cluster.PartitionID) {
	t.Helper()
	for rid, p := range moved {
		for _, n := range c.Nodes {
			_, _, err := n.Store().Table(rid.Table).Bucket(rid.Key).Get(rid.Key)
			if held := err == nil; held != n.HoldsPartition(p) {
				t.Errorf("%v routed to partition %d: node %d holds it: %v, holds the partition: %v", rid, p, n.ID(), held, !held)
			}
		}
	}
}

// loadBoth builds two 4-partition clusters at replication 2, applies
// layout to each, loads one with serial and the other with parallel,
// and compares them.
func loadBoth(t *testing.T, def cluster.DefaultPartitioner, layout func(*bench.Cluster) map[storage.RID]cluster.PartitionID, serial, parallel func(*bench.Cluster) error) {
	t.Helper()
	var cs [2]*bench.Cluster
	var moved map[storage.RID]cluster.PartitionID
	for i, load := range []func(*bench.Cluster) error{serial, parallel} {
		c := bench.NewCluster(bench.ClusterConfig{Partitions: 4, Replication: 2, Seed: 3}, def)
		t.Cleanup(func() { c.Close() })
		if layout != nil {
			moved = layout(c)
		}
		if err := load(c); err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	sameContents(t, cs[0], cs[1])
	relocatedAtTarget(t, cs[1], moved)
}

// A parallel load stores exactly what a single-goroutine loop through
// the same LoadRecord stores, on every node, with and without a layout
// that relocates records away from their generator's home partition.
func TestParallelLoadEqualsSerial(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 4, Partitions: 4, CustomersPerDistrict: 20, Items: 300}.Defaults()
	const app = 250
	bankDef := cluster.RangePartitioner{N: 4, MaxKey: map[storage.TableID]storage.Key{bench.BankTable: 4 * app}}
	tpccLayout := func(c *bench.Cluster) map[storage.RID]cluster.PartitionID {
		var stock []storage.Key
		for i := 0; i < cfg.Items; i += 7 {
			stock = append(stock, tpcc.StockKey(i%cfg.Warehouses, i))
		}
		moved := relocate(c, tpcc.TableStock, stock...)
		for rid, p := range relocate(c, tpcc.TableCustomer, tpcc.CustomerKey(1, 2, 3)) {
			moved[rid] = p
		}
		return moved
	}
	bankLayout := func(c *bench.Cluster) map[storage.RID]cluster.PartitionID {
		var keys []storage.Key
		for k := 0; k < 4*app; k += 9 {
			keys = append(keys, storage.Key(k))
		}
		return relocate(c, bench.BankTable, keys...)
	}
	icfg := instacart.Config{Products: 10_000, Partitions: 4}
	for _, tc := range []struct {
		name             string
		def              cluster.DefaultPartitioner
		layout           func(*bench.Cluster) map[storage.RID]cluster.PartitionID
		serial, parallel func(*bench.Cluster) error
	}{
		{"tpcc", tpcc.Partitioner(4, 4), nil, serialOf(func(l cluster.Loader) error { return tpcc.Load(l, cfg) }),
			func(c *bench.Cluster) error { return tpcc.Load(c, cfg) }},
		{"tpcc/relocating", tpcc.Partitioner(4, 4), tpccLayout, serialOf(func(l cluster.Loader) error { return tpcc.Load(l, cfg) }),
			func(c *bench.Cluster) error { return tpcc.Load(c, cfg) }},
		{"bank", bankDef, nil, serialBank(app), parallelBank(app)},
		{"bank/relocating", bankDef, bankLayout, serialBank(app), parallelBank(app)},
		{"instacart", instacart.DefaultPartitioner(4), nil, serialOf(func(l cluster.Loader) error { return instacart.Load(l, icfg) }),
			func(c *bench.Cluster) error { return instacart.Load(c, icfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) { loadBoth(t, tc.def, tc.layout, tc.serial, tc.parallel) })
	}
}

// serialOf replays what load produces into a cluster on one goroutine,
// in the order the loader handed it over.
func serialOf(load func(cluster.Loader) error) func(*bench.Cluster) error {
	return func(c *bench.Cluster) error {
		var r recorder
		if err := load(&r); err != nil {
			return err
		}
		for id, buckets := range r.tables {
			c.CreateTable(id, buckets)
		}
		for _, rec := range r.records {
			if err := c.LoadRecord(rec.table, rec.key, rec.value); err != nil {
				return err
			}
		}
		return nil
	}
}

func serialBank(app int) func(*bench.Cluster) error {
	return func(c *bench.Cluster) error {
		c.CreateTable(bench.BankTable, 4096)
		for k := 0; k < 4*app; k++ {
			if err := c.LoadRecord(bench.BankTable, storage.Key(k), bench.EncodeBalance(bench.InitialBalance)); err != nil {
				return err
			}
		}
		return nil
	}
}

func parallelBank(app int) func(*bench.Cluster) error {
	return func(c *bench.Cluster) error {
		return bench.SetupBank(c, &bench.Bank{AccountsPerPartition: app}, true)
	}
}

// A failing LoadRecord surfaces from the loaders, and no goroutine
// outlives the load (internal/cluster's tests pin that the other slices
// stop at their next record).
func TestParallelLoadStopsAtFirstError(t *testing.T) {
	testutil.CheckLeaks(t)
	cfg := tpcc.Config{Warehouses: 8, Partitions: 4, CustomersPerDistrict: 20, Items: 300}.Defaults()
	for _, failAt := range []int64{1, 500, 4000} {
		r := &recorder{failAt: failAt}
		if err := tpcc.Load(r, cfg); !errors.Is(err, errInjected) {
			t.Fatalf("failAt %d: Load returned %v, want the injected error", failAt, err)
		}
	}
	r := &recorder{failAt: 100}
	if err := instacart.Load(r, instacart.Config{Products: 20_000}); !errors.Is(err, errInjected) {
		t.Fatalf("instacart Load returned %v, want the injected error", err)
	}
}

// BenchmarkLoadTPCC loads 4 warehouses at replication 2 (tpcc-dist's
// data) into a fresh cluster per iteration and reports the cost per
// record the generator produces.
func BenchmarkLoadTPCC(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 4, Partitions: 4, CustomersPerDistrict: 3000, Items: 100_000}.Defaults()
	var r recorder
	if err := tpcc.Load(&r, cfg); err != nil {
		b.Fatal(err)
	}
	records := float64(b.N * len(r.records))
	var mallocs uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := bench.NewCluster(bench.ClusterConfig{Partitions: 4, Replication: 2, Seed: 42}, tpcc.Partitioner(cfg.Warehouses, cfg.Partitions))
		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		b.StartTimer()
		if err := tpcc.Load(c, cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
		c.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(mallocs)/records, "allocs/record")
}
