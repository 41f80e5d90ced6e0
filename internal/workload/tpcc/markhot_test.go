package tpcc

import (
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
)

// benchSizes is the benchmark's TPC-C configuration: four warehouses of
// 100 000 items, one per partition.
var benchSizes = Config{Warehouses: 4, Partitions: 4, CustomersPerDistrict: 3000, Items: 100_000}

func newDirectory(cfg Config, lanes int) *cluster.Directory {
	dir := cluster.NewDirectory(cluster.NewTopology(cfg.Partitions, 1), Partitioner(cfg.Warehouses, cfg.Partitions))
	dir.SetLanes(lanes)
	return dir
}

// markHotPerRow marks the contended records hot one lookup-table row at
// a time: every warehouse, district and stock record at its home
// partition with weight 1 — what MarkHot's three rules stand for.
func markHotPerRow(dir *cluster.Directory, cfg Config) {
	set := func(rid storage.RID) { dir.SetHot(rid, dir.Default().Partition(rid)) }
	for w := 0; w < cfg.Warehouses; w++ {
		set(storage.RID{Table: TableWarehouse, Key: WarehouseKey(w)})
		for d := 0; d < DistrictsPerWarehouse; d++ {
			set(storage.RID{Table: TableDistrict, Key: DistrictKey(w, d)})
		}
		for i := 0; i < cfg.Items; i++ {
			set(storage.RID{Table: TableStock, Key: StockKey(w, i)})
		}
	}
}

// MarkHot's rules must make every decision per-row marking makes —
// Partition, Lane, IsHot and HotWeight of every warehouse, district and
// stock record and of a sample of the cold tables, at one lane and two —
// in three lookup-table entries instead of 400 044.
func TestMarkHotMatchesPerRowMarking(t *testing.T) {
	cfg := benchSizes
	if testing.Short() { // -race -short: compare the first tenth of each stock table
		cfg.Items = benchSizes.Items / 10
	}
	var rids []storage.RID
	for w := 0; w < cfg.Warehouses; w++ {
		rids = append(rids, storage.RID{Table: TableWarehouse, Key: WarehouseKey(w)})
		for d := 0; d < DistrictsPerWarehouse; d++ {
			rids = append(rids, storage.RID{Table: TableDistrict, Key: DistrictKey(w, d)})
			for c := 0; c < cfg.CustomersPerDistrict; c += 97 {
				rids = append(rids, storage.RID{Table: TableCustomer, Key: CustomerKey(w, d, c)})
			}
			for o := 0; o < 40; o += 3 {
				ok := OrderKey(w, d, o)
				rids = append(rids, storage.RID{Table: TableOrder, Key: ok}, storage.RID{Table: TableNewOrder, Key: ok})
				for line := 0; line < MaxOrderLines; line += 4 {
					rids = append(rids, storage.RID{Table: TableOrderLine, Key: OrderLineKey(ok, line)})
				}
			}
		}
		for i := 0; i < cfg.Items; i++ {
			rids = append(rids, storage.RID{Table: TableStock, Key: StockKey(w, i)})
		}
		for seq := uint64(1); seq < 1000; seq += 37 {
			rids = append(rids, storage.RID{Table: TableHistory, Key: HistoryKey(w, seq)})
		}
	}

	for _, lanes := range []int{1, 2} {
		rows, rules := newDirectory(cfg, lanes), newDirectory(cfg, lanes)
		markHotPerRow(rows, cfg)
		MarkHot(rules, benchSizes)
		if got := rules.LookupTableSize(); got != 3 {
			t.Fatalf("LookupTableSize after MarkHot = %d, want 3 (one rule per hot table)", got)
		}
		for _, rid := range rids {
			want := [4]any{rows.Partition(rid), rows.Lane(rid), rows.IsHot(rid), rows.HotWeight(rid)}
			got := [4]any{rules.Partition(rid), rules.Lane(rid), rules.IsHot(rid), rules.HotWeight(rid)}
			if got != want {
				t.Fatalf("%d lanes, %v: (Partition, Lane, IsHot, HotWeight) = %v with rules, %v with rows", lanes, rid, got, want)
			}
		}
	}
}

// The set-up cost MarkHot adds to every TPC-C cluster build at the
// benchmark's sizes.
func BenchmarkMarkHot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MarkHot(newDirectory(benchSizes, 2), benchSizes)
	}
}
