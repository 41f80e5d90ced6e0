package cluster

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
)

// The lock-free read path against one writer. The writer walks through
// numbered steps; what every accessor must answer for a key at a step is
// a pure function (want), and a reader that started after step lo was
// complete and finished before step hi+1 began must see the answer of
// some step in [lo, hi]. Every field of a row encodes its key, so a slot
// read half from one row and half from another matches no step.
//
// Even steps InstallLayout: the base keys of one parity go to the lookup
// table, the others to the full map only, and the parities swap at every
// install — a reader pairing the new table with the old full map would
// find a key in neither and route it to the default partition 0, which
// no step allows. Each install is followed by enough fresh rows to grow
// the table four times (the full map must ride along), and each odd step
// rewrites the hot base rows in place.
//
// Table 1 is a hot table, declared once at step 0, which every install
// and growth must carry: a base key of table 1 routed by the full map is
// hot with weight 1; one with a row answers from its row.
func TestDirectoryReadersAgainstOneWriter(t *testing.T) {
	const (
		base   = 512  // keys 0..base-1 are checked
		extras = 2048 // fresh rows per install, table sized for base/2: 4 growths
		steps  = 12
		lanes  = 4
	)
	d := NewDirectory(NewTopology(64, 1), FuncPartitioner{Fn: func(storage.RID) PartitionID { return 0 }})
	d.SetLanes(lanes)
	rid := func(k int) storage.RID { return storage.RID{Table: storage.TableID(k%3 + 1), Key: storage.Key(k)} }

	type answer struct {
		hot    bool
		part   PartitionID
		lane   int
		weight float64
	}
	want := func(k, step int) answer {
		install := step &^ 1
		if k%2 != install/2%2 { // routed by the full map of the last install
			a := answer{part: PartitionID(1 + (k+install)%63), lane: storage.LaneOf(rid(k), lanes)}
			if rid(k).Table == 1 {
				a.hot, a.weight = true, 1
			}
			return a
		}
		return answer{hot: true, part: PartitionID(1 + (k+step)%63), lane: (k + step) % lanes, weight: float64(k*1000 + step + 1)}
	}

	var started, done atomic.Int64
	write := func(step int) {
		started.Store(int64(step))
		if step == 0 {
			d.SetHotTable(1)
		}
		if step%2 == 0 {
			hot, full := map[storage.RID]HotPlacement{}, map[storage.RID]PartitionID{}
			for k := 0; k < base; k++ {
				if a := want(k, step); a.hot {
					hot[rid(k)] = HotPlacement{Partition: a.part, Weight: a.weight, Lane: a.lane}
				} else {
					full[rid(k)] = a.part
				}
			}
			d.InstallLayout(hot, full)
			for k := base; k < base+extras; k++ {
				d.SetHot(storage.RID{Table: 9, Key: storage.Key(step*extras + k)}, 5)
			}
			if got, want := d.LookupTableSize(), base/2+extras+base/2+1; got != want {
				t.Errorf("step %d: LookupTableSize = %d, want %d", step, got, want)
			}
			if far := (storage.RID{Table: 1, Key: 1 << 40}); !d.IsHot(far) || d.HotWeight(far) != 1 {
				t.Errorf("step %d: the table-1 rule did not survive the install and growth", step)
			}
		} else {
			for k := 0; k < base; k++ {
				if a := want(k, step); a.hot {
					d.SetHotPlacement(rid(k), a.part, a.weight, a.lane)
				}
			}
		}
		done.Store(int64(step))
	}
	write(0)

	var failed atomic.Bool
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !failed.Load(); i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i * 7 % base
				lo := int(done.Load())
				got := [4]any{d.Partition(rid(k)), d.HotWeight(rid(k)), d.Lane(rid(k)), d.IsHot(rid(k))}
				hi := int(started.Load())
				for f, g := range got {
					ok := false
					for step := lo; step <= hi && !ok; step++ {
						a := want(k, step)
						ok = g == [4]any{a.part, a.weight, a.lane, a.hot}[f]
					}
					if !ok && !failed.Swap(true) {
						t.Errorf("key %d, accessor %d (Partition, HotWeight, Lane, IsHot) = %v: no step in [%d, %d] answers that", k, f, g, lo, hi)
					}
				}
			}
		}(r)
	}
	for step := 1; step < steps; step++ {
		write(step)
	}
	close(stop)
	wg.Wait()
}

func TestSetHotPlacementUpdatesInPlace(t *testing.T) {
	d := NewDirectory(NewTopology(4, 1), HashPartitioner{N: 4})
	d.SetLanes(4)
	rid := storage.RID{Table: 1, Key: 42}
	d.SetHotPlacement(rid, 1, 2.5, 3)
	d.SetHotPlacement(rid, 2, 7, -1)
	if d.LookupTableSize() != 1 {
		t.Fatalf("LookupTableSize = %d after rewriting one row", d.LookupTableSize())
	}
	if p, w := d.Partition(rid), d.HotWeight(rid); p != 2 || w != 7 {
		t.Fatalf("row = (partition %d, weight %v), want (2, 7)", p, w)
	}
	if got, want := d.Lane(rid), storage.LaneOf(rid, 4); got != want {
		t.Fatalf("Lane = %d after unpinning, want the hash lane %d", got, want)
	}
}

// A hot-table rule makes every record of its table hot at its home
// placement with weight 1, and answers only where no row does: a row
// inside the table keeps its partition, pinned lane and weight. Rules
// survive growth and InstallLayout, count once each in LookupTableSize
// and stay out of HotEntries.
func TestHotTableRules(t *testing.T) {
	def := HashPartitioner{N: 4}
	d := NewDirectory(NewTopology(4, 1), def)
	d.SetLanes(4)
	type answer struct {
		part   PartitionID
		lane   int
		hot    bool
		weight float64
	}
	check := func(when string, rid storage.RID, want answer) {
		t.Helper()
		if got := (answer{d.Partition(rid), d.Lane(rid), d.IsHot(rid), d.HotWeight(rid)}); got != want {
			t.Fatalf("%s: %v answers %+v, want %+v", when, rid, got, want)
		}
	}
	home := func(rid storage.RID, hot bool) answer {
		a := answer{def.Partition(rid), storage.LaneOf(rid, 4), hot, 0}
		if hot {
			a.weight = 1
		}
		return a
	}
	row, other, cold := storage.RID{Table: 3, Key: 7}, storage.RID{Table: 3, Key: 8}, storage.RID{Table: 4, Key: 7}
	d.SetHotPlacement(row, 2, 5, 1)
	d.SetHotTable(3)
	check("rule", other, home(other, true))
	check("rule", row, answer{2, 1, true, 5})
	check("rule", cold, home(cold, false))

	d.SetHotTable(3)
	d.SetHotTable(5)
	if n, rows := d.LookupTableSize(), d.HotEntries(); n != 3 || len(rows) != 1 || rows[row] != 2 {
		t.Fatalf("LookupTableSize = %d, HotEntries = %v; want 3 (a row and two rules) and only the row", n, rows)
	}

	for i := 0; i < 100; i++ {
		d.SetHot(storage.RID{Table: 9, Key: storage.Key(i)}, 0)
	}
	check("after growth", other, home(other, true))
	check("after growth", row, answer{2, 1, true, 5})
	if n := d.LookupTableSize(); n != 103 {
		t.Fatalf("after growth LookupTableSize = %d, want 103", n)
	}

	full := storage.RID{Table: 5, Key: 1}
	d.InstallLayout(map[storage.RID]HotPlacement{other: {Partition: 1, Weight: 4, Lane: 3}}, map[storage.RID]PartitionID{full: 3})
	check("after InstallLayout", row, home(row, true))
	check("after InstallLayout", other, answer{1, 3, true, 4})
	check("after InstallLayout", full, answer{3, storage.LaneOf(full, 4), true, 1})
	if n, rows := d.LookupTableSize(), d.HotEntries(); n != 4 || len(rows) != 1 || rows[other] != 1 {
		t.Fatalf("after InstallLayout LookupTableSize = %d, HotEntries = %v; want 4 and only %v", n, rows, other)
	}
}

// HotEntries and LookupTableSize must report what was set, across
// growth, for keys that differ only in their table.
func TestHotEntriesAgreeWithWhatWasSet(t *testing.T) {
	d := NewDirectory(NewTopology(8, 1), HashPartitioner{N: 8})
	oracle := map[storage.RID]PartitionID{}
	for i := 0; i < 3000; i++ {
		rid := storage.RID{Table: storage.TableID(i % 3), Key: storage.Key(i / 3 * 1_000_003)}
		oracle[rid] = PartitionID(i % 8)
		d.SetHot(rid, oracle[rid])
	}
	check := func(full int) {
		t.Helper()
		got := d.HotEntries()
		if len(got) != len(oracle) || d.LookupTableSize() != len(oracle)+full {
			t.Fatalf("HotEntries has %d rows, LookupTableSize = %d; want %d and %d", len(got), d.LookupTableSize(), len(oracle), len(oracle)+full)
		}
		for rid, p := range oracle {
			if got[rid] != p || d.Partition(rid) != p || !d.IsHot(rid) {
				t.Fatalf("%v: HotEntries %d, Partition %d, IsHot %v; want partition %d", rid, got[rid], d.Partition(rid), d.IsHot(rid), p)
			}
		}
	}
	check(0)

	hot := map[storage.RID]HotPlacement{}
	oracle = map[storage.RID]PartitionID{}
	for i := 0; i < 100; i++ {
		rid := storage.RID{Table: 7, Key: storage.Key(i)}
		hot[rid], oracle[rid] = HotPlacement{Partition: PartitionID(i % 8), Weight: 1, Lane: -1}, PartitionID(i%8)
	}
	d.InstallLayout(hot, map[storage.RID]PartitionID{{Table: 8, Key: 1}: 3, {Table: 8, Key: 2}: 4})
	check(2)
}

// A slot's meta word packs the table id, the partition and the lane:
// the largest of each must round-trip, and what does not fit must be
// refused, not truncated.
func TestHotPlacementPackingLimits(t *testing.T) {
	d := NewDirectory(NewTopology(maxHotPartition+2, 1), HashPartitioner{N: 4})
	d.SetLanes(maxHotLane + 1)
	big := storage.RID{Table: 1<<32 - 1, Key: 1<<64 - 1}
	d.SetHotPlacement(big, maxHotPartition, 3, maxHotLane)
	if p, l, w := d.Partition(big), d.Lane(big), d.HotWeight(big); p != maxHotPartition || l != maxHotLane || w != 3 {
		t.Fatalf("largest row read back as (partition %d, lane %d, weight %v)", p, l, w)
	}
	if other := (storage.RID{Table: 1<<31 - 1, Key: big.Key}); d.IsHot(other) {
		t.Fatalf("%v is hot: the table id was truncated", other)
	}

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
		fn()
	}
	rid := storage.RID{Table: 1, Key: 1}
	mustPanic("lane past the slot's 15 bits", func() { d.SetHotPlacement(rid, 0, 1, maxHotLane+1) })
	mustPanic("partition past the slot's 16 bits", func() { d.SetHotPlacement(rid, maxHotPartition+1, 1, -1) })
	mustPanic("oversized lane through InstallLayout", func() {
		d.InstallLayout(map[storage.RID]HotPlacement{rid: {Partition: 0, Weight: 1, Lane: 1 << 20}}, nil)
	})
	if d.IsHot(rid) || !d.IsHot(big) {
		t.Fatal("a refused placement changed the table")
	}
}

var sinkPartition PartitionID

// The layer number behind cluster.dir_partition_ns: one routing probe
// against a 400 k-row lookup table with one hot-table rule beside it,
// for rows in the table, for records of the rule's table (which miss the
// rows and fall through to the partitioner, as every TPC-C record does)
// and for cold records.
func BenchmarkDirectoryPartition(b *testing.B) {
	const rows = 400_000
	d := NewDirectory(NewTopology(4, 1), HashPartitioner{N: 4})
	for i := 0; i < rows; i++ {
		d.SetHot(storage.RID{Table: 3, Key: storage.Key(i)}, PartitionID(i%4))
	}
	d.SetHotTable(5)
	for _, bc := range []struct {
		name  string
		table storage.TableID
	}{{"hit", 3}, {"rule", 5}, {"miss", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkPartition = d.Partition(storage.RID{Table: bc.table, Key: storage.Key(i * 7919 % rows)})
			}
		})
	}
}
