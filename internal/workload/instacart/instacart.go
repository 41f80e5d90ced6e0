// Package instacart synthesizes the grocery-basket workload of §7.2. The
// real Instacart 2017 dataset (3M orders, ~50k products, ~10 items per
// basket) is not redistributable here, so this generator reproduces the
// published marginals the experiment depends on:
//
//   - baskets average ~10 products drawn across categories (hard to
//     partition cleanly — co-purchases cross any static grouping);
//   - heavy popularity skew: the top product (banana) appears in 15% of
//     baskets, the runner-up (strawberries) in 8%, with a Zipfian tail
//     over the remaining catalogue.
//
// Transactions follow the paper's TPC-C-like NewOrder shape: read the
// stock value of every product in the basket, decrement it, and insert
// one order record. Order records are written at the basket's home
// partition (the coordinator), so the distribution behaviour is driven
// entirely by where the product stock records live — exactly what the
// partitioning comparison of Figures 7 and 8 varies.
package instacart

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// Table identifiers.
const (
	// TableProducts holds one stock record per product.
	TableProducts storage.TableID = 1
	// TableOrders holds inserted basket records.
	TableOrders storage.TableID = 2
)

// Basket size limits (sizes are uniform in [Min, Max], mean ≈ 10 as in
// the dataset).
const (
	MinBasket = 5
	MaxBasket = 15
)

// orderPartShift packs the home partition into order keys' high bits.
const orderPartShift = 40

// OrderKey builds an order record key homed at a partition.
func OrderKey(part int, seq uint64) storage.Key {
	return storage.Key(uint64(part)<<orderPartShift | (seq & (1<<orderPartShift - 1)))
}

// Baskets have category ("aisle") structure, like the real dataset: each
// basket draws most of its items from one primary category, so popular
// items co-occur with their category-mates. This co-purchase correlation
// is what makes contention-aware partitioning effective — with fully
// independent item draws no layout could co-locate a basket's hot items.
const (
	// categories is the number of aisles (fewer when the catalogue is
	// smaller); products are split into contiguous equal-size category
	// blocks and category 0 holds the bananas.
	categories = 25
	// primaryFrac is the fraction of basket items drawn from the
	// basket's primary category.
	primaryFrac = 0.75
	// categoryZipfS skews category popularity; itemZipfS skews item
	// popularity within a category.
	categoryZipfS = 1.3
	itemZipfS     = 1.1
)

// topShares are per-basket inclusion probabilities of the most popular
// products: 0.15 banana, 0.08 strawberries — the dataset's published
// head.
var topShares = [...]float64{0.15, 0.08}

// Config shapes the generator.
type Config struct {
	// Products is the catalogue size (the dataset has ~50k).
	Products int
	// Partitions is the cluster size.
	Partitions int
	// Seed drives basket composition.
	Seed int64
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Products == 0 {
		c.Products = 50000
	}
	if c.Partitions == 0 {
		c.Partitions = 2
	}
	return c
}

// BasketProc returns the registered procedure name for n-item baskets.
func BasketProc(n int) string { return fmt.Sprintf("instacart.basket.%d", n) }

// basketProcedure: args [0]=order key, [1..n]=product ids. Ops: n stock
// decrements plus an order insert at the basket's home partition.
func basketProcedure(n int) *txn.Procedure {
	ops := make([]txn.OpSpec, 0, n+1)
	for i := 0; i < n; i++ {
		i := i
		ops = append(ops, txn.OpSpec{
			ID: i, Type: txn.OpUpdate, Table: TableProducts,
			Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
				return storage.Key(args[1+i]), true
			},
			Mutate: func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
				stock := DecodeStock(old)
				stock--
				if stock <= 0 {
					stock += 100000 // restock; the experiment never runs dry
				}
				return EncodeStock(stock), nil
			},
		})
	}
	ops = append(ops, txn.OpSpec{
		ID: n, Type: txn.OpInsert, Table: TableOrders,
		Key: func(args txn.Args, _ txn.ReadSet) (storage.Key, bool) {
			return storage.Key(args[0]), true
		},
		Mutate: func(_ []byte, args txn.Args, _ txn.ReadSet) ([]byte, error) {
			out := make([]byte, 8*n)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(out[8*i:], uint64(args[1+i]))
			}
			return out, nil
		},
	})
	return &txn.Procedure{Name: BasketProc(n), Ops: ops}
}

// RegisterAll registers the basket procedure variants.
func RegisterAll(reg *txn.Registry) error {
	for n := MinBasket; n <= MaxBasket; n++ {
		if err := reg.Register(basketProcedure(n)); err != nil {
			return err
		}
	}
	return nil
}

// EncodeStock serializes a stock counter.
func EncodeStock(v int64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(v))
	return out
}

// DecodeStock parses a stock counter.
func DecodeStock(p []byte) int64 {
	if len(p) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// productsPerSlice is the size of the product ranges Load spreads
// across the cores.
const productsPerSlice = 4096

// Load creates the tables and stocks the catalogue, one product range
// per cluster.LoadSlices slice.
func Load(l cluster.Loader, cfg Config) error {
	cfg = cfg.Defaults()
	l.CreateTable(TableProducts, 1<<15)
	l.CreateTable(TableOrders, 1<<12)
	slices := (cfg.Products + productsPerSlice - 1) / productsPerSlice
	return cluster.LoadSlices(l, slices, func(i int, load cluster.LoadFunc) error {
		for p := i * productsPerSlice; p < min((i+1)*productsPerSlice, cfg.Products); p++ {
			if err := load(TableProducts, storage.Key(p), EncodeStock(1_000_000)); err != nil {
				return err
			}
		}
		return nil
	})
}

// DefaultPartitioner is the "Hashing" baseline of Figure 7: products by
// key hash, orders at the home partition packed into their key.
func DefaultPartitioner(partitions int) cluster.FuncPartitioner {
	hash := cluster.HashPartitioner{N: partitions}
	return cluster.FuncPartitioner{
		Label: "instacart-hash",
		Fn: func(rid storage.RID) cluster.PartitionID {
			if rid.Table == TableOrders {
				return cluster.PartitionID(uint64(rid.Key) >> orderPartShift)
			}
			return hash.Partition(rid)
		},
	}
}

// Workload generates baskets. Safe for concurrent use.
type Workload struct {
	categories int // min(categories, Products)
	catSize    int // products per category
	seq        atomic.Uint64
}

// NewWorkload builds a generator.
func NewWorkload(cfg Config) *Workload {
	cfg = cfg.Defaults()
	cats := min(categories, cfg.Products)
	return &Workload{categories: cats, catSize: max(1, cfg.Products/cats)}
}

// Name implements bench.Workload.
func (w *Workload) Name() string { return "instacart" }

// CategoryOf returns a product's category.
func (w *Workload) CategoryOf(product int64) int {
	return min(int(product)/w.catSize, w.categories-1)
}

// itemInCategory draws a product from a category with within-category
// rank skew (rank 0 is the category's banana).
func (w *Workload) itemInCategory(cat int, rng *rand.Rand) int64 {
	z := rand.NewZipf(rng, itemZipfS, 3, uint64(w.catSize-1))
	return int64(cat*w.catSize) + int64(z.Uint64())
}

// Basket draws a basket's product ids: the dataset's head products by
// their published shares, then mostly primary-category items, with the
// remainder spilling across other categories.
func (w *Workload) Basket(rng *rand.Rand) []int64 {
	n := MinBasket + rng.Intn(MaxBasket-MinBasket+1)
	seen := make(map[int64]bool, n)
	basket := make([]int64, 0, n)
	add := func(p int64) {
		if !seen[p] {
			seen[p] = true
			basket = append(basket, p)
		}
	}
	// Head products by inclusion probability (all live in category 0,
	// like produce staples).
	for i, share := range topShares {
		if len(basket) < n && rng.Float64() < share {
			add(int64(i))
		}
	}
	catZipf := rand.NewZipf(rng, categoryZipfS, 2, uint64(w.categories-1))
	primary := int(catZipf.Uint64())
	for len(basket) < n {
		cat := primary
		if rng.Float64() >= primaryFrac {
			cat = int(catZipf.Uint64())
		}
		add(w.itemInCategory(cat, rng))
	}
	// Shuffle so hot items are not always first.
	rng.Shuffle(len(basket), func(i, j int) { basket[i], basket[j] = basket[j], basket[i] })
	return basket
}

// Next implements bench.Workload.
func (w *Workload) Next(part int, rng *rand.Rand) *txn.Request {
	basket := w.Basket(rng)
	args := make(txn.Args, 1+len(basket))
	args[0] = int64(OrderKey(part, w.seq.Add(1)))
	copy(args[1:], basket)
	return &txn.Request{Proc: BasketProc(len(basket)), Args: args}
}

// Trace synthesizes n transaction samples (the partitioners' input),
// mimicking what the statistics service would collect from a live run:
// each basket's product records are writes, the order insert is a write.
func (w *Workload) Trace(n int, rng *rand.Rand) []stats.TxnSample {
	out := make([]stats.TxnSample, 0, n)
	for i := 0; i < n; i++ {
		basket := w.Basket(rng)
		writes := make([]storage.RID, 0, len(basket))
		for _, p := range basket {
			writes = append(writes, storage.RID{Table: TableProducts, Key: storage.Key(p)})
		}
		out = append(out, stats.TxnSample{Writes: writes})
	}
	return out
}

// BuildAggregate runs the statistics pipeline over a fresh trace: sample,
// aggregate, and finalize with the given lock-window scale.
func (w *Workload) BuildAggregate(n int, rng *rand.Rand, lockWindows float64) *stats.Aggregate {
	agg := stats.NewAggregate()
	agg.Add(w.Trace(n, rng))
	agg.Finalize(1, lockWindows)
	return agg
}
