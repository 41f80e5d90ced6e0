package chillerpart

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/workload/instacart"
)

// The layout on a seeded Instacart trace is pinned: hot placements,
// their weights and lanes, every transaction's inner host and lane, and
// the cut. A refactor of the partitioner or of metis must reproduce it.
func TestInstacartLayoutPinned(t *testing.T) {
	const want uint64 = 0x361f8d5e58ff193
	w := instacart.NewWorkload(instacart.Config{Products: 2000, Partitions: 4, Seed: 1})
	agg := w.BuildAggregate(600, rand.New(rand.NewSource(1)), 600/5)
	res, err := Partition(agg, Config{K: 4, Lanes: 2, Seed: 1, HotThreshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layout.Hot) == 0 {
		t.Fatal("no hot records: the pin covers nothing")
	}
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	rids := make([]storage.RID, 0, len(res.Layout.Hot))
	for r := range res.Layout.Hot {
		rids = append(rids, r)
	}
	slices.SortFunc(rids, func(a, b storage.RID) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Key, b.Key))
	})
	for _, r := range rids {
		put(uint64(r.Table))
		put(uint64(r.Key))
		put(uint64(res.Layout.Hot[r]))
		put(math.Float64bits(res.Layout.Weight[r]))
		put(uint64(res.Layout.Lane[r]))
	}
	for i, p := range res.TxnHost {
		put(uint64(p))
		put(uint64(res.TxnLane[i]))
	}
	put(uint64(res.Layout.Cut))
	if got := h.Sum64(); got != want {
		t.Fatalf("layout hashes to %#x, want %#x", got, want)
	}
}
