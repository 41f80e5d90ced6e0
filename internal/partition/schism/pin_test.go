package schism

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/workload/instacart"
)

// The layout on a seeded Instacart trace is pinned: every record's
// partition and the cut. A refactor of the partitioner or of metis must
// reproduce it.
func TestInstacartLayoutPinned(t *testing.T) {
	const want uint64 = 0x927cd95bcaa43c35
	w := instacart.NewWorkload(instacart.Config{Products: 2000, Partitions: 4, Seed: 1})
	trace := w.Trace(600, rand.New(rand.NewSource(1)))
	layout, err := Partition(trace, Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	rids := make([]storage.RID, 0, len(layout.Full))
	for r := range layout.Full {
		rids = append(rids, r)
	}
	slices.SortFunc(rids, func(a, b storage.RID) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Key, b.Key))
	})
	for _, r := range rids {
		put(uint64(r.Table))
		put(uint64(r.Key))
		put(uint64(layout.Full[r]))
	}
	put(uint64(layout.Cut))
	if got := h.Sum64(); got != want {
		t.Fatalf("layout hashes to %#x, want %#x", got, want)
	}
}
