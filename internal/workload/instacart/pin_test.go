package instacart

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The basket stream is pinned: every figure's trace and the benchmark's
// partitioner probe draw from it, so a refactor of the generator must
// reproduce it draw for draw.
func TestBasketStreamPinned(t *testing.T) {
	const want uint64 = 0xe43213a3eada1bc5
	w := NewWorkload(Config{Products: 5000, Partitions: 4, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	h := fnv.New64a()
	for i := 0; i < 1000; i++ {
		basket := w.Basket(rng)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(basket))))
		for _, p := range basket {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p)))
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("first 1000 baskets hash to %#x, want %#x", got, want)
	}
}
