package check

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The chaos workload's request stream is pinned: a changed draw order,
// mix or key choice shows up as a new hash, so a refactor of the
// generator cannot silently move every recorded seed's history.
func TestGeneratorStreamPinned(t *testing.T) {
	const want uint64 = 0x6a91b3c21afe85e8
	gen := &Generator{}
	rng := rand.New(rand.NewSource(20260729))
	h := fnv.New64a()
	for i := 0; i < 1000; i++ {
		req := gen.Next(i%3, rng)
		h.Write([]byte(req.Proc))
		for _, a := range req.Args {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(a)))
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("first 1000 requests hash to %#x, want %#x", got, want)
	}
}
