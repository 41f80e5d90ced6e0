package storage

import (
	"math/bits"
	"sync"
	"unsafe"
)

// A table's slot arrays and overflow buckets come from its slab: chunks
// the table owns and carves in order, so the collector sees a few large
// objects per table instead of one per bucket and one per overflow
// bucket. Slot chunks hold no pointer and are never scanned; bucket
// chunks, whose buckets point at slots and at each other, are kept
// apart from them.
//
// A slot array holds 2, 4 or 8 slots. An array a bucket has outgrown
// goes on the free list of its size — only after its slots were copied
// into the new one, or a bucket taking it could overwrite them mid-copy
// — and the next array of that size comes from there before a chunk is
// carved. An 8-slot array is never outgrown (a full bucket chains), so
// it needs no list. Buckets never shrink and are never freed.
//
// The slab's mutex is taken only when a bucket grows or chains, always
// inside the bucket chain's mutex; an insert that fits takes only the
// latter.
type slab struct {
	mu      sync.Mutex
	slots   []entry  // the uncarved rest of the newest slot chunk
	buckets []Bucket // the uncarved rest of the newest bucket chunk
	// free holds outgrown arrays of 2 and 4 slots. A pointer into a
	// chunk keeps it alive, as the free list must (a chunk holds none).
	free [2][]*entry
	// Bytes of every chunk, of the slot arrays buckets hold and of the
	// free lists, and the overflow buckets carved; the rest is the
	// uncarved tails.
	chunkBytes, slotBytes, freeBytes, overflows int
}

const (
	minSlotChunk   = 256  // slots: 4 KiB
	maxSlotChunk   = 4096 // 64 KiB
	minBucketChunk = 16   // buckets: 1 KiB
	maxBucketChunk = 1024 // 64 KiB

	slotSize   = int(unsafe.Sizeof(entry{}))
	bucketSize = int(unsafe.Sizeof(Bucket{}))
)

// freeList returns the free list of arrays of room slots (2 or 4).
func (s *slab) freeList(room uint8) *[]*entry { return &s.free[bits.TrailingZeros8(room)-1] }

// chunkSize is the size of a table's next chunk of a kind of which it
// uses inUse: a quarter of that, within [min, max], so a small table
// stays small, a big one makes few chunks, and an uncarved tail is
// under a quarter of what the table holds.
func chunkSize(inUse, lo, hi int) int {
	n := lo
	for n < hi && n < inUse/4 {
		n *= 2
	}
	return n
}

// grow moves at's slots into an array of twice its room (2 for a bucket
// without any) and frees the one it outgrew. Caller holds the bucket
// chain's mutex.
func (s *slab) grow(at *Bucket) {
	room := max(2, 2*at.room)
	s.mu.Lock()
	es := s.take(room)
	copy(es, at.slots())
	if at.room > 0 {
		l := s.freeList(at.room)
		*l = append(*l, at.entries)
		s.freeBytes += int(at.room) * slotSize
		s.slotBytes -= int(at.room) * slotSize
	}
	s.mu.Unlock()
	at.entries, at.room = unsafe.SliceData(es), room
}

// take returns an array of room slots, off its free list if there is
// one there, else carved. Caller holds s.mu.
func (s *slab) take(room uint8) []entry {
	s.slotBytes += int(room) * slotSize
	if room < bucketCapacity {
		if l := s.freeList(room); len(*l) > 0 {
			p := (*l)[len(*l)-1]
			*l = (*l)[:len(*l)-1]
			s.freeBytes -= int(room) * slotSize
			return unsafe.Slice(p, room)
		}
	}
	if len(s.slots) < int(room) {
		s.slots = make([]entry, chunkSize(s.slotBytes/slotSize, minSlotChunk, maxSlotChunk))
		s.chunkBytes += len(s.slots) * slotSize
	}
	es := s.slots[:room:room]
	s.slots = s.slots[room:]
	return es
}

// bucket carves an empty overflow bucket of table t. Caller holds the
// mutex of the chain it will join.
func (s *slab) bucket(t *Table) *Bucket {
	s.mu.Lock()
	if len(s.buckets) == 0 {
		s.buckets = make([]Bucket, chunkSize(s.overflows, minBucketChunk, maxBucketChunk))
		s.chunkBytes += len(s.buckets) * bucketSize
	}
	b := &s.buckets[0]
	s.buckets = s.buckets[1:]
	s.overflows++
	s.mu.Unlock()
	b.table = t
	return b
}
