package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// A table's values live in byte chunks, which hold no pointers, so the
// collector never scans them; a record slot names its value by a 32-bit
// ref instead of a pointer. A record in a chunk is
//
//	uvarint(len<<1 | stamped) | stamp (8 bytes, only if stamped) | value
//
// so a record stamped 0 — every record of a clockless store — pays
// nothing for MVCC. A tombstone is a record of length 0 (with its
// delete's stamp, if any), and ref 0 is the one record that needs no
// bytes: length 0, stamp 0.
//
// A ref is a chunk id (the top 14 bits, id 0 unused) and an offset into
// the chunk (the low 18 bits). Chunks grow from 4 KiB to 256 KiB with
// the table, and a record bigger than an eighth of the chunk being
// opened gets a chunk of its own at offset 0, so every offset fits. A table therefore
// holds at most 2^14-1 chunks at once: 4 GiB of chunk bytes when they
// are full-sized. A write beyond that panics; it never wraps.
//
// A record is updated in place: a write whose record has the header of
// the one it replaces — the same length, the same stamp width — writes
// over the old bytes under the bucket mutex, leaves nothing dead and
// takes no table-wide lock. Only a write that resizes a record, or a
// delete, appends and leaves the old bytes dead. Compaction copies the
// live records of every chunk into fresh ones, under each bucket's
// mutex, and drops the old chunks. Readers copy a value out under the
// bucket mutex (Buf), so no reader ever holds chunk bytes. A freed
// chunk id gets a fresh array when it is reused.
const (
	offsetBits = 18
	offsetMask = 1<<offsetBits - 1
	maxChunks  = 1 << (32 - offsetBits)

	minChunk = 4 << 10
	maxChunk = 1 << offsetBits

	// Compaction starts when a table's dead bytes pass a quarter of its
	// chunk bytes, and not before there are minDead of them.
	minDead = 64 << 10
)

// emptyValue is what a record of length 0 reads as: not nil, and with no
// capacity an append could write through.
var emptyValue = []byte{}

// values is one table's chunk store.
type values struct {
	// dir maps chunk id to chunk. A reader loads it with the bucket mutex
	// held that protects the ref it resolves; the ref was published
	// after its chunk was installed, and compaction frees a chunk only
	// once no slot refers to it, so a reader never races a change of the
	// entry it reads. Growing the directory copies it.
	dir atomic.Pointer[[][]byte]

	mu   sync.Mutex // protects everything below; taken inside bucket mutexes
	free []uint32   // ids of dropped chunks
	open uint32     // the chunk being filled, 0 before the first write
	fill int        // bytes used in the open chunk
	// used counts the bytes of every chunk in the directory — all of a
	// sealed one, the filled part of the open one — and live the bytes of
	// the records slots refer to; the difference is what compaction
	// would reclaim.
	used, live int
	// compactions counts the completed ones; compactTime is their total
	// duration, compactMax the longest.
	compactions             int
	compactTime, compactMax time.Duration

	compacting sync.Mutex // single flight
}

// chunk returns the chunk that holds ref.
func (v *values) chunk(ref uint32) []byte { return (*v.dir.Load())[ref>>offsetBits] }

// record decodes the record at ref: its value, capacity equal to its
// length, and its stamp.
func (v *values) record(ref uint32) (val []byte, ts uint64) {
	if ref == 0 {
		return emptyValue, 0
	}
	c := v.chunk(ref)
	off := int(ref & offsetMask)
	h, n := binary.Uvarint(c[off:])
	off += n
	if h&1 != 0 {
		ts = binary.LittleEndian.Uint64(c[off:])
		off += 8
	}
	end := off + int(h>>1)
	return c[off:end:end], ts
}

// size is how many chunk bytes the record at ref takes.
func (v *values) size(ref uint32) int {
	if ref == 0 {
		return 0
	}
	c := v.chunk(ref)
	off := int(ref & offsetMask)
	h, n := binary.Uvarint(c[off:])
	return n + int(h&1)*8 + int(h>>1)
}

// put stores a record for val stamped ts in place of the record at old
// (0: none), and returns its ref and whether the table is due for
// compaction. A record with old's header is written over old's bytes;
// any other is appended, and old's bytes turn dead. Caller holds the
// mutex of the bucket whose slot holds old and will hold the ref.
func (v *values) put(val []byte, ts uint64, old uint32) (ref uint32, compact bool) {
	h := uint64(len(val)) << 1
	if ts != 0 {
		h |= 1
	}
	var hdr [binary.MaxVarintLen64 + 8]byte
	n := binary.PutUvarint(hdr[:], h)
	if ts != 0 {
		binary.LittleEndian.PutUint64(hdr[n:], ts)
		n += 8
	}
	if old != 0 {
		c, off := v.chunk(old), int(old&offsetMask)
		if oh, _ := binary.Uvarint(c[off:]); oh == h {
			copy(c[off+copy(c[off:], hdr[:n]):], val)
			return old, false
		}
	}
	dead := v.size(old)
	v.mu.Lock()
	v.live -= dead
	if h != 0 {
		var dst []byte
		ref, dst = v.alloc(n + len(val))
		copy(dst[copy(dst, hdr[:n]):], val)
	}
	compact = v.due()
	v.mu.Unlock()
	return ref, compact
}

// move copies the record at ref, as it is, into the open chunk and
// returns its new ref (compaction). Caller holds v.mu and the mutex of
// the bucket whose slot holds ref.
func (v *values) move(ref uint32) uint32 {
	c, off, n := v.chunk(ref), int(ref&offsetMask), v.size(ref)
	v.live -= n
	to, dst := v.alloc(n)
	copy(dst, c[off:off+n])
	return to
}

// alloc reserves n bytes and counts them live. They go at the end of
// the open chunk; when they do not fit, a new chunk is opened, sized to
// a quarter of the table's live bytes within [minChunk, maxChunk]. A
// record bigger than an eighth of that size gets a chunk of its own
// instead and leaves the open chunk open, so a sealed chunk's unused
// tail is under an eighth of it, and compaction always reclaims more
// than it leaves behind. Caller holds v.mu.
func (v *values) alloc(n int) (ref uint32, dst []byte) {
	if v.open == 0 || v.fill+n > len(v.chunk(v.open<<offsetBits)) {
		size := minChunk
		for size < maxChunk && size < v.live/4 {
			size *= 2
		}
		if n > size/8 {
			dst = make([]byte, n)
			v.used += n
			v.live += n
			return v.install(dst) << offsetBits, dst
		}
		v.seal()
		v.open, v.fill = v.install(make([]byte, size)), 0
	}
	ref = v.open<<offsetBits | uint32(v.fill)
	dst = v.chunk(ref)[v.fill : v.fill+n]
	v.fill += n
	v.used += n
	v.live += n
	return ref, dst
}

// seal stops filling the open chunk; its unfilled tail counts as used
// and is never written.
func (v *values) seal() {
	if v.open != 0 {
		v.used += len(v.chunk(v.open<<offsetBits)) - v.fill
		v.open = 0
	}
}

// install puts a fresh chunk in the directory under a free id. The
// directory only grows: a new id is appended past what any published
// ref names, and the grown directory is stored as a new header.
func (v *values) install(c []byte) uint32 {
	if n := len(v.free); n > 0 {
		id := v.free[n-1]
		v.free = v.free[:n-1]
		(*v.dir.Load())[id] = c
		return id
	}
	var dir [][]byte
	if p := v.dir.Load(); p != nil {
		dir = *p
	}
	if len(dir) == 0 {
		dir = make([][]byte, 1, 16) // id 0 is ref 0's
	}
	if len(dir) == maxChunks {
		panic(fmt.Sprintf("storage: a table's values outgrew %d chunks", maxChunks-1))
	}
	id := uint32(len(dir))
	dir = append(dir, c)
	v.dir.Store(&dir)
	return id
}

// due reports whether dead bytes passed the compaction threshold.
// Caller holds v.mu.
func (v *values) due() bool {
	dead := v.used - v.live
	return dead > minDead && dead > v.used/4
}

// compact reclaims the table's dead value bytes while they are past
// the threshold. One compaction runs per table at a time: a caller that
// finds one running returns at once, and the one running tests the
// threshold again once it is done, so dead bytes a write left behind
// meanwhile are not forgotten.
func (t *Table) compact() {
	v := &t.vals
	for {
		v.mu.Lock()
		due := v.due()
		v.mu.Unlock()
		if !due || !v.compacting.TryLock() {
			return
		}
		t.reclaim()
		v.compacting.Unlock()
	}
}

// reclaim seals the open chunk, copies every live record out of the
// chunks that existed then, one bucket chain at a time under its mutex,
// and drops those chunks. Writers keep going meanwhile; what they append
// lands in new chunks. Caller holds v.compacting.
func (t *Table) reclaim() {
	start := time.Now()
	v := &t.vals
	v.mu.Lock()
	v.seal()
	dir := *v.dir.Load()
	old := make([]bool, len(dir)) // ids installed later are new
	for id := range dir {
		old[id] = dir[id] != nil
	}
	v.mu.Unlock()

	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.Lock()
		v.mu.Lock()
		for cur := b; cur != nil; cur = cur.overflow {
			es := cur.slots()
			for j := range es {
				if id := int(es[j].ref >> offsetBits); id < len(old) && old[id] {
					es[j].ref = v.move(es[j].ref)
				}
			}
		}
		v.mu.Unlock()
		b.mu.Unlock()
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	d := time.Since(start)
	v.compactions++
	v.compactTime += d
	v.compactMax = max(v.compactMax, d)
	for id := range dir {
		if old[id] {
			v.used -= len(dir[id])
			(*v.dir.Load())[id] = nil
			v.free = append(v.free, uint32(id))
		}
	}
}
