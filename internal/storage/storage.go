// Package storage implements the partition-local in-memory storage engine
// described in §6 of the Chiller paper (the NAM-DB layout): each partition
// is a set of tables, each table a fixed array of hash buckets with
// overflow chaining, and each bucket embeds its own shared/exclusive lock
// word so that a remote engine can lock it with a single RDMA atomic
// instead of talking to a centralized lock manager.
//
// Locking granularity is the bucket, exactly as in the paper: "buckets are
// locked when any of their records are being accessed, and the lock
// remains until the transaction commits or aborts."
//
// A bucket's header is one 64-byte cache line holding a one-byte key
// fingerprint per entry and a tombstone bitmask, so a chain walk reads
// an entry's own line only when its fingerprint matches. A record slot
// is 16 bytes and holds no pointer: its key, its version and a ref into
// its table's value chunks (values.go), where the value sits behind its
// commit stamp. All of a record's memory belongs to its table: slot
// arrays and overflow buckets are carved from the table's slab
// (slab.go), values from its chunks. Neither slot chunks nor value
// chunks are scanned by the collector.
//
// A record stays where it is written: an overwrite of the same size
// rewrites its bytes in place, under the bucket mutex. So reads copy
// out — Get and ReadAt copy the value, under the same mutex, into
// memory the caller owns (Buf).
package storage

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// TableID identifies a table within a store.
type TableID uint32

// Key is a 64-bit primary key. Workloads compose multi-column keys into
// one 64-bit value (e.g. TPC-C packs warehouse/district/customer ids).
type Key uint64

// RID names a record globally: table plus key.
type RID struct {
	Table TableID
	Key   Key
}

func (r RID) String() string { return fmt.Sprintf("t%d/k%d", r.Table, r.Key) }

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("storage: key not found")

// ErrExists is returned by Insert when the key is already present.
var ErrExists = errors.New("storage: key already exists")

// Store is one partition's storage engine. It is safe for concurrent use.
type Store struct {
	// tables is published copy-on-write: every record lookup reads it
	// with one load, and CreateTable, the one writer, installs a copy
	// under mu — a replica's tolerant apply may still create a missing
	// table while lookups run.
	mu     sync.Mutex
	tables atomic.Pointer[map[TableID]*Table]
	// mv is the store-wide MVCC switchboard (version retention flag and
	// GC watermark), shared with every table. See mvcc.go.
	mv *mvccMeta
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{mv: &mvccMeta{}}
	s.tables.Store(&map[TableID]*Table{})
	return s
}

// CreateTable creates a table with nBuckets hash buckets. It returns the
// existing table if one with the same id exists (idempotent, so replicas
// and primaries can share loader code).
func (s *Store) CreateTable(id TableID, nBuckets int) *Table {
	if nBuckets <= 0 {
		nBuckets = 1024
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tables.Load()
	if t, ok := old[id]; ok {
		return t
	}
	t := &Table{
		id:      id,
		buckets: make([]Bucket, nBuckets),
		mv:      s.mv,
	}
	for i := range t.buckets {
		t.buckets[i].table = t
	}
	tables := maps.Clone(old)
	tables[id] = t
	s.tables.Store(&tables)
	return t
}

// Table returns the table with the given id, or nil.
func (s *Store) Table(id TableID) *Table { return (*s.tables.Load())[id] }

// Tables returns a snapshot of all table IDs.
func (s *Store) Tables() []TableID {
	return slices.Collect(maps.Keys(*s.tables.Load()))
}

// Bucket looks up the bucket that owns key in table id. It returns nil if
// the table does not exist.
func (s *Store) Bucket(id TableID, key Key) *Bucket {
	t := s.Table(id)
	if t == nil {
		return nil
	}
	return t.Bucket(key)
}

// Table is a hash table of records with per-bucket locks.
type Table struct {
	id      TableID
	buckets []Bucket
	mv      *mvccMeta // shared with the owning Store
	vals    values
	slab    slab
}

// ID returns the table's identifier.
func (t *Table) ID() TableID { return t.id }

// NumBuckets returns the size of the primary bucket array.
func (t *Table) NumBuckets() int { return len(t.buckets) }

// Bucket returns the bucket that owns key.
func (t *Table) Bucket(key Key) *Bucket {
	return &t.buckets[t.bucketIndex(key)]
}

// BucketAt returns the i'th primary bucket (0 <= i < NumBuckets), for
// whole-table walks like the handoff backfill that must visit each
// bucket chain exactly once.
func (t *Table) BucketAt(i int) *Bucket { return &t.buckets[i] }

// BucketIndex exposes the key→bucket mapping for diagnostics and for
// contention accounting (two keys in one bucket share a lock).
func (t *Table) BucketIndex(key Key) int { return t.bucketIndex(key) }

func (t *Table) bucketIndex(key Key) int {
	return int(mix64(uint64(key)) % uint64(len(t.buckets)))
}

// mix64 is a Fibonacci/xorshift finalizer giving a well-spread bucket
// index even for dense sequential keys.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// entry is one record slot inside a bucket: 16 bytes and no pointer,
// so four slots share a cache line and slot arrays are not scanned by
// the collector. Whether the slot is a tombstone is a bit of its
// bucket's dead mask, not a field here.
//
//	0       8     12        16
//	| key   | ref | version |
//
// ref names the record's value and commit stamp in its table's chunks
// (see values.go). version wraps at 2^32 — its one consumer, OCC
// validation, tests it for equality.
type entry struct {
	key     Key
	ref     uint32
	version uint32
}

// Bucket holds a small set of records plus an embedded lock word. Buckets
// never split; an over-full bucket chains to an overflow bucket, as in the
// paper.
//
// The header is exactly one 64-byte cache line — lock word, mutex, eight
// one-byte key fingerprints, the tombstone bitmask, the slot count and
// capacity, the version floor, and pointers to the slots, the overflow
// bucket, the table and the retained versions — the slots and an
// overflow bucket carved from the table's slab — and a chain walk decides
// from it alone which entries are worth reading: an entry's own line is
// touched only when its fingerprint matches (see docs/ARCHITECTURE.md,
// "What a lookup touches").
type Bucket struct {
	Lock LockWord

	mu    sync.Mutex            // protects everything below
	tags  [bucketCapacity]uint8 // tags[i] = tagOf(slots()[i].key), i < n
	dead  uint8                 // bit i set: slot i is a tombstone left by Delete
	n     uint8                 // slots in use
	room  uint8                 // slots in the array: 0, 2, 4 or 8
	floor uint32                // versions recycled in this chain (head bucket only): a new record starts above it
	// entries is the first of room slots, an array of the table's slab.
	entries  *entry
	overflow *Bucket
	table    *Table
	side     *retained // MVCC versions retained by this bucket's records; nil without any
}

const bucketCapacity = 8

// tagOf is a key's one-byte fingerprint: the top byte of a Fibonacci
// hash, independent of the bits bucketIndex keeps.
func tagOf(key Key) uint8 { return uint8(uint64(key) * 0x9E3779B97F4A7C15 >> 56) }

// isDead reports whether slot i of this bucket is a tombstone.
func (b *Bucket) isDead(i int) bool { return b.dead>>uint(i)&1 != 0 }

// slots returns the bucket's records.
func (b *Bucket) slots() []entry { return unsafe.Slice(b.entries, b.n) }

// Get returns a copy of the value and its version, or ErrNotFound: a
// cold read, in fresh memory. GetInto is the same read into a caller's
// buffer.
func (b *Bucket) Get(key Key) (value []byte, version uint64, err error) {
	return b.GetInto(key, nil)
}

// GetInto returns the value, copied into buf under the bucket mutex
// (fresh memory when buf is nil), and its version. The caller is
// expected to hold the bucket lock in at least shared mode when running
// under 2PL; OCC calls it without a lock and validates the version
// later. The copy is the caller's: a later write of the record, in place
// or not, leaves it alone.
func (b *Bucket) GetInto(key Key, buf *Buf) (value []byte, version uint64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key)
	if !ok || at.isDead(i) {
		return nil, 0, ErrNotFound
	}
	e := &at.slots()[i]
	value, _ = b.table.vals.record(e.ref)
	return buf.copy(value), uint64(e.version), nil
}

// Version returns key's version, 0 when it is absent: what OCC's
// validation re-checks, without the value.
func (b *Bucket) Version(key Key) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if at, i, ok := b.seek(key); ok && !at.isDead(i) {
		return uint64(at.slots()[i].version)
	}
	return 0
}

// Buf is memory reads copy values into, so a hot path copies without
// allocating per read. Each value is capped at its length, so an append
// to one cannot write into the next. A full Buf moves on to a new array,
// at least twice the size, and leaves the values it handed out where
// they are. The zero Buf is empty; a nil *Buf makes every copy fresh
// memory.
type Buf struct{ b []byte }

// minBuf is the smallest array a Buf allocates.
const minBuf = 4 << 10

// copy returns a copy of v in the buffer.
func (b *Buf) copy(v []byte) []byte {
	if len(v) == 0 {
		return emptyValue
	}
	var dst []byte
	if b == nil {
		dst = make([]byte, len(v))
	} else {
		if cap(b.b)-len(b.b) < len(v) {
			b.b = make([]byte, 0, max(minBuf, 2*cap(b.b), len(v)))
		}
		i := len(b.b)
		b.b = b.b[:i+len(v)]
		dst = b.b[i : i+len(v) : i+len(v)]
	}
	copy(dst, v)
	return dst
}

// Reset reuses the buffer's memory: later copies overwrite every value
// it handed out, so call it only once none is in use (a doorbell's
// scratch, once the frame's response is encoded).
func (b *Buf) Reset() { b.b = b.b[:0] }

// Drop keeps only the part of the buffer it never handed out, so the
// values it did hand out are never overwritten: they stay valid for as
// long as they are referenced, as a transaction's read set must. A
// buffer that serves one transaction after another therefore allocates
// once per minBuf bytes read, not once per transaction.
func (b *Buf) Drop() { b.b = b.b[len(b.b):] }

// WriteMode says what a write requires of the key's current state and
// what it leaves behind.
type WriteMode uint8

const (
	WriteUpsert WriteMode = iota // insert or overwrite
	WriteUpdate                  // the key must be live, else ErrNotFound
	WriteInsert                  // the key must not be live, else ErrExists
	WriteDelete                  // the key must be live, else ErrNotFound; leaves a tombstone
)

// seek is the one walk over a bucket chain, for reads and writes alike,
// with one rule on every store. With ok it returns key's own entry,
// at.slots()[slot], live or tombstone: a key has at most one entry, so
// a re-insert resurrects it in place and its version keeps counting.
// Without, it returns where a new record goes: another key's tombstone
// that carries no history (slot >= 0) — every tombstone of a clockless
// store, none that an MVCC store stamped, whose chain must stay
// readable — else the first bucket with room, else the chain's last
// bucket (slot < 0). It reads an entry only when the header's
// fingerprint for it matches.
func (b *Bucket) seek(key Key) (at *Bucket, slot int, ok bool) {
	tag := tagOf(key)
	slot = -1
	var room, last *Bucket
	for cur := b; cur != nil; cur = cur.overflow {
		es := cur.slots()
		for i := range es {
			if cur.tags[i] == tag && es[i].key == key {
				return cur, i, true
			}
			// A tombstone stamped 0 has ref 0 (values.go).
			if slot < 0 && cur.isDead(i) && es[i].ref == 0 && cur.side.chain(i) == nil {
				at, slot = cur, i
			}
		}
		if room == nil && cur.n < bucketCapacity {
			room = cur
		}
		last = cur
	}
	switch {
	case slot >= 0:
		return at, slot, false
	case room != nil:
		return room, -1, false
	}
	return last, -1, false
}

// add places a new record where seek said, chaining an overflow bucket
// when the chain is full, and (re-)tags the slot it wrote.
func (at *Bucket) add(slot int, e entry) {
	if slot < 0 {
		if at.n >= bucketCapacity {
			at.overflow = at.table.slab.bucket(at.table)
			at = at.overflow
		}
		if at.n == at.room {
			at.table.slab.grow(at)
		}
		slot = int(at.n)
		at.n++
	}
	at.slots()[slot] = e
	at.tags[slot] = tagOf(e.key)
	at.dead &^= 1 << uint(slot)
}

// write is the one record-write path: a single seek under the bucket
// mutex, then overwrite key's entry — a delete leaves it a tombstone —
// or place a new one, and compact the table's chunks, outside the
// mutex, when the write left too many dead bytes behind. A stamped
// write (Table.Write) stamps the record with ts, and the store decides
// retention: under MVCC the overwritten state goes onto its version
// chain. An unstamped one (the Bucket writes) keeps an existing
// record's stamp and chain.
//
// Every write copies value into the table's chunks, so the caller keeps
// its slice.
func (b *Bucket) write(key Key, value []byte, ts uint64, mode WriteMode, stamped bool) error {
	b.mu.Lock()
	compact, err := b.writeLocked(key, value, ts, mode, stamped)
	b.mu.Unlock()
	if compact {
		b.table.compact()
	}
	return err
}

// writeLocked is write under b.mu; compact reports that the table is
// due for compaction.
func (b *Bucket) writeLocked(key Key, value []byte, ts uint64, mode WriteMode, stamped bool) (compact bool, err error) {
	at, slot, found := b.seek(key)
	live := found && !at.isDead(slot)
	switch {
	case !live && (mode == WriteUpdate || mode == WriteDelete):
		return false, ErrNotFound
	case live && mode == WriteInsert:
		return false, ErrExists
	}
	if mode == WriteDelete {
		value = nil
	}
	t := b.table
	if !found {
		if slot >= 0 {
			// Recycling another key's tombstone (its ref is 0): a record
			// that key gets later must not repeat a version it had.
			b.floor = max(b.floor, at.slots()[slot].version)
		}
		e := entry{key: key, version: b.floor + 1}
		e.ref, compact = t.vals.put(value, ts, 0)
		at.add(slot, e)
		return compact, nil
	}
	e := &at.slots()[slot]
	if stamped {
		t.retain(at, slot, !live, ts)
	} else {
		_, ts = t.vals.record(e.ref)
	}
	e.ref, compact = t.vals.put(value, ts, e.ref)
	e.version++
	if mode == WriteDelete {
		at.dead |= 1 << uint(slot)
	} else {
		at.dead &^= 1 << uint(slot)
	}
	return compact, nil
}

// Put updates an existing record, bumping its version. The value is
// copied. Put, Insert and Delete are the unstamped writes (loaders,
// Repartition, probes; benchmark/ compiles against them); a commit
// applies through Table.Write.
func (b *Bucket) Put(key Key, value []byte) error {
	return b.write(key, value, 0, WriteUpdate, false)
}

// Insert adds a new record. It fails with ErrExists if key is present.
func (b *Bucket) Insert(key Key, value []byte) error {
	return b.write(key, value, 0, WriteInsert, false)
}

// Delete tombstones a record.
func (b *Bucket) Delete(key Key) error {
	return b.write(key, nil, 0, WriteDelete, false)
}

// Len reports the number of live records in the bucket chain, from the
// headers alone.
func (b *Bucket) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for cur := b; cur != nil; cur = cur.overflow {
		n += int(cur.n) - bits.OnesCount8(cur.dead)
	}
	return n
}

// ChainLength reports how many buckets are in the overflow chain
// (1 = no overflow).
func (b *Bucket) ChainLength() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for cur := b; cur != nil; cur = cur.overflow {
		n++
	}
	return n
}

// SnapshotRecord is one live record captured by Bucket.SnapshotTS: the
// value (a copy), its version counter and the commit timestamp that
// produced it.
type SnapshotRecord struct {
	Key     Key
	Value   []byte
	Version uint64
	TS      uint64
}

// SnapshotTS copies the bucket chain's live records with their commit
// timestamps. For a transactionally consistent capture the caller holds
// the bucket's LockWord in at least shared mode across the call (and
// across whatever it does with the result — e.g. streaming it to a
// warming replica); the internal mu alone only gives per-record
// atomicity against writers.
func (b *Bucket) SnapshotTS() []SnapshotRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	var recs []SnapshotRecord
	for cur := b; cur != nil; cur = cur.overflow {
		for i, e := range cur.slots() {
			if !cur.isDead(i) {
				val, ts := b.table.vals.record(e.ref)
				v := make([]byte, len(val))
				copy(v, val)
				recs = append(recs, SnapshotRecord{Key: e.key, Value: v, Version: uint64(e.version), TS: ts})
			}
		}
	}
	return recs
}

// Range calls fn for every live record in the table. fn must not call back
// into the same bucket. Iteration order is unspecified.
func (t *Table) Range(fn func(key Key, value []byte, version uint64) bool) {
	t.RangeTS(func(key Key, value []byte, version, _ uint64) bool { return fn(key, value, version) })
}

// TableStats is what a table's memory holds and what keeping it has
// cost.
type TableStats struct {
	// SlabBytes is the table's slot and bucket chunks: SlabInUse of them
	// is what its buckets hold, SlabFree what waits on the free lists,
	// and the rest the uncarved tails of the newest chunks.
	SlabBytes, SlabInUse, SlabFree int
	// ValueBytes is the value chunks' bytes, DeadBytes what compaction
	// would reclaim of them.
	ValueBytes, DeadBytes int
	// Compactions counts the completed ones; CompactTime is their total
	// duration, CompactMax the longest.
	Compactions             int
	CompactTime, CompactMax time.Duration
}

// Stats reports the table's counters.
func (t *Table) Stats() TableStats {
	var st TableStats
	t.slab.mu.Lock()
	st.SlabBytes, st.SlabFree = t.slab.chunkBytes, t.slab.freeBytes
	st.SlabInUse = t.slab.slotBytes + t.slab.overflows*bucketSize
	t.slab.mu.Unlock()
	v := &t.vals
	v.mu.Lock()
	st.ValueBytes, st.DeadBytes = v.used, v.used-v.live
	st.Compactions, st.CompactTime, st.CompactMax = v.compactions, v.compactTime, v.compactMax
	v.mu.Unlock()
	return st
}

// Len reports the number of live records in the table.
func (t *Table) Len() int {
	n := 0
	for i := range t.buckets {
		n += t.buckets[i].Len()
	}
	return n
}
