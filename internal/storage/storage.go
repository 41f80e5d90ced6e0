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
// an entry's own line only when its fingerprint matches.
package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
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
	mu     sync.RWMutex
	tables map[TableID]*Table
	// mv is the store-wide MVCC switchboard (version retention flag and
	// GC watermark), shared with every table. See mvcc.go.
	mv *mvccMeta
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[TableID]*Table), mv: &mvccMeta{}}
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
	if t, ok := s.tables[id]; ok {
		return t
	}
	t := &Table{
		id:      id,
		buckets: make([]Bucket, nBuckets),
		mv:      s.mv,
	}
	s.tables[id] = t
	return t
}

// Reset drops every table, returning the store to its freshly-created
// state. It models a crash wiping volatile memory: the chaos harness
// calls it on a "killed" node before replaying the write-ahead log back
// in. Callers must have quiesced the store first — no transaction may
// hold bucket locks or be mid-apply.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables = make(map[TableID]*Table)
}

// Table returns the table with the given id, or nil.
func (s *Store) Table(id TableID) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[id]
}

// Tables returns a snapshot of all table IDs.
func (s *Store) Tables() []TableID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TableID, 0, len(s.tables))
	for id := range s.tables {
		out = append(out, id)
	}
	return out
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

// entry is one record slot inside a bucket: 56 bytes. Whether the slot
// is a tombstone is a bit of its bucket's dead mask, not a field here.
type entry struct {
	key     Key
	value   []byte
	version uint64
	// ts is the commit timestamp of the current value (0 = initial
	// load, visible to every snapshot); prev chains retained older
	// versions, newest first (MVCC only — nil otherwise). See mvcc.go.
	ts   uint64
	prev *version
}

// Bucket holds a small set of records plus an embedded lock word. Buckets
// never split; an over-full bucket chains to an overflow bucket, as in the
// paper.
//
// The header is exactly one 64-byte cache line — lock word, mutex, eight
// one-byte key fingerprints, the tombstone bitmask, the entries slice, the
// overflow pointer — and a chain walk decides from it alone which entries
// are worth reading: an entry's own line is touched only when its
// fingerprint matches (see docs/ARCHITECTURE.md, "What a lookup touches").
type Bucket struct {
	Lock LockWord

	mu       sync.Mutex            // protects everything below
	tags     [bucketCapacity]uint8 // tags[i] = tagOf(entries[i].key), i < len(entries)
	dead     uint8                 // bit i set: entries[i] is a tombstone left by Delete
	entries  []entry
	overflow *Bucket
}

const bucketCapacity = 8

// tagOf is a key's one-byte fingerprint: the top byte of a Fibonacci
// hash, independent of the bits bucketIndex keeps.
func tagOf(key Key) uint8 { return uint8(uint64(key) * 0x9E3779B97F4A7C15 >> 56) }

// isDead reports whether slot i of this bucket is a tombstone.
func (b *Bucket) isDead(i int) bool { return b.dead>>uint(i)&1 != 0 }

// Get returns the value and its version. The caller is expected to hold
// the bucket lock in at least shared mode when running under 2PL; OCC
// calls Get without a lock and validates the version later.
//
// The returned slice is IMMUTABLE and never changes after the call: Put
// replaces a record's value slice with a fresh copy instead of mutating
// it in place, so readers hold a consistent snapshot without paying a
// defensive copy on the hottest path in the system.
func (b *Bucket) Get(key Key) (value []byte, version uint64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key, true)
	if !ok {
		return nil, 0, ErrNotFound
	}
	return at.entries[i].value, at.entries[i].version, nil
}

// Version returns the record's current version without copying the value.
func (b *Bucket) Version(key Key) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key, true)
	if !ok {
		return 0, ErrNotFound
	}
	return at.entries[i].version, nil
}

// writeMode says what a write requires of the key's current state.
type writeMode uint8

const (
	upsert writeMode = iota // insert or overwrite
	update                  // the key must be live, else ErrNotFound
	insert                  // the key must not be live, else ErrExists
)

// seek is the one walk over a bucket chain, for reads and writes alike.
// With ok it returns key's entry, at.entries[slot] — the live one, or
// with reuse off (MVCC, where a tombstone keeps its version chain) key's
// own tombstone too. Without, it returns where a new record goes: a
// tombstone slot to recycle when reuse is on (slot >= 0), else the first
// bucket with room, else the chain's last bucket (slot < 0). It reads an
// entry only when the header's fingerprint for it matches.
func (b *Bucket) seek(key Key, reuse bool) (at *Bucket, slot int, ok bool) {
	tag := tagOf(key)
	slot = -1
	var room, last *Bucket
	for cur := b; cur != nil; cur = cur.overflow {
		for i := range cur.entries {
			dead := cur.isDead(i)
			if cur.tags[i] == tag && !(dead && reuse) && cur.entries[i].key == key {
				return cur, i, true
			}
			if dead && reuse && slot < 0 {
				at, slot = cur, i
			}
		}
		if room == nil && len(cur.entries) < bucketCapacity {
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
	if slot >= 0 {
		at.entries[slot] = e
	} else {
		if len(at.entries) >= bucketCapacity {
			at.overflow = &Bucket{}
			at = at.overflow
		}
		slot = len(at.entries)
		at.entries = append(at.entries, e)
	}
	at.tags[slot] = tagOf(e.key)
	at.dead &^= 1 << uint(slot)
}

// write is the one record-write path: a single seek under the bucket
// mutex, then overwrite key's record or place a new one. With a table
// (the timestamped Table.*At calls) the record is stamped with ts and,
// under MVCC, the overwritten state is retained on its version chain —
// a tombstoned key is resurrected in place, chain intact.
//
// Stored values are immutable and exactly as long as their content.
// write copies value unless owned says the caller hands it over: it
// built the slice and nothing will write through it again. A value
// handed over with spare capacity is still copied to its length, so no
// record pins more memory than it holds.
func (b *Bucket) write(key Key, value []byte, ts uint64, mode writeMode, owned bool, t *Table) error {
	mvcc := t != nil && t.mv != nil && t.mv.on.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	at, slot, found := b.seek(key, !mvcc)
	live := found && !at.isDead(slot)
	switch {
	case mode == update && !live:
		return ErrNotFound
	case mode == insert && live:
		return ErrExists
	}
	if !owned || cap(value) != len(value) {
		v := make([]byte, len(value))
		copy(v, value)
		value = v
	}
	if !found {
		at.add(slot, entry{key: key, value: value, version: 1, ts: ts})
		return nil
	}
	e := &at.entries[slot]
	if t != nil {
		t.retain(e, !live)
		e.ts = ts
	}
	e.value = value
	e.version++
	at.dead &^= 1 << uint(slot)
	return nil
}

// Put updates an existing record, bumping its version. The value is
// copied; see PutOwned.
func (b *Bucket) Put(key Key, value []byte) error {
	return b.write(key, value, 0, update, false, nil)
}

// PutOwned is Put for a value handed over instead of copied (see write).
func (b *Bucket) PutOwned(key Key, value []byte) error {
	return b.write(key, value, 0, update, true, nil)
}

// Insert adds a new record. It fails with ErrExists if key is present.
func (b *Bucket) Insert(key Key, value []byte) error {
	return b.write(key, value, 0, insert, false, nil)
}

// Upsert inserts or overwrites.
func (b *Bucket) Upsert(key Key, value []byte) {
	_ = b.write(key, value, 0, upsert, false, nil) // upsert cannot fail
}

// UpsertOwned is Upsert for a handed-over value (see PutOwned).
func (b *Bucket) UpsertOwned(key Key, value []byte) {
	_ = b.write(key, value, 0, upsert, true, nil) // upsert cannot fail
}

// Delete tombstones a record.
func (b *Bucket) Delete(key Key) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tombstone(key, nil, 0)
}

// tombstone marks key's live entry dead in its bucket's mask; with a
// table (DeleteAt) the tombstone is a new version stamped ts. Caller
// holds b.mu.
func (b *Bucket) tombstone(key Key, t *Table, ts uint64) error {
	at, i, ok := b.seek(key, true)
	if !ok {
		return ErrNotFound
	}
	e := &at.entries[i]
	if t != nil {
		t.retain(e, false)
		e.ts = ts
	}
	e.value = nil
	e.version++
	at.dead |= 1 << uint(i)
	return nil
}

// Len reports the number of live records in the bucket chain, from the
// headers alone.
func (b *Bucket) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for cur := b; cur != nil; cur = cur.overflow {
		n += len(cur.entries) - bits.OnesCount8(cur.dead)
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
		for i := range cur.entries {
			if e := &cur.entries[i]; !cur.isDead(i) {
				v := make([]byte, len(e.value))
				copy(v, e.value)
				recs = append(recs, SnapshotRecord{Key: e.key, Value: v, Version: e.version, TS: e.ts})
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

// Len reports the number of live records in the table.
func (t *Table) Len() int {
	n := 0
	for i := range t.buckets {
		n += t.buckets[i].Len()
	}
	return n
}
