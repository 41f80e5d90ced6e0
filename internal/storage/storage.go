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
package storage

import (
	"errors"
	"fmt"
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

// entry is one record slot inside a bucket.
type entry struct {
	key     Key
	value   []byte
	version uint64
	dead    bool // tombstone left by Delete
	// ts is the commit timestamp of the current value (0 = initial
	// load, visible to every snapshot); prev chains retained older
	// versions, newest first (MVCC only — nil otherwise). See mvcc.go.
	ts   uint64
	prev *version
}

// Bucket holds a small set of records plus an embedded lock word. Buckets
// never split; an over-full bucket chains to an overflow bucket, as in the
// paper.
type Bucket struct {
	Lock LockWord

	mu       sync.Mutex // protects entries + overflow pointer
	entries  []entry
	overflow *Bucket
}

const bucketCapacity = 8

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
	e, _, _ := b.seek(key, true)
	if e == nil {
		return nil, 0, ErrNotFound
	}
	return e.value, e.version, nil
}

// Version returns the record's current version without copying the value.
func (b *Bucket) Version(key Key) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, _, _ := b.seek(key, true)
	if e == nil {
		return 0, ErrNotFound
	}
	return e.version, nil
}

// writeMode says what a write requires of the key's current state.
type writeMode uint8

const (
	upsert writeMode = iota // insert or overwrite
	update                  // the key must be live, else ErrNotFound
	insert                  // the key must not be live, else ErrExists
)

// seek is the one walk over a bucket chain, for reads and writes alike.
// It returns key's entry — the live one, or with reuse off (MVCC, where
// a tombstone keeps its version chain) key's own tombstone too — or nil
// plus where a new record goes: a tombstone slot to recycle when reuse
// is on (slot >= 0), else the first bucket with room, else the chain's
// last bucket (slot < 0).
func (b *Bucket) seek(key Key, reuse bool) (e *entry, at *Bucket, slot int) {
	slot = -1
	var room, last *Bucket
	for cur := b; cur != nil; cur = cur.overflow {
		for i := range cur.entries {
			c := &cur.entries[i]
			if c.key == key && (!c.dead || !reuse) {
				return c, nil, -1
			}
			if c.dead && reuse && slot < 0 {
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
		return nil, at, slot
	case room != nil:
		return nil, room, -1
	}
	return nil, last, -1
}

// add places a new record where seek said, chaining an overflow bucket
// when the chain is full.
func (at *Bucket) add(slot int, e entry) {
	if slot >= 0 {
		at.entries[slot] = e
		return
	}
	if len(at.entries) >= bucketCapacity {
		at.overflow = &Bucket{}
		at = at.overflow
	}
	at.entries = append(at.entries, e)
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
	e, at, slot := b.seek(key, !mvcc)
	live := e != nil && !e.dead
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
	if e == nil {
		at.add(slot, entry{key: key, value: value, version: 1, ts: ts})
		return nil
	}
	if t != nil {
		t.retain(e)
		e.ts = ts
	}
	e.value, e.dead = value, false
	e.version++
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
	e, _, _ := b.seek(key, true)
	if e == nil {
		return ErrNotFound
	}
	e.dead, e.value = true, nil
	e.version++
	return nil
}

// Len reports the number of live records in the bucket chain.
func (b *Bucket) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for cur := b; cur != nil; cur = cur.overflow {
		for i := range cur.entries {
			if !cur.entries[i].dead {
				n++
			}
		}
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

// SnapshotRecord is one record captured by Bucket.SnapshotTS for a
// partition backfill: the live value plus the commit timestamp that
// produced it.
type SnapshotRecord struct {
	Key   Key
	Value []byte
	TS    uint64
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
			if !cur.entries[i].dead {
				v := make([]byte, len(cur.entries[i].value))
				copy(v, cur.entries[i].value)
				recs = append(recs, SnapshotRecord{Key: cur.entries[i].key, Value: v, TS: cur.entries[i].ts})
			}
		}
	}
	return recs
}

// Range calls fn for every live record in the table. fn must not call back
// into the same bucket. Iteration order is unspecified.
func (t *Table) Range(fn func(key Key, value []byte, version uint64) bool) {
	for i := range t.buckets {
		b := &t.buckets[i]
		b.mu.Lock()
		type rec struct {
			k Key
			v []byte
			n uint64
		}
		var recs []rec
		for cur := b; cur != nil; cur = cur.overflow {
			for j := range cur.entries {
				if !cur.entries[j].dead {
					v := make([]byte, len(cur.entries[j].value))
					copy(v, cur.entries[j].value)
					recs = append(recs, rec{cur.entries[j].key, v, cur.entries[j].version})
				}
			}
		}
		b.mu.Unlock()
		for _, r := range recs {
			if !fn(r.k, r.v, r.n) {
				return
			}
		}
	}
}

// Len reports the number of live records in the table.
func (t *Table) Len() int {
	n := 0
	for i := range t.buckets {
		n += t.buckets[i].Len()
	}
	return n
}
