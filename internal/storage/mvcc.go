// MVCC: per-key version chains stamped with cluster-wide commit
// timestamps, serving lock-free snapshot reads.
//
// The write path is untouched: transactions lock buckets and apply in
// lock order exactly as before. What changes is that every commit-point
// apply (participant commit, inner-region unilateral commit, replica
// stream apply, WAL replay) carries the transaction's commit timestamp,
// and — when MVCC is enabled on the store — the overwritten value is
// retained on a singly-linked version chain instead of dropped. A
// read-only transaction then picks a snapshot timestamp S from the
// commit clock's stable watermark and reads, per key, the newest
// version with ts <= S: no bucket lock word is touched, no lane
// schedule is entered, and no conflict abort is possible.
//
// Why this is genuine snapshot isolation and not just per-node
// consistency: timestamps come from one cluster-shared Clock. A
// transaction Reserves its timestamp at its commit point (while its
// bucket locks are held — so per-key chain order equals lock order
// equals timestamp order) and Releases it only after every apply of the
// transaction has landed cluster-wide (primary commit waves, replica
// streams, inner-region acks). Stable() returns the largest S such that
// every timestamp <= S has been released, so a snapshot at S is a
// prefix cut of the commit order that is fully applied on every node:
// reads at S are atomic (no fractured reads) and totally ordered across
// snapshots (no long fork).
package storage

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrStaleRead is returned by ReadAt when the snapshot timestamp falls
// below the store's GC watermark: versions that old have been pruned
// (or were never reconstructed at recovery), so the read cannot be
// served consistently. Callers retry with a fresher snapshot.
var ErrStaleRead = errors.New("storage: snapshot below version retention window")

// Clock is the cluster-shared commit-timestamp oracle. One Clock is
// shared by every node of a deployment (the fabrics in this codebase
// are in-process — simnet and loopback TCP — so sharing is a pointer;
// a genuinely remote deployment would host it as a timestamp service,
// the NAM-DB design the paper's storage layout already follows).
//
// Protocol: a writing transaction calls Reserve at its commit point —
// after which its apply can no longer fail — while still holding its
// bucket locks, stamps every apply (local, replica, WAL) with the
// returned timestamp, and calls Release once ALL applies have landed
// cluster-wide (the end of its async commit tail). Read-only
// transactions call Stable and read at that timestamp.
type Clock struct {
	mu       sync.Mutex
	next     uint64
	inflight map[uint64]struct{}
}

// NewClock returns a clock starting at timestamp 1 for the first
// reservation. Timestamp 0 is reserved for pre-history state (initial
// loads), visible to every snapshot.
func NewClock() *Clock {
	return &Clock{inflight: make(map[uint64]struct{})}
}

// Reserve allocates the next commit timestamp and marks it in flight.
// Call at the commit point, while the transaction's locks are held, so
// per-key timestamp order equals lock order.
func (c *Clock) Reserve() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	ts := c.next
	c.inflight[ts] = struct{}{}
	return ts
}

// Release marks a reserved timestamp fully applied cluster-wide (or
// abandoned by an abort that applied nothing). Releasing 0 is a no-op
// so callers without a reservation need no branch.
func (c *Clock) Release(ts uint64) {
	if ts == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, ts)
}

// Stable returns the largest S such that every timestamp <= S has been
// released: a snapshot at S observes a fully-applied prefix of the
// commit order on every node.
func (c *Clock) Stable() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.next
	for ts := range c.inflight {
		if ts-1 < s {
			s = ts - 1
		}
	}
	return s
}

// AdvanceTo raises the clock past timestamps observed in recovered
// state, so post-recovery reservations never collide with replayed
// versions. No-op if the clock is already ahead.
func (c *Clock) AdvanceTo(ts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts > c.next {
		c.next = ts
	}
}

// mvccMeta is the store-wide MVCC state, shared by every table of a
// store (tables hold a pointer so bucket-level code reaches it without
// a back-reference).
type mvccMeta struct {
	on        atomic.Bool
	watermark atomic.Uint64
}

// EnableMVCC turns on version retention for every table of the store.
// Call at deployment time, before traffic; there is no way to switch
// it off (chains built under MVCC stay readable either way).
func (s *Store) EnableMVCC() { s.mv.on.Store(true) }

// MVCCEnabled reports whether the store retains version chains.
func (s *Store) MVCCEnabled() bool { return s.mv.on.Load() }

// SetWatermark raises the GC watermark: versions at or below it may be
// pruned (the newest such version per key is kept — it is the visible
// version for snapshots at the watermark itself), and ReadAt rejects
// snapshots below it with ErrStaleRead. Recovery sets it to the highest
// timestamp whose older history a WAL snapshot discarded. The watermark
// never moves backward.
func (s *Store) SetWatermark(ts uint64) {
	for {
		cur := s.mv.watermark.Load()
		if ts <= cur || s.mv.watermark.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// Watermark returns the current GC watermark.
func (s *Store) Watermark() uint64 { return s.mv.watermark.Load() }

// history is what a record carries once it has been stamped: the
// current value's commit timestamp and its retained older versions,
// newest first (MVCC only — nil otherwise). It hangs off the slot
// (entry.hist) so that the records of a clockless store, whose stamps
// are all 0, never pay for it.
type history struct {
	ts   uint64
	prev *version
}

// version is one retained committed version of a record, linked newest
// first. value slices are the same immutable buffers the live entry
// held (Put installs fresh copies), so retention is pointer-cheap.
type version struct {
	ts    uint64
	value []byte
	dead  bool
	prev  *version
}

// retain pushes e's current state (dead says it is a tombstone) onto
// its version chain (MVCC on only) and lazily prunes versions the
// watermark has passed. Caller holds the bucket's internal mutex.
func (t *Table) retain(e *entry, dead bool) {
	if t.mv == nil || !t.mv.on.Load() {
		return
	}
	if e.hist == nil {
		e.hist = &history{}
	}
	h := e.hist
	h.prev = &version{ts: h.ts, value: e.value(), dead: dead, prev: h.prev}
	// Prune: chains are in strictly decreasing timestamp order (per-key
	// writes are lock-ordered and timestamps are reserved under those
	// locks), so everything past the first version at or below the
	// watermark is invisible to every servable snapshot.
	w := t.mv.watermark.Load()
	for v := h.prev; v != nil; v = v.prev {
		if v.ts <= w {
			v.prev = nil
			return
		}
	}
}

// ReadAt returns the value of key visible at snapshot timestamp ts:
// the newest version with version-ts <= ts. It takes only the bucket's
// internal mutex (never the transactional lock word), so it cannot
// conflict-abort and never blocks behind a transaction's lock span.
// ErrNotFound means the key did not exist at ts; ErrStaleRead means ts
// predates the retention window.
//
// The returned slice is immutable (the same contract Get carries).
func (t *Table) ReadAt(key Key, ts uint64) ([]byte, error) {
	if t.mv != nil && ts < t.mv.watermark.Load() {
		return nil, ErrStaleRead
	}
	b := t.Bucket(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key, false)
	if !ok {
		return nil, ErrNotFound
	}
	e := &at.entries[i]
	if e.ts() <= ts {
		if at.isDead(i) {
			return nil, ErrNotFound
		}
		return e.value(), nil
	}
	for v := e.hist.prev; v != nil; v = v.prev { // a stamp above ts: hist != nil
		if v.ts <= ts {
			if v.dead {
				return nil, ErrNotFound
			}
			return v.value, nil
		}
	}
	// Every retained version is newer than ts. With ts at or above the
	// watermark that can only mean the key was created after ts.
	return nil, ErrNotFound
}

// PutAt is Put stamped with a commit timestamp: the overwritten value
// is retained on the version chain when MVCC is on. The timestamped
// writes always copy the value (the hand-over of PutOwned is not
// offered here: a version chain already costs an allocation per write).
func (t *Table) PutAt(key Key, value []byte, ts uint64) error {
	return t.Bucket(key).write(key, value, ts, update, false, t)
}

// InsertAt is Insert stamped with a commit timestamp. Under MVCC a
// tombstoned key is resurrected in place with its chain intact (the
// tombstone becomes a retained version: the key reads as absent for
// snapshots between the delete and this insert), and tombstone slots
// of other keys are never reused — their chains must stay readable.
func (t *Table) InsertAt(key Key, value []byte, ts uint64) error {
	return t.Bucket(key).write(key, value, ts, insert, false, t)
}

// UpsertAt is Upsert stamped with a commit timestamp.
func (t *Table) UpsertAt(key Key, value []byte, ts uint64) {
	_ = t.Bucket(key).write(key, value, ts, upsert, false, t) // upsert cannot fail
}

// DeleteAt is Delete stamped with a commit timestamp: the tombstone is
// a new version, and the deleted value stays readable for older
// snapshots.
func (t *Table) DeleteAt(key Key, ts uint64) error {
	b := t.Bucket(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tombstone(key, t, ts)
}

// ChainDepth reports how many retained versions (beyond the live one)
// key carries — the GC observability hook tests assert pruning with.
func (t *Table) ChainDepth(key Key) int {
	b := t.Bucket(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key, false)
	if !ok {
		return 0
	}
	n := 0
	if h := at.entries[i].hist; h != nil {
		for v := h.prev; v != nil; v = v.prev {
			n++
		}
	}
	return n
}

// RangeTS is Range with each record's commit timestamp: the WAL
// snapshot builder uses it so recovered records keep their stamps (the
// value and its ts are captured under one bucket-mutex hold, which a
// Range followed by a per-key timestamp lookup could not guarantee). Iteration order is
// unspecified; fn must not call back into the same bucket.
func (t *Table) RangeTS(fn func(key Key, value []byte, version, ts uint64) bool) {
	for i := range t.buckets {
		for _, r := range t.buckets[i].SnapshotTS() {
			if !fn(r.Key, r.Value, r.Version, r.TS) {
				return
			}
		}
	}
}
