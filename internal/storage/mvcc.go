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
	"sort"
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
//
// Reservations are increasing, so the in-flight timestamps sit in a
// FIFO ring in reservation order, each with a released flag. Release
// pops the released prefix and publishes the stable point, so Stable
// is one atomic load; Reserve and Release serialize on mu.
type Clock struct {
	mu       sync.Mutex
	next     uint64
	inflight fifo[reservation]
	stable   atomic.Uint64
}

// reservation is one in-flight timestamp of the Clock's ring.
type reservation struct {
	ts       uint64
	released bool
}

// NewClock returns a clock starting at timestamp 1 for the first
// reservation. Timestamp 0 is reserved for pre-history state (initial
// loads), visible to every snapshot.
func NewClock() *Clock { return &Clock{} }

// Reserve allocates the next commit timestamp and marks it in flight.
// Call at the commit point, while the transaction's locks are held, so
// per-key timestamp order equals lock order. The stable point does not
// move: it stays below the new timestamp.
func (c *Clock) Reserve() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	c.inflight.push(reservation{ts: c.next})
	return c.next
}

// Release marks a reserved timestamp fully applied cluster-wide (or
// abandoned by an abort that applied nothing). Releasing 0, or a
// timestamp not in flight, is a no-op so callers without a reservation
// need no branch.
func (c *Clock) Release(ts uint64) {
	if ts == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.find(ts)
	if r == nil {
		return
	}
	r.released = true
	for q := &c.inflight; q.n > 0 && q.at(0).released; {
		q.pop()
	}
	c.publish()
}

// find returns in-flight timestamp ts's reservation, or nil. The ring
// is sorted and, unless AdvanceTo skipped ahead while reservations were
// in flight, dense, so ts's offset from the oldest is its position.
func (c *Clock) find(ts uint64) *reservation {
	q := &c.inflight
	if q.n == 0 || ts < q.at(0).ts {
		return nil
	}
	i := int(min(ts-q.at(0).ts, uint64(q.n)))
	if i == q.n || q.at(i).ts != ts {
		i = sort.Search(q.n, func(i int) bool { return q.at(i).ts >= ts })
	}
	if i == q.n || q.at(i).ts != ts {
		return nil
	}
	return q.at(i)
}

// publish stores the stable point, under mu: one below the oldest
// in-flight timestamp, or next when none is in flight.
func (c *Clock) publish() {
	if c.inflight.n == 0 {
		c.stable.Store(c.next)
	} else {
		c.stable.Store(c.inflight.at(0).ts - 1)
	}
}

// Stable returns the largest S such that every timestamp <= S has been
// released: a snapshot at S observes a fully-applied prefix of the
// commit order on every node.
func (c *Clock) Stable() uint64 { return c.stable.Load() }

// AdvanceTo raises the clock past timestamps observed in recovered
// state, so post-recovery reservations never collide with replayed
// versions. No-op if the clock is already ahead.
func (c *Clock) AdvanceTo(ts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts > c.next {
		c.next = ts
		c.publish()
	}
}

// mvccMeta is the store-wide MVCC state, shared by every table of a
// store (tables hold a pointer so bucket-level code reaches it without
// a back-reference).
type mvccMeta struct {
	on        atomic.Bool
	watermark atomic.Uint64
	// pending queues the records whose chains a rising watermark may
	// cut, in the order their writes landed; sweeping keeps
	// SetWatermark's sweep single flight.
	pending  gcQueue
	sweeping sync.Mutex
}

// EnableMVCC turns on version retention for every table of the store.
// Call at deployment time, before traffic; there is no way to switch
// it off (chains built under MVCC stay readable either way).
func (s *Store) EnableMVCC() { s.mv.on.Store(true) }

// MVCCEnabled reports whether the store retains version chains.
func (s *Store) MVCCEnabled() bool { return s.mv.on.Load() }

// SetWatermark raises the GC watermark and collects what it passed.
// ReadAt rejects snapshots below the watermark with ErrStaleRead, so a
// chain need only keep what a snapshot at or above it can read: every
// version above the watermark and the newest at or below it — nothing
// older, and no chain at all once the live version is at or below it.
// The watermark never moves backward. Recovery sets it to the highest
// timestamp whose older history a WAL snapshot discarded; in steady
// state the deployment's GC loop raises it.
//
// The sweep runs on the caller's goroutine, and only one runs at a
// time: it cuts the chain of every record whose queued write is at or
// below the watermark, in write order, stopping at the first that is
// not. A caller that finds a sweep running returns at once; the next
// call picks up what it left.
func (s *Store) SetWatermark(ts uint64) {
	for {
		cur := s.mv.watermark.Load()
		if ts <= cur || s.mv.watermark.CompareAndSwap(cur, ts) {
			break
		}
	}
	if !s.mv.on.Load() || !s.mv.sweeping.TryLock() {
		return
	}
	defer s.mv.sweeping.Unlock()
	w := s.mv.watermark.Load()
	var batch [64]pendingPrune
	for {
		n := s.mv.pending.take(batch[:], w)
		for _, p := range batch[:n] {
			p.t.prune(p.key, w)
		}
		if n < len(batch) {
			return
		}
	}
}

// Watermark returns the current GC watermark.
func (s *Store) Watermark() uint64 { return s.mv.watermark.Load() }

// pendingPrune names a record whose chain grew by a write at ts.
type pendingPrune struct {
	t   *Table
	key Key
	ts  uint64
}

// gcQueue is the FIFO of pendingPrunes. Its mutex is innermost: push
// runs under a bucket mutex, and take's caller takes bucket mutexes
// only after take has returned.
type gcQueue struct {
	mu sync.Mutex
	q  fifo[pendingPrune]
}

func (q *gcQueue) push(p pendingPrune) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.q.push(p)
}

// take moves the oldest entries into dst, as many as fit, stopping at
// the first whose write is above w, and returns how many it moved.
func (q *gcQueue) take(dst []pendingPrune, w uint64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for ; n < len(dst) && q.q.n > 0 && q.q.at(0).ts <= w; n++ {
		dst[n] = *q.q.at(0)
		q.q.pop()
	}
	return n
}

// fifo is a ring that grows by doubling and never shrinks, so pushes
// stop allocating once it has reached its steady backlog (a retention
// window of writes, the commits in flight). Callers synchronize.
type fifo[T any] struct {
	ring    []T // len is a power of two
	head, n int
}

func (f *fifo[T]) push(v T) {
	if f.n == len(f.ring) {
		grown := make([]T, max(256, 2*len(f.ring)))
		copy(grown[copy(grown, f.ring[f.head:]):], f.ring[:f.head])
		f.ring, f.head = grown, 0
	}
	*f.at(f.n) = v
	f.n++
}

// at returns the i'th oldest entry, i < n.
func (f *fifo[T]) at(i int) *T { return &f.ring[(f.head+i)&(len(f.ring)-1)] }

// pop drops the oldest entry.
func (f *fifo[T]) pop() {
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
}

// retained is a bucket's MVCC side: the versions each of its records
// retains, newest first. A bucket allocates it when one of its records
// first retains a version, and the sweep drops it once none does.
type retained struct {
	prev [bucketCapacity]*version
}

// chain returns slot i's retained versions (nil for a bucket without
// any).
func (r *retained) chain(i int) *version {
	if r == nil {
		return nil
	}
	return r.prev[i]
}

// version is one retained committed version of a record, linked newest
// first. It owns a copy of its value, so a chain never keeps a value
// chunk alive and compaction never looks at chains.
type version struct {
	ts    uint64
	value []byte
	dead  bool
	prev  *version
}

// retain pushes the current state of at's slot (dead says it is a
// tombstone) onto its version chain before a write stamped ts replaces
// it, and queues the record for the sweep that cuts the chain once the
// watermark reaches ts (MVCC on only). Caller holds the bucket chain's
// mutex.
func (t *Table) retain(at *Bucket, slot int, dead bool, ts uint64) {
	if !t.mv.on.Load() {
		return
	}
	e := &at.slots()[slot]
	val, old := t.vals.record(e.ref)
	v := &version{ts: old, dead: dead, prev: at.side.chain(slot)}
	if !dead {
		v.value = make([]byte, len(val))
		copy(v.value, val)
	}
	if at.side == nil {
		at.side = &retained{}
	}
	at.side.prev[slot] = v
	t.mv.pending.push(pendingPrune{t: t, key: e.key, ts: ts})
}

// prune cuts key's chain to what a snapshot at or above w can read.
// Chains are in strictly decreasing timestamp order (per-key writes are
// lock-ordered and timestamps are reserved under those locks), so that
// is nothing when the live version is at or below w, and otherwise
// everything up to the first retained version at or below w. A bucket
// whose records retain nothing more drops its side.
func (t *Table) prune(key Key, w uint64) {
	b := t.Bucket(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key)
	if !ok || at.side.chain(i) == nil {
		return
	}
	if _, live := t.vals.record(at.slots()[i].ref); live <= w {
		at.side.prev[i] = nil
		if at.side.prev == ([bucketCapacity]*version{}) {
			at.side = nil
		}
		return
	}
	for v := at.side.prev[i]; v != nil; v = v.prev {
		if v.ts <= w {
			v.prev = nil
			return
		}
	}
}

// ReadAt returns a copy of the value of key visible at snapshot
// timestamp ts, in fresh memory: a cold read. ReadAtInto is the same
// read into a caller's buffer.
func (t *Table) ReadAt(key Key, ts uint64) ([]byte, error) {
	return t.ReadAtInto(key, ts, nil)
}

// ReadAtInto returns the value of key visible at snapshot timestamp ts
// — the newest version with version-ts <= ts — copied into buf under the
// bucket mutex (fresh memory when buf is nil), as GetInto copies. It
// takes only the bucket's internal mutex (never the transactional lock
// word), so it cannot conflict-abort and never blocks behind a
// transaction's lock span. ErrNotFound means the key did not exist at
// ts; ErrStaleRead means ts predates the retention window.
func (t *Table) ReadAtInto(key Key, ts uint64, buf *Buf) ([]byte, error) {
	b := t.Bucket(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	// Test the watermark under the mutex every prune takes. A prune
	// runs only after the watermark it prunes to was published, so with
	// ts not below the watermark now, no prune that could drop a version
	// ts needs has run, and none can run before the read is done.
	if ts < t.mv.watermark.Load() {
		return nil, ErrStaleRead
	}
	at, i, ok := b.seek(key)
	if !ok {
		return nil, ErrNotFound
	}
	if val, live := t.vals.record(at.slots()[i].ref); live <= ts {
		if at.isDead(i) {
			return nil, ErrNotFound
		}
		return buf.copy(val), nil
	}
	for v := at.side.chain(i); v != nil; v = v.prev {
		if v.ts <= ts {
			if v.dead {
				return nil, ErrNotFound
			}
			return buf.copy(v.value), nil
		}
	}
	// Every retained version is newer than ts. With ts at or above the
	// watermark that can only mean the key was created after ts.
	return nil, ErrNotFound
}

// Write is the one stamped record write, which every commit apply
// takes: primaries, replicas, WAL replay and snapshot loads alike. ts
// is the transaction's commit timestamp, 0 on a clockless store; the
// store, not the caller, decides what a stamp costs — under MVCC the
// overwritten state (a tombstone too) is retained on the version chain
// until the watermark passes ts, otherwise nothing is retained and a
// record stamped 0 carries no history. A tombstoned key is resurrected
// in place (see seek), so its version keeps counting and, under MVCC,
// the key reads as absent for snapshots between its delete and its
// re-insert. value is copied (see Bucket.write).
func (t *Table) Write(key Key, value []byte, ts uint64, mode WriteMode) error {
	return t.Bucket(key).write(key, value, ts, mode, true)
}

// PutAt is an update stamped with ts. PutAt and UpsertAt stay as
// wrappers of Write because benchmark/ compiles against them.
func (t *Table) PutAt(key Key, value []byte, ts uint64) error {
	return t.Write(key, value, ts, WriteUpdate)
}

// UpsertAt is an insert-or-overwrite stamped with ts.
func (t *Table) UpsertAt(key Key, value []byte, ts uint64) {
	_ = t.Write(key, value, ts, WriteUpsert) // upsert cannot fail
}

// ChainDepth reports how many retained versions (beyond the live one)
// key carries — the GC observability hook tests assert pruning with.
func (t *Table) ChainDepth(key Key) int {
	b := t.Bucket(key)
	b.mu.Lock()
	defer b.mu.Unlock()
	at, i, ok := b.seek(key)
	if !ok {
		return 0
	}
	n := 0
	for v := at.side.chain(i); v != nil; v = v.prev {
		n++
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
