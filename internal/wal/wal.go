// Package wal is Chiller's durability subsystem: one append-only log
// per execution lane, group-committed with batched fsyncs, plus
// per-lane snapshots with log truncation and a replay path that
// rebuilds a node's store after a crash.
//
// The per-lane layout is the cheap path the lane architecture was built
// for: a lane serializes execution of its records, and commit-time
// appends happen under the committing transaction's bucket locks, so
// within one lane file the record order for any given record equals its
// commit order — no log-level latching beyond a per-lane append mutex.
// Records carry a node-global logical sequence number (LSN) so replay
// can merge the lane tails into one cluster of writes ordered
// consistently even when a record migrates lanes (MarkHot,
// Repartition) between runs.
//
// Group commit is self-clocked: Append frames the record straight into
// the lane's reused userspace buffer and joins the open batch; a single
// flusher goroutine runs whenever a batch has members and sleeps only
// when none does. A batch is therefore whatever arrived while the
// previous write (and fsync) was in progress — a lone committer pays one
// write, load forms its own batches, and no timer sits on the commit
// path. Completion is per batch: the waiters parked on a batch and the
// callbacks registered on it are released together once its records are
// on file (and fsynced unless NoSync). The paper's async commit tails
// absorb the wait without holding locks (callers release their bucket
// locks before Ticket.Wait).
//
// On-disk record framing (little-endian, matching internal/wire):
//
//	[len u32][crc u32][type u8][lsn u64][payload ...]
//
// len counts type+lsn+payload; crc is IEEE CRC-32 over the same bytes.
// Payloads are opaque to this package — internal/server encodes write
// sets with its existing wire codecs, in place (AppendFunc).
//
// See docs/DURABILITY.md for the recovery sequence and the
// fsync-vs-throughput tradeoffs.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Record types.
const (
	// RecCommit is a committed write set (payload: server.EncodeWrites).
	RecCommit uint8 = 1
)

// recHeaderSize is the fixed framing prefix: len u32 + crc u32.
const recHeaderSize = 8

// recBodyPrefix is type u8 + lsn u64, the framed bytes before the payload.
const recBodyPrefix = 9

// maxSpareBuf is the largest drained lane buffer kept for reuse; a burst
// that grew one past it gives the memory back.
const maxSpareBuf = 1 << 20

// ErrClosed is the result of a ticket taken after Close: its record was
// never written.
var ErrClosed = errors.New("wal: log closed")

// Policy configures group commit and snapshotting.
type Policy struct {
	// FlushInterval, when > 0, is an opt-in linger: the flusher holds a
	// batch open that long after its first record arrives, trading
	// commit latency for larger batches (fewer fsyncs). The default, 0,
	// flushes as soon as there is something to flush.
	FlushInterval time.Duration
	// FlushBytes cuts a linger short once this many bytes are waiting
	// (default 256 KiB). Ignored while FlushInterval is 0.
	FlushBytes int
	// NoSync skips the fsync syscall: records are still written to the
	// OS (surviving process death within the same boot, which is what
	// the simulated crash harness exercises) but not a power failure.
	NoSync bool
	// SnapshotBytes, when > 0, arms NeedsSnapshot: a lane whose log
	// grows past this many bytes since its last snapshot reports that
	// it wants one. 0 disables automatic snapshot pressure.
	SnapshotBytes int64
}

func (p Policy) withDefaults() Policy {
	if p.FlushBytes <= 0 {
		p.FlushBytes = 256 << 10
	}
	return p
}

// Stats counts the log's activity; all fields update atomically.
type Stats struct {
	// Appends counts Append calls; Flushes counts batches that wrote
	// records. The ratio Appends/Flushes is the achieved group-commit
	// factor.
	Appends atomic.Uint64
	Flushes atomic.Uint64
	// Snapshots counts completed snapshot+truncate cycles.
	Snapshots atomic.Uint64
}

// laneLog is one lane's append state. Its two buffers swap at every
// flush and are reused, so steady-state appends allocate nothing.
type laneLog struct {
	mu        sync.Mutex // serializes appends and snapshot/truncate
	wmu       sync.Mutex // serializes file writes vs truncation (mu → wmu)
	f         *os.File
	buf       []byte // records framed since the last drain
	spare     []byte // the drained buffer of the pair; flusher-owned
	sinceSnap int64  // bytes appended since the last snapshot
}

// batch is one group commit: every ticket taken while it was open.
// The flusher seals it (opens the next), drains the lanes, and releases
// it; n, bytes, landed and after are guarded by Log.fmu.
type batch struct {
	flushed sync.WaitGroup // released once the batch's records are on file
	err     error          // the flusher's sticky error; read after flushed
	n       int            // tickets joined
	bytes   int            // framed bytes joined (the linger's threshold)
	landed  bool
	after   []func(error) // Ticket.Notify registrations
}

func newBatch() *batch {
	b := &batch{}
	b.flushed.Add(1)
	return b
}

// Log is a node's write-ahead log: one append-only file per lane plus
// one snapshot file per lane, all under a single directory.
type Log struct {
	dir    string
	policy Policy
	lanes  []*laneLog
	stats  Stats

	lsn atomic.Uint64 // last assigned LSN

	// Corruption lists the named errors (*CorruptError) Open hit while
	// scanning existing lane files; the valid prefix before each was
	// kept and the files were truncated to it, so appends continue
	// cleanly. Callers decide whether a corrupt tail is fatal.
	Corruption []error

	fmu    sync.Mutex
	open   *batch // the batch new tickets join
	closed bool
	// wake carries "the open batch has work" (and Close) to a parked
	// flusher; one pending token covers any number of senders.
	wake chan struct{}
	// Flusher-owned: the sticky write/fsync error and a recycled
	// callback slice for the next batch.
	flushErr  error
	afterFree []func(error)

	flusherGone  sync.WaitGroup
	snapInFlight []atomic.Bool
}

// Open creates or reopens the log directory with one file per lane.
// Existing lane files are scanned: the LSN counter resumes past the
// highest record found, a torn final record (short write at EOF — the
// normal crash artifact) is silently dropped, and a CRC mismatch
// truncates the file at the corruption point and is reported in
// Corruption as a *CorruptError. Replay reads the state back.
func Open(dir string, lanes int, policy Policy) (*Log, error) {
	if lanes < 1 {
		lanes = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{
		dir:          dir,
		policy:       policy.withDefaults(),
		lanes:        make([]*laneLog, lanes),
		open:         newBatch(),
		wake:         make(chan struct{}, 1),
		snapInFlight: make([]atomic.Bool, lanes),
	}
	var maxLSN uint64
	for i := range l.lanes {
		path := l.lanePath(i)
		valid, laneMax, corrupt, err := scanLaneFile(path, i)
		if err != nil {
			return nil, err
		}
		if corrupt != nil {
			l.Corruption = append(l.Corruption, corrupt)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open lane %d: %w", i, err)
		}
		// Drop the torn/corrupt tail so new appends start at a record
		// boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate lane %d: %w", i, err)
		}
		if _, err := f.Seek(valid, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seek lane %d: %w", i, err)
		}
		l.lanes[i] = &laneLog{f: f, sinceSnap: valid}
		if laneMax > maxLSN {
			maxLSN = laneMax
		}
		if cut, _, err := readSnapshotFile(l.snapPath(i)); err == nil && cut > maxLSN {
			maxLSN = cut
		}
	}
	l.lsn.Store(maxLSN)
	l.flusherGone.Add(1)
	go l.flusher()
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns the log's activity counters.
func (l *Log) Stats() *Stats { return &l.stats }

// Lanes returns the number of lane files.
func (l *Log) Lanes() int { return len(l.lanes) }

func (l *Log) lanePath(lane int) string {
	return filepath.Join(l.dir, fmt.Sprintf("lane-%03d.wal", lane))
}

func (l *Log) snapPath(lane int) string {
	return filepath.Join(l.dir, fmt.Sprintf("lane-%03d.snap", lane))
}

// Ticket is one append's durability handle: the batch its record joined.
// Batches land in order and a landed batch covers every LSN at or below
// its members', so of several tickets the one with the highest LSN
// stands for all of them. The zero Ticket is already durable.
type Ticket struct {
	l   *Log
	b   *batch
	lsn uint64
}

// LSN returns the log sequence number of the ticket's record.
func (t Ticket) LSN() uint64 { return t.lsn }

// Wait blocks until the ticket's record is durable per the policy
// (written, and fsynced unless NoSync). It returns the flusher's sticky
// error if the disk failed — after which no append is durable.
func (t Ticket) Wait() error {
	if t.b == nil {
		return nil
	}
	t.b.flushed.Wait()
	return t.b.err
}

// Notify arranges for f to be called with Wait's result once the
// ticket's record is durable, without parking a goroutine on it: f runs
// on the flusher after the batch's waiters are released, or at once on
// the caller when the batch has already landed. f must not block.
func (t Ticket) Notify(f func(error)) {
	if t.b == nil {
		f(nil)
		return
	}
	t.l.fmu.Lock()
	if !t.b.landed {
		t.b.after = append(t.b.after, f)
		t.l.fmu.Unlock()
		return
	}
	t.l.fmu.Unlock()
	f(t.b.err)
}

// Append frames payload as a record of the given type on the lane's
// log, assigns it the next LSN, and returns a Ticket for the group
// commit. The write lands in a userspace buffer; durability comes from
// the ticket. Safe for concurrent use across lanes; appends to one lane
// serialize on the lane's mutex (callers already hold the records'
// bucket locks, so this adds no new ordering constraint).
func (l *Log) Append(lane int, typ uint8, payload []byte) Ticket {
	return l.AppendFunc(lane, typ, func(dst []byte) []byte { return append(dst, payload...) })
}

// AppendFunc is Append for a payload that does not exist yet: enc
// appends it to dst — the lane's buffer, past the record's framing —
// and returns the extended slice, so the payload is encoded once, where
// it will be written from. enc runs under the lane's mutex and must do
// nothing but append.
func (l *Log) AppendFunc(lane int, typ uint8, enc func(dst []byte) []byte) Ticket {
	ll := l.lanes[lane%len(l.lanes)]
	ll.mu.Lock()
	lsn := l.lsn.Add(1)
	start := len(ll.buf)
	ll.buf = enc(append(ll.buf, make([]byte, recHeaderSize+recBodyPrefix)...))
	size := len(ll.buf) - start
	sealRecord(ll.buf[start:], typ, lsn)
	ll.sinceSnap += int64(size)
	ll.mu.Unlock()
	l.stats.Appends.Add(1)

	// Join after the record is in the buffer: whoever seals this batch
	// drains the lanes afterwards and so finds it.
	return Ticket{l: l, b: l.join(size), lsn: lsn}
}

// join adds one member of size framed bytes to the open batch and makes
// sure the flusher knows the batch has work.
func (l *Log) join(size int) *batch {
	l.fmu.Lock()
	b := l.open
	b.n++
	b.bytes += size
	wake := b.n == 1 || (b.bytes >= l.policy.FlushBytes && b.bytes-size < l.policy.FlushBytes)
	l.fmu.Unlock()
	if wake {
		l.wakeFlusher()
	}
	return b
}

func (l *Log) wakeFlusher() {
	select {
	case l.wake <- struct{}{}:
	default: // a pending token already covers this one
	}
}

// sealRecord fills in the framing of rec, a whole record whose payload
// is already in place.
func sealRecord(rec []byte, typ uint8, lsn uint64) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(rec)-recHeaderSize))
	rec[recHeaderSize] = typ
	binary.LittleEndian.PutUint64(rec[recHeaderSize+1:], lsn)
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[recHeaderSize:]))
}

// sync waits until every record appended before the call is on file.
func (l *Log) sync() { l.join(0).flushed.Wait() }

// flusher is the group-commit loop. It parks only after seeing the open
// batch empty under fmu, and the append that makes it non-empty sends a
// wake after releasing fmu — so a record that lands after its lane was
// drained always starts the next flush.
func (l *Log) flusher() {
	defer l.flusherGone.Done()
	for {
		l.fmu.Lock()
		if l.open.n == 0 {
			if l.closed {
				// Tickets taken from here on resolve to ErrClosed.
				l.open.err, l.open.landed = ErrClosed, true
				l.open.flushed.Done()
				l.fmu.Unlock()
				return
			}
			l.fmu.Unlock()
			<-l.wake
			continue
		}
		if l.policy.FlushInterval > 0 && l.open.bytes < l.policy.FlushBytes && !l.closed {
			l.fmu.Unlock()
			l.linger()
			l.fmu.Lock()
		}
		b := l.open
		l.open = newBatch()
		l.open.after, l.afterFree = l.afterFree, nil
		l.fmu.Unlock()
		l.flush(b)
	}
}

// linger holds the open batch for the opt-in FlushInterval, cut short
// by the byte threshold or Close.
func (l *Log) linger() {
	timer := time.NewTimer(l.policy.FlushInterval)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return
		case <-l.wake:
			l.fmu.Lock()
			cut := l.closed || l.open.bytes >= l.policy.FlushBytes
			l.fmu.Unlock()
			if cut {
				return
			}
		}
	}
}

// flush drains every lane buffer to its file (fsyncing unless NoSync)
// and releases the sealed batch b. Every member's record was in its
// lane's buffer before b was sealed, and so was every record with a
// lower LSN (an LSN is assigned and its record framed under one hold of
// the lane's mutex, which the drain takes in turn) — unless an earlier
// flush already wrote it.
func (l *Log) flush(b *batch) {
	wrote := false
	for _, ll := range l.lanes {
		ll.mu.Lock()
		out := ll.buf
		if len(out) == 0 {
			ll.mu.Unlock()
			continue
		}
		ll.buf, ll.spare = ll.spare, nil
		ll.mu.Unlock()
		// wmu keeps this write from interleaving with a concurrent
		// Snapshot truncation (which holds mu, then wmu) — without it a
		// stale buffer could land mid-truncate at a racing file offset.
		ll.wmu.Lock()
		_, err := ll.f.Write(out)
		if err == nil && !l.policy.NoSync {
			err = ll.f.Sync()
		}
		ll.wmu.Unlock()
		if err != nil && l.flushErr == nil {
			l.flushErr = fmt.Errorf("wal: flush: %w", err)
		}
		wrote = true
		if cap(out) <= maxSpareBuf {
			ll.spare = out[:0]
		}
	}
	if wrote {
		l.stats.Flushes.Add(1)
	}
	b.err = l.flushErr
	l.fmu.Lock()
	b.landed = true
	after := b.after
	b.after = nil
	l.fmu.Unlock()
	b.flushed.Done()
	for _, f := range after {
		f(b.err)
	}
	clear(after)
	l.afterFree = after[:0]
}

// NeedsSnapshot reports whether the lane's log has grown past the
// policy's snapshot threshold since its last snapshot (always false
// when SnapshotBytes is 0).
func (l *Log) NeedsSnapshot(lane int) bool {
	if l.policy.SnapshotBytes <= 0 {
		return false
	}
	ll := l.lanes[lane%len(l.lanes)]
	ll.mu.Lock()
	defer ll.mu.Unlock()
	return ll.sinceSnap >= l.policy.SnapshotBytes
}

// TrySnapshotLock claims the lane's single snapshot slot; the caller
// must pair a successful claim with SnapshotUnlock. It keeps concurrent
// triggers from stacking snapshot scans behind one another.
func (l *Log) TrySnapshotLock(lane int) bool {
	return l.snapInFlight[lane%len(l.lanes)].CompareAndSwap(false, true)
}

// SnapshotUnlock releases the slot claimed by TrySnapshotLock.
func (l *Log) SnapshotUnlock(lane int) {
	l.snapInFlight[lane%len(l.lanes)].Store(false)
}

// Snapshot captures the lane's state and truncates its log. build runs
// with the lane's appends blocked and must return a payload covering
// every record of the lane as currently applied (internal/server scans
// the store); the snapshot's cutoff LSN is taken before build, so a
// write is either applied before build sees the store (in the payload)
// or appended after the cutoff (replayed from the tail) — replay
// converges either way because write sets carry full values.
//
// The snapshot file is written atomically (tmp+rename, fsynced) before
// the log truncates, so a crash at any point leaves either the old
// snapshot+full log or the new snapshot+empty log.
func (l *Log) Snapshot(lane int, build func() []byte) error {
	ll := l.lanes[lane%len(l.lanes)]
	ll.mu.Lock()
	defer ll.mu.Unlock()

	cutoff := l.lsn.Load()
	payload := build()

	if err := writeSnapshotFile(l.snapPath(lane), cutoff, payload, l.policy.NoSync); err != nil {
		return err
	}
	// Truncate the lane log: buffered-but-unwritten records all have
	// LSN <= cutoff (their appends finished before we took the lane
	// mutex) and are covered by the snapshot, so the buffer drops too.
	// Their tickets land with the next flush. wmu waits out any in-flight
	// flusher write of a stale buffer.
	ll.buf = ll.buf[:0]
	ll.wmu.Lock()
	defer ll.wmu.Unlock()
	if err := ll.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate after snapshot: %w", err)
	}
	if _, err := ll.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: seek after snapshot: %w", err)
	}
	ll.sinceSnap = 0
	l.stats.Snapshots.Add(1)
	return nil
}

// LastLSN returns the most recently assigned LSN.
func (l *Log) LastLSN() uint64 { return l.lsn.Load() }

// Close flushes and fsyncs outstanding records — every ticket taken
// before the call lands — and closes the files.
func (l *Log) Close() error {
	l.fmu.Lock()
	if l.closed {
		l.fmu.Unlock()
		return nil
	}
	l.closed = true
	l.fmu.Unlock()
	l.wakeFlusher()
	l.flusherGone.Wait()
	var firstErr error
	for _, ll := range l.lanes {
		if err := ll.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
