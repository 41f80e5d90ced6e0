// Package wal is Chiller's durability subsystem: one append-only log
// per node, group-committed with batched fsyncs, plus at most one
// snapshot with log truncation and a replay path that rebuilds a node's
// store after a crash.
//
// Replay needs each record's writes in commit order, and one file gives
// that for free: commit-time appends happen under the committing
// transaction's bucket locks (a replica's on the record's lane
// executor), and a record's LSN is assigned and its bytes framed under
// one hold of the append mutex, so file order is LSN order and, for any
// given record, commit order. Nothing depends on how many lanes the node
// ran with, so a node may reopen with any lane count.
//
// Group commit is self-clocked: Append frames the record straight into
// the log's reused userspace buffer and joins the open batch; a single
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
	"strings"
	"sync"
	"sync/atomic"
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

// maxSpareBuf is the largest drained buffer kept for reuse; a burst
// that grew one past it gives the memory back.
const maxSpareBuf = 1 << 20

// The log's two files in its directory.
const (
	logFile  = "log.wal"
	snapFile = "log.snap"
)

// ErrClosed is the result of a ticket taken after Close: its record was
// never written.
var ErrClosed = errors.New("wal: log closed")

// ErrLaneFiles is Open's refusal of a directory written by the per-lane
// layout (lane-*.wal, lane-*.snap): its acknowledged commits are in
// files this layout does not read, so opening over them would silently
// undo them. Recover such a directory with the release that wrote it,
// snapshot it there, and move its state over by a reload.
var ErrLaneFiles = errors.New("wal: directory holds per-lane log files")

// Policy configures group commit and snapshotting.
type Policy struct {
	// NoSync skips the fsync syscall: records are still written to the
	// OS (surviving process death within the same boot, which is what
	// the simulated crash harness exercises) but not a power failure.
	NoSync bool
	// SnapshotBytes, when > 0, arms NeedsSnapshot: a log that grows past
	// this many bytes since its last snapshot reports that it wants one.
	// 0 disables automatic snapshot pressure.
	SnapshotBytes int64
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

// batch is one group commit: every ticket taken while it was open.
// The flusher seals it (opens the next), drains the buffer, and releases
// it; n, landed and after are guarded by Log.fmu.
type batch struct {
	flushed sync.WaitGroup // released once the batch's records are on file
	err     error          // the flusher's sticky error; read after flushed
	n       int            // tickets joined
	landed  bool
	after   []func(error) // Ticket.Notify registrations
}

func newBatch() *batch {
	b := &batch{}
	b.flushed.Add(1)
	return b
}

// Log is a node's write-ahead log: one append-only file and at most one
// snapshot file, under a single directory.
type Log struct {
	dir    string
	policy Policy
	stats  Stats

	// The append state. buf and spare swap at every flush and are
	// reused, so steady-state appends allocate nothing.
	mu        sync.Mutex // serializes appends and snapshot/truncate
	wmu       sync.Mutex // serializes file writes vs truncation (mu → wmu)
	f         *os.File
	buf       []byte       // records framed since the last drain
	spare     []byte       // the drained buffer of the pair; flusher-owned
	sinceSnap atomic.Int64 // bytes appended since the last snapshot; written under mu
	lsn       atomic.Uint64

	// Corruption lists the named errors (*CorruptError) Open hit while
	// scanning the existing log; the valid prefix before the damage was
	// kept and the file truncated to it, so appends continue cleanly.
	// Callers decide whether a corrupt tail is fatal.
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

	flusherGone sync.WaitGroup
	snapMu      sync.Mutex // the snapshot slot
}

// Open creates or reopens the log in dir. The lanes argument is ignored
// (benchmark/ compiles against this signature): a node has one log
// whatever its lane count. An existing log is scanned: the LSN counter
// resumes past the highest record found, a torn final record (short
// write at EOF — the normal crash artifact) is silently dropped, and a
// CRC mismatch truncates the file at the corruption point and is
// reported in Corruption as a *CorruptError. Replay reads the state
// back. A directory holding per-lane files fails with ErrLaneFiles and
// is left untouched.
func Open(dir string, lanes int, policy Policy) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "lane-") && (strings.HasSuffix(name, ".wal") || strings.HasSuffix(name, ".snap")) {
			return nil, fmt.Errorf("%w: %s", ErrLaneFiles, filepath.Join(dir, name))
		}
	}
	l := &Log{
		dir:    dir,
		policy: policy,
		open:   newBatch(),
		wake:   make(chan struct{}, 1),
	}
	var maxLSN uint64
	valid, corrupt, err := walk(l.logPath(), func(_ uint8, lsn uint64, _ []byte) { maxLSN = max(maxLSN, lsn) })
	if err != nil {
		return nil, err
	}
	if corrupt != nil {
		l.Corruption = append(l.Corruption, corrupt)
	}
	f, err := os.OpenFile(l.logPath(), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	// Drop the torn/corrupt tail so new appends start at a record
	// boundary.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.f = f
	l.sinceSnap.Store(valid)
	if cut, _, err := readSnapshotFile(l.snapPath()); err == nil {
		maxLSN = max(maxLSN, cut)
	}
	l.lsn.Store(maxLSN)
	l.flusherGone.Add(1)
	go l.flusher()
	return l, nil
}

// Stats returns the log's activity counters.
func (l *Log) Stats() *Stats { return &l.stats }

func (l *Log) logPath() string  { return filepath.Join(l.dir, logFile) }
func (l *Log) snapPath() string { return filepath.Join(l.dir, snapFile) }

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

// Append frames payload as a record of the given type, assigns it the
// next LSN, and returns a Ticket for the group commit. The lane argument
// is ignored (benchmark/ compiles against this signature). The write
// lands in a userspace buffer; durability comes from the ticket. Safe
// for concurrent use.
func (l *Log) Append(lane int, typ uint8, payload []byte) Ticket {
	return l.AppendFunc(typ, func(dst []byte) []byte { return append(dst, payload...) })
}

// AppendFunc is Append for a payload that does not exist yet: enc
// appends it to dst — the log's buffer, past the record's framing — and
// returns the extended slice, so the payload is encoded once, where it
// will be written from. enc runs under the append mutex and must do
// nothing but append.
func (l *Log) AppendFunc(typ uint8, enc func(dst []byte) []byte) Ticket {
	l.mu.Lock()
	lsn := l.lsn.Add(1)
	start := len(l.buf)
	l.buf = enc(append(l.buf, make([]byte, recHeaderSize+recBodyPrefix)...))
	sealRecord(l.buf[start:], typ, lsn)
	l.sinceSnap.Add(int64(len(l.buf) - start))
	l.mu.Unlock()
	l.stats.Appends.Add(1)

	// Join after the record is in the buffer: whoever seals this batch
	// drains the buffer afterwards and so finds it.
	return Ticket{l: l, b: l.join(), lsn: lsn}
}

// join adds one member to the open batch and makes sure the flusher
// knows the batch has work.
func (l *Log) join() *batch {
	l.fmu.Lock()
	b := l.open
	b.n++
	wake := b.n == 1
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
func (l *Log) sync() { l.join().flushed.Wait() }

// flusher is the group-commit loop. It parks only after seeing the open
// batch empty under fmu, and the append that makes it non-empty sends a
// wake after releasing fmu — so a record that lands after the buffer was
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
		b := l.open
		l.open = newBatch()
		l.open.after, l.afterFree = l.afterFree, nil
		l.fmu.Unlock()
		l.flush(b)
	}
}

// flush drains the buffer to the file (fsyncing unless NoSync) and
// releases the sealed batch b. Every member's record was in the buffer
// before b was sealed, and so was every record with a lower LSN (an LSN
// is assigned and its record framed under one hold of the append mutex,
// which the drain takes in turn) — unless an earlier flush already wrote
// it or a snapshot dropped it.
func (l *Log) flush(b *batch) {
	l.mu.Lock()
	out := l.buf
	if len(out) > 0 {
		l.buf, l.spare = l.spare, nil
	}
	l.mu.Unlock()
	if len(out) > 0 {
		// wmu keeps this write from interleaving with a concurrent
		// Snapshot truncation (which holds mu, then wmu) — without it a
		// stale buffer could land mid-truncate at a racing file offset.
		l.wmu.Lock()
		_, err := l.f.Write(out)
		if err == nil && !l.policy.NoSync {
			err = l.f.Sync()
		}
		l.wmu.Unlock()
		if err != nil && l.flushErr == nil {
			l.flushErr = fmt.Errorf("wal: flush: %w", err)
		}
		l.stats.Flushes.Add(1)
		if cap(out) <= maxSpareBuf {
			l.spare = out[:0]
		}
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

// NeedsSnapshot reports whether the log has grown past the policy's
// snapshot threshold since its last snapshot (always false when
// SnapshotBytes is 0).
func (l *Log) NeedsSnapshot() bool {
	return l.policy.SnapshotBytes > 0 && l.sinceSnap.Load() >= l.policy.SnapshotBytes
}

// TrySnapshotLock claims the log's single snapshot slot; the caller must
// pair a successful claim with SnapshotUnlock. It keeps concurrent
// triggers from stacking snapshot scans behind one another.
func (l *Log) TrySnapshotLock() bool { return l.snapMu.TryLock() }

// SnapshotUnlock releases the slot claimed by TrySnapshotLock.
func (l *Log) SnapshotUnlock() { l.snapMu.Unlock() }

// Snapshot captures the node's state and truncates the log. build runs
// with every append blocked and must return a payload covering every
// record as currently applied (internal/server scans the store); the
// snapshot's cutoff LSN is taken before build, so a write is either
// applied before build sees the store (in the payload) or appended
// after the cutoff (replayed from the tail) — replay converges either
// way because write sets carry full values.
//
// The snapshot file is written atomically (tmp+rename, fsynced) before
// the log truncates, so a crash at any point leaves either the old
// snapshot+full log or the new snapshot+empty log. Call it holding the
// snapshot slot (TrySnapshotLock), which Close waits for: after Close it
// fails with ErrClosed.
func (l *Log) Snapshot(build func() []byte) error {
	l.fmu.Lock()
	closed := l.closed
	l.fmu.Unlock()
	if closed {
		return ErrClosed
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	cutoff := l.lsn.Load()
	payload := build()

	if err := writeSnapshotFile(l.snapPath(), cutoff, payload, l.policy.NoSync); err != nil {
		return err
	}
	// Truncate the log: buffered-but-unwritten records all have LSN <=
	// cutoff (their appends finished before we took the append mutex)
	// and are covered by the snapshot, so the buffer drops too. Their
	// tickets land with the next flush. wmu waits out any in-flight
	// flusher write of a stale buffer.
	l.buf = l.buf[:0]
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate after snapshot: %w", err)
	}
	if _, err := l.f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: seek after snapshot: %w", err)
	}
	l.sinceSnap.Store(0)
	l.stats.Snapshots.Add(1)
	return nil
}

// LastLSN returns the most recently assigned LSN.
func (l *Log) LastLSN() uint64 { return l.lsn.Load() }

// Close flushes and fsyncs outstanding records — every ticket taken
// before the call lands — and closes the file. A snapshot in flight
// finishes first; one started later fails with ErrClosed.
func (l *Log) Close() error {
	l.snapMu.Lock()
	l.fmu.Lock()
	wasClosed := l.closed
	l.closed = true
	l.fmu.Unlock()
	l.snapMu.Unlock()
	if wasClosed {
		return nil
	}
	l.wakeFlusher()
	l.flusherGone.Wait()
	return l.f.Close()
}
