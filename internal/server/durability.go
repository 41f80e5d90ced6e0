package server

import (
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/wal"
	"github.com/chillerdb/chiller/internal/wire"
)

// Durability integration: when a node has a write-ahead log attached,
// every commit-point apply (participant commit, inner-region unilateral
// commit, replica stream apply) appends its write set to the owning
// lane's log *after* applying and *before* acknowledging, and the ack
// waits for the group-commit flush. The append happens while the
// transaction still holds its bucket lock words, so within one lane the
// log's record order equals commit order — the invariant replay relies
// on. Without a log attached every hook is a no-op and the hot path is
// untouched (a nil check).

// SetWAL attaches a write-ahead log to the node. Call before the node
// serves traffic; the lane count of the log should match the node's
// (Append tolerates mismatch by folding lanes together, which loses
// parallelism but not correctness).
func (n *Node) SetWAL(l *wal.Log) { n.wal = l }

// WAL returns the attached log, or nil.
func (n *Node) WAL() *wal.Log { return n.wal }

// SnapshotErr returns the most recent background snapshot failure, if
// any. A failed snapshot leaves the log untruncated — recovery still
// works, the log just keeps growing — so it is reported, not fatal.
func (n *Node) SnapshotErr() error {
	if v := n.snapErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// logWrites appends a committed write set to the WAL, one record per
// owning lane, and returns the ticket of the last one: LSNs are
// node-global and batches land in order, so it covers the whole set. The
// zero Ticket — no WAL attached, or an empty write set — is already
// durable. Wait on it after releasing the transaction's locks, and never
// on a lane executor (the flush wait must extend neither lock hold times
// nor the lane's serial schedule — that is the whole point of group
// commit riding the async tails).
func (n *Node) logWrites(txnID, ts uint64, writes []WriteOp) wal.Ticket {
	var tk wal.Ticket
	if n.wal == nil || len(writes) == 0 {
		return tk
	}
	var buf [4]laneGroup
	for _, g := range n.groupByLane(writes, buf[:]) {
		tk = n.logLane(txnID, ts, g.lane, g.writes)
	}
	return tk
}

// logLane appends one lane's slice of a write set, encoded straight
// into the lane's log buffer, and arms the lane's snapshot trigger.
func (n *Node) logLane(txnID, ts uint64, lane int, writes []WriteOp) wal.Ticket {
	tk := n.wal.AppendFunc(lane, wal.RecCommit, func(dst []byte) []byte {
		w := wire.AppendTo(dst)
		EncodeWritesTo(&w, txnID, ts, writes)
		return w.Bytes()
	})
	n.maybeSnapshot(lane)
	return tk
}

// maybeSnapshot starts a background snapshot of the lane when its log
// has outgrown the policy threshold. At most one snapshot per lane runs
// at a time; the build scans the store for the lane's records while the
// lane's appends are blocked (see wal.Snapshot for why the cutoff is
// safe).
func (n *Node) maybeSnapshot(lane int) {
	l := n.wal
	if !l.NeedsSnapshot(lane) || !l.TrySnapshotLock(lane) {
		return
	}
	go func() {
		defer l.SnapshotUnlock(lane)
		err := l.Snapshot(lane, func() []byte { return n.encodeLaneSnapshot(lane) })
		if err != nil {
			n.snapErr.Store(err)
		}
	}()
}

// SnapshotAll snapshots every WAL lane synchronously and truncates the
// logs — the clean-shutdown path. Log-size pressure (maybeSnapshot) only
// compacts lanes that outgrow the policy threshold, so a node that exits
// cleanly after moderate traffic would otherwise leave its entire commit
// tail behind and replay every record ever logged on the next start;
// after SnapshotAll a restart replays one snapshot per lane plus an
// empty tail. Waits out any in-flight pressure-triggered background
// snapshot of the same lane. No-op without a WAL. Call after the node's
// engines drain, so the snapshots cover every acknowledged commit.
func (n *Node) SnapshotAll() error {
	l := n.wal
	if l == nil {
		return nil
	}
	var firstErr error
	for lane := 0; lane < l.Lanes(); lane++ {
		for !l.TrySnapshotLock(lane) {
			time.Sleep(100 * time.Microsecond)
		}
		err := l.Snapshot(lane, func() []byte { return n.encodeLaneSnapshot(lane) })
		l.SnapshotUnlock(lane)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// encodeLaneSnapshot serializes every record the lane owns, grouped per
// table: [table u32][nBuckets u32][count u32] then count × ([key u64]
// [ts u64][value bytes32]). Bucket counts ride along so recovery into a
// fresh store can recreate tables before the application's own
// CreateTable calls (which are idempotent and adopt the recovered
// table). Each record carries its commit timestamp: a snapshot keeps
// only the newest version per key, so recovery raises the MVCC
// watermark to the highest snapshot timestamp — the history a snapshot
// discarded is exactly what the watermark declares unreadable.
func (n *Node) encodeLaneSnapshot(lane int) []byte {
	lane = n.laneIndex(lane)
	w := wire.NewWriter(4096)
	for _, tid := range n.store.Tables() {
		tbl := n.store.Table(tid)
		if tbl == nil {
			continue
		}
		var keys []storage.Key
		var vals [][]byte
		var stamps []uint64
		tbl.RangeTS(func(key storage.Key, value []byte, _, ts uint64) bool {
			if n.Lane(storage.RID{Table: tid, Key: key}) == lane {
				keys = append(keys, key)
				vals = append(vals, value)
				stamps = append(stamps, ts)
			}
			return true
		})
		if len(keys) == 0 {
			continue
		}
		w.Uint32(uint32(tid))
		w.Uint32(uint32(tbl.NumBuckets()))
		w.Uint32(uint32(len(keys)))
		for i, k := range keys {
			w.Uint64(uint64(k))
			w.Uint64(stamps[i])
			w.Bytes32(vals[i])
		}
	}
	return w.Bytes()
}

// RecoverStore replays recovered durable state into a store: snapshots
// first, then the cross-lane tail in LSN order. Missing tables are
// created (snapshot groups carry their bucket counts; tail-only tables
// get the default sizing). Replay is idempotent — records carry full
// values and apply with upsert semantics — so recovering into a store
// pre-loaded with initial values converges to the logged state.
//
// Under MVCC the tail rebuilds version chains at the original commit
// timestamps, the watermark rises to the highest snapshot-record stamp
// (a snapshot keeps only each key's newest version, so older history is
// gone — ErrStaleRead, not silence, for snapshots that predate it), and
// the returned maxTS is the highest timestamp seen anywhere: the caller
// advances the commit clock past it so post-recovery reservations never
// collide with replayed versions.
func RecoverStore(st *storage.Store, rec *wal.Recovered) (maxTS uint64, err error) {
	var snapTS uint64
	for _, snap := range rec.Snapshots {
		ts, err := applyLaneSnapshot(st, snap.Payload)
		if err != nil {
			return 0, err
		}
		if ts > snapTS {
			snapTS = ts
		}
	}
	maxTS = snapTS
	for _, tr := range rec.Tail {
		if tr.Type != wal.RecCommit {
			continue
		}
		_, ts, writes, err := DecodeWrites(tr.Payload)
		if err != nil {
			return 0, fmt.Errorf("server: recover lsn %d: %w", tr.LSN, err)
		}
		if err := applyWrites(st, ts, writes, true); err != nil {
			return 0, fmt.Errorf("server: recover lsn %d: %w", tr.LSN, err)
		}
		if ts > maxTS {
			maxTS = ts
		}
	}
	st.SetWatermark(snapTS)
	return maxTS, nil
}

// applyLaneSnapshot loads one lane snapshot, returning the highest
// record timestamp it carried.
func applyLaneSnapshot(st *storage.Store, p []byte) (maxTS uint64, err error) {
	r := wire.NewReader(p)
	for r.Err() == nil && r.Remaining() > 0 {
		tid := storage.TableID(r.Uint32())
		nBuckets := int(r.Uint32())
		count := r.Uint32()
		tbl := st.Table(tid)
		if tbl == nil {
			tbl = st.CreateTable(tid, nBuckets)
		}
		for i := uint32(0); i < count && r.Err() == nil; i++ {
			key := storage.Key(r.Uint64())
			ts := r.Uint64()
			val := r.Bytes32()
			if ts > maxTS {
				maxTS = ts
			}
			tbl.UpsertAt(key, val, ts)
		}
	}
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("server: snapshot decode: %w", err)
	}
	return maxTS, nil
}
