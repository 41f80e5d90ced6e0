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
// commit, replica stream apply) appends its write set to the node's log
// *after* applying and *before* acknowledging, and the ack waits for the
// group-commit flush. The append happens while the transaction still
// holds its bucket lock words (a replica's, on the record's lane
// executor), so for any record the log's order equals commit order —
// the invariant replay relies on. Without a log attached every hook is
// a no-op and the hot path is untouched (a nil check).

// SetWAL attaches a write-ahead log to the node. Call before the node
// serves traffic.
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

// logWrites appends a committed write set to the WAL as one record,
// encoded straight into the log's buffer, arms the snapshot trigger, and
// returns the record's ticket. The zero Ticket — no WAL attached, or an
// empty write set — is already durable. Wait on it after releasing the
// transaction's locks, and never on a lane executor (the flush wait must
// extend neither lock hold times nor the lane's serial schedule — that
// is the whole point of group commit riding the async tails).
func (n *Node) logWrites(txnID, ts uint64, writes []WriteOp) wal.Ticket {
	if n.wal == nil || len(writes) == 0 {
		return wal.Ticket{}
	}
	tk := n.wal.AppendFunc(wal.RecCommit, func(dst []byte) []byte {
		w := wire.AppendTo(dst)
		EncodeWritesTo(&w, txnID, ts, writes)
		return w.Bytes()
	})
	n.maybeSnapshot()
	return tk
}

// maybeSnapshot starts a background snapshot when the log has outgrown
// the policy threshold. At most one snapshot runs at a time; the build
// scans the store while every append of the node is blocked (see
// wal.Snapshot for why the cutoff is safe).
func (n *Node) maybeSnapshot() {
	l := n.wal
	if !l.NeedsSnapshot() || !l.TrySnapshotLock() {
		return
	}
	go func() {
		defer l.SnapshotUnlock()
		if err := l.Snapshot(n.encodeSnapshot); err != nil {
			n.snapErr.Store(err)
		}
	}()
}

// SnapshotAll snapshots the node synchronously and truncates its log —
// the clean-shutdown path. Log-size pressure (maybeSnapshot) only
// compacts a log that outgrows the policy threshold, so a node that
// exits cleanly after moderate traffic would otherwise leave its entire
// commit tail behind and replay every record ever logged on the next
// start; after SnapshotAll a restart replays one snapshot plus an empty
// tail. Waits out any in-flight pressure-triggered background snapshot.
// No-op without a WAL. Call after the node's engines drain, so the
// snapshot covers every acknowledged commit.
func (n *Node) SnapshotAll() error {
	l := n.wal
	if l == nil {
		return nil
	}
	for !l.TrySnapshotLock() {
		time.Sleep(100 * time.Microsecond)
	}
	defer l.SnapshotUnlock()
	return l.Snapshot(n.encodeSnapshot)
}

// encodeSnapshot serializes every record of the store in one scan,
// grouped per table: [table u32][nBuckets u32][count u32] then count ×
// ([key u64][ts u64][value bytes32]). Bucket counts ride along so
// recovery into a fresh store can recreate tables before the
// application's own CreateTable calls (which are idempotent and adopt
// the recovered table). Each record carries its commit timestamp: a
// snapshot keeps only the newest version per key, so recovery raises the
// MVCC watermark to the highest snapshot timestamp — the history a
// snapshot discarded is exactly what the watermark declares unreadable.
func (n *Node) encodeSnapshot() []byte {
	w := wire.NewWriter(4096)
	for _, tid := range n.store.Tables() {
		tbl := n.store.Table(tid)
		if tbl == nil {
			continue
		}
		// The count is patched in once the table's scan is done.
		w.Uint32(uint32(tid))
		w.Uint32(uint32(tbl.NumBuckets()))
		at := w.Len()
		w.Uint32(0)
		var count uint32
		tbl.RangeTS(func(key storage.Key, value []byte, _, ts uint64) bool {
			w.Uint64(uint64(key))
			w.Uint64(ts)
			w.Bytes32(value)
			count++
			return true
		})
		w.SetUint32(at, count)
	}
	return w.Bytes()
}

// RecoverStore replays recovered durable state into a store: the
// snapshot first, then the tail in LSN order. Missing tables are
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
	snapTS, err := applySnapshot(st, rec.Snapshot)
	if err != nil {
		return 0, err
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

// applySnapshot loads a snapshot payload (none when p is empty),
// returning the highest record timestamp it carried.
func applySnapshot(st *storage.Store, p []byte) (maxTS uint64, err error) {
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
