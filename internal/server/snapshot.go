package server

import (
	"errors"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// The participant half of the reads that take no lock: MVCC snapshot
// reads, off the version chains, and OCC's execution reads and phase-2
// validation, at the records' current versions. None enters a lane
// schedule or holds a lock word, so none can conflict-abort. The
// coordinator halves are policies over cc.Txn like every other engine's;
// Node.serve runs the frames, a wave's for this node as posted and the
// rest decoded off VerbSnapshotRead, VerbRead and VerbValidate frames.

// SnapshotReadLocal serves a snapshot-read batch — lock-request entries,
// of which only the record and MustExist matter — against this node's
// store into resp: each entry's value at the snapshot timestamp,
// lock-free. The reads go into resp.Reads when the caller preset it (a
// coordinator's own-node frame writes straight into the transaction's
// read set), else into a set built here, their bytes into resp.buf. A
// timestamp below the store's retention watermark fails the whole batch
// with AbortStaleRead — the coordinator re-takes a fresher snapshot and
// restarts the transaction.
func (n *Node) SnapshotReadLocal(ts uint64, entries []LockEntry, resp *LockResponse) {
	if resp.Reads == nil {
		resp.Reads = make(txn.ReadSet, len(entries))
	}
	resp.OK, resp.Reason = false, txn.AbortInternal
	for _, e := range entries {
		tbl := n.store.Table(e.Table)
		if tbl == nil {
			return
		}
		v, err := tbl.ReadAtInto(e.Key, ts, resp.buf)
		switch {
		case err == nil:
			resp.Reads[e.OpID] = v
		case errors.Is(err, storage.ErrStaleRead):
			resp.Reason = txn.AbortStaleRead
			return
		case errors.Is(err, storage.ErrNotFound):
			if e.MustExist {
				resp.Reason = txn.AbortNotFound
				return
			}
			resp.Reads[e.OpID] = nil
		default:
			return
		}
	}
	resp.OK, resp.Reason = true, txn.AbortNone
}

// readLocal serves a read batch like SnapshotReadLocal, but at the
// records' current state (Bucket.GetInto, which leaves the lock word alone):
// each Read entry's value, and every entry's version appended to
// resp.Versions in entry order (0 for an absent record).
func (n *Node) readLocal(entries []LockEntry, resp *LockResponse) {
	if resp.Reads == nil {
		resp.Reads = make(txn.ReadSet, len(entries))
	}
	resp.OK, resp.Reason = false, txn.AbortInternal
	for _, e := range entries {
		tbl := n.store.Table(e.Table)
		if tbl == nil {
			return
		}
		v, ver, err := tbl.Bucket(e.Key).GetInto(e.Key, resp.buf)
		if err != nil && e.MustExist {
			resp.Reason = txn.AbortNotFound
			return
		}
		if e.Read {
			resp.Reads[e.OpID] = v
		}
		resp.Versions = append(resp.Versions, ver)
	}
	resp.OK, resp.Reason = true, txn.AbortNone
}

// validateLocal is phase 2 of OCC validation at this participant: the
// versions txnID's execution phase read here, re-checked under the write
// locks its phase 1 took. A record whose version moved fails the batch
// with AbortValidation.
func (n *Node) validateLocal(txnID uint64, entries []LockEntry, versions []uint64, resp *LockResponse) {
	resp.OK, resp.Reason = false, txn.AbortInternal
	if len(versions) != len(entries) {
		return
	}
	resp.Reason = txn.AbortValidation
	// The transaction's own locks here: phase 1 is over, so no step of it
	// runs beside this one.
	st := n.lockState(txnID, false)
	if st != nil {
		defer st.mu.Unlock()
	}
	for i, e := range entries {
		tbl := n.store.Table(e.Table)
		if tbl == nil {
			return
		}
		b := tbl.Bucket(e.Key)
		if b.Version(e.Key) != versions[i] {
			return
		}
		// An unchanged version is not enough: a concurrent writer past
		// its lock phase (1) holds this bucket exclusively and WILL
		// install a new version whatever we observe now. With a
		// multi-partition writer applying partition by partition,
		// skipping this check admits read skew: the reader sees the
		// writer's value on one partition and validates the stale version
		// on another while its lock is still held (caught by the
		// serializability checker, internal/check). The read validates
		// only if no other transaction write-locks the bucket — a NO_WAIT
		// shared probe; our own write lock (read ∩ write set) is fine.
		if st != nil && st.find(b) >= 0 {
			continue
		}
		if !b.Lock.TryLock(storage.LockShared) {
			return
		}
		b.Lock.Unlock(storage.LockShared)
	}
	resp.OK, resp.Reason = true, txn.AbortNone
}

// HoldsPartition reports whether this node stores partition pid locally,
// as its primary or as one of its replicas. Replica stores apply every
// committed write at its commit timestamp via the §5 streams, so their
// version chains answer snapshot reads exactly as the primary's do.
func (n *Node) HoldsPartition(pid cluster.PartitionID) bool {
	topo := n.dir.Topology()
	if topo.Primary(pid) == n.ID() {
		return true
	}
	for _, r := range topo.Replicas(pid) {
		if r == n.ID() {
			return true
		}
	}
	return false
}
