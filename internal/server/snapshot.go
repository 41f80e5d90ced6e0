package server

import (
	"errors"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// The participant half of snapshot reads under MVCC: a read-only
// transaction's records at a snapshot timestamp, off the version chains —
// no bucket lock word is touched, no lane schedule is entered, and no
// conflict abort is possible. The coordinator half is a policy over
// cc.Txn like every other engine's; it reads the partitions this node
// holds (HoldsPartition) here by a wave's direct call and the rest by
// VerbSnapshotRead frames.

// SnapshotReadLocal serves a snapshot-read batch — lock-request entries,
// of which only the record and MustExist matter — against this node's
// store into resp: each entry's value at the snapshot timestamp,
// lock-free. The reads go into resp.Reads when the caller preset it (a
// coordinator's own-node frame writes straight into the transaction's
// read set), else into a set built here. A timestamp below the store's
// retention watermark fails the whole batch with AbortStaleRead — the
// coordinator re-takes a fresher snapshot and restarts the transaction.
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
		v, err := tbl.ReadAt(e.Key, ts)
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
