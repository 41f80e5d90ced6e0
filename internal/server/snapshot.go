package server

import (
	"context"
	"errors"
	"fmt"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// Snapshot-read execution: the lock-free path for read-only procedures
// under MVCC. A read-only transaction takes a snapshot timestamp from
// the commit clock's stable watermark and resolves every operation off
// the version chains — no bucket lock word is touched, no lane schedule
// is entered, and no conflict abort is possible. Partitions this node
// holds locally (as primary or replica — replicas apply versioned
// writes from the §5 streams, so their chains carry the same stamps)
// are read by direct store access, costing zero verbs; cold partitions
// fall back to VerbSnapshotRead frames, batched per destination node
// and shipped as waves like every other participant verb.
//
// Every engine routes ReadOnly procedures here (Run's first branch), so
// mixed workloads pay the locking protocol only for their writes.

// snapStaleRetries bounds how many times one request re-takes a fresher
// snapshot after ErrStaleRead (a node's retention watermark passed the
// timestamp mid-read — recovery raising it is the only cause, so more
// than a couple of collisions means something is deeply wrong).
const snapStaleRetries = 3

// snapSendRetries bounds per-batch resends of the droppable
// snapshot-read ring before the attempt surfaces AbortUnreachable (the
// caller's retry loop owns backoff; reads hold nothing anywhere, so a
// resend is always safe).
const snapSendRetries = 3

// SnapshotReadLocal serves a snapshot-read batch against this node's
// store: each entry's value at the snapshot timestamp, off the version
// chains, lock-free. The response reuses LockResponse (ok/reason plus
// an opID→value read set). A timestamp below the store's retention
// watermark fails the whole batch with AbortStaleRead — the coordinator
// re-takes a fresher snapshot and restarts the transaction.
func (n *Node) SnapshotReadLocal(ts uint64, entries []SnapReadEntry) *LockResponse {
	reads := make(txn.ReadSet, len(entries))
	for _, e := range entries {
		tbl := n.store.Table(e.Table)
		if tbl == nil {
			return &LockResponse{OK: false, Reason: txn.AbortInternal}
		}
		v, err := tbl.ReadAt(e.Key, ts)
		switch {
		case err == nil:
			reads[e.OpID] = v
		case errors.Is(err, storage.ErrStaleRead):
			return &LockResponse{OK: false, Reason: txn.AbortStaleRead}
		case errors.Is(err, storage.ErrNotFound):
			if e.MustExist {
				return &LockResponse{OK: false, Reason: txn.AbortNotFound}
			}
			reads[e.OpID] = nil
		default:
			return &LockResponse{OK: false, Reason: txn.AbortInternal}
		}
	}
	return &LockResponse{OK: true, Reads: reads}
}

// RunSnapshot executes a read-only procedure at a snapshot timestamp.
// It is the engine-shared executor: every engine's Run delegates
// ReadOnly requests here when a commit clock is attached.
//
// The result is committed on success with the full read set; the only
// abort reasons a read-only transaction can surface are AbortNotFound
// (a MustExist key absent at the snapshot), AbortConstraint (a Check
// rejected a value), AbortCancelled, AbortStaleRead (retention horizon
// passed the snapshot more times than the internal retry budget), and
// AbortUnreachable (cold-partition reads lost to a partition that never
// healed within the resend budget). Lock conflicts and validation
// failures are structurally impossible.
func (n *Node) RunSnapshot(ctx context.Context, req txn.Request) (*txn.Result, error) {
	proc := n.registry.Lookup(req.Proc)
	if proc == nil {
		return nil, fmt.Errorf("server: unknown procedure %q", req.Proc)
	}
	if !proc.ReadOnly {
		return nil, fmt.Errorf("server: procedure %q is not read-only", req.Proc)
	}
	if n.clock == nil {
		return nil, fmt.Errorf("server: snapshot execution requires a commit clock (MVCC)")
	}
	var last *txn.Result
	for attempt := 0; attempt <= snapStaleRetries; attempt++ {
		res := n.snapshotAttempt(ctx, proc, req.Args)
		if res.Committed || res.Reason != txn.AbortStaleRead {
			return res, nil
		}
		last = res // watermark raced past our snapshot: take a fresher one
	}
	return last, nil
}

// snapshotAttempt runs one pass at a fixed snapshot timestamp, resolving
// operations in dependency order: every op whose pk-deps are satisfied
// is resolved in the current round, locals by direct store access,
// remotes batched per destination node (one frame per node per round).
// Procedures without pk-deps — the common shape — finish in one round.
func (n *Node) snapshotAttempt(ctx context.Context, proc *txn.Procedure, args txn.Args) *txn.Result {
	ts := n.clock.Stable()
	reads := make(txn.ReadSet, len(proc.Ops))
	resolved := make([]bool, len(proc.Ops))
	pids := make(map[cluster.PartitionID]bool, 2)
	abort := func(reason txn.AbortReason, detail string) *txn.Result {
		return &txn.Result{Reason: reason, Detail: detail, Distributed: len(pids) > 1}
	}
	remaining := len(proc.Ops)
	for remaining > 0 {
		if ctx != nil && ctx.Err() != nil {
			return abort(txn.AbortCancelled, "")
		}
		// Gather this round's resolvable ops: local ones execute
		// immediately, remote ones accumulate into per-node batches.
		type batch struct {
			node    transport.NodeID
			entries []SnapReadEntry
		}
		var batches []*batch
		progressed := false
		for i := range proc.Ops {
			op := &proc.Ops[i]
			if resolved[i] {
				continue
			}
			ready := true
			for _, d := range op.PKDeps {
				if !resolved[d] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			key, ok := op.Key(args, reads)
			if !ok {
				return abort(txn.AbortInternal, fmt.Sprintf("snapshot: op %d key unresolvable", i))
			}
			rid := storage.RID{Table: op.Table, Key: key}
			pid := n.dir.Partition(rid)
			pids[pid] = true
			entry := SnapReadEntry{OpID: i, Table: op.Table, Key: key, MustExist: !op.Conditional}
			if n.HoldsPartition(pid) {
				resp := n.SnapshotReadLocal(ts, []SnapReadEntry{entry})
				if !resp.OK {
					return abort(resp.Reason, "")
				}
				reads[i] = resp.Reads[i]
			} else {
				target := n.dir.Topology().Primary(pid)
				var b *batch
				for _, cand := range batches {
					if cand.node == target {
						b = cand
						break
					}
				}
				if b == nil {
					b = &batch{node: target}
					batches = append(batches, b)
				}
				b.entries = append(b.entries, entry)
			}
			resolved[i] = true
			remaining--
			progressed = true
			if op.Check != nil && n.HoldsPartition(pid) {
				if err := op.Check(reads[i], args, reads); err != nil {
					return abort(txn.AbortConstraint, err.Error())
				}
			}
		}
		if !progressed {
			return abort(txn.AbortInternal, "snapshot: dependency cycle in read-only procedure")
		}
		// Ship the round's cold-partition batches and fold the values in.
		for _, b := range batches {
			resp, err := n.snapshotReadAt(b.node, ts, b.entries)
			if err != nil {
				return abort(txn.AbortUnreachable, fmt.Sprintf("snapshot read at node %d: %v", b.node, err))
			}
			if !resp.OK {
				return abort(resp.Reason, "")
			}
			for _, e := range b.entries {
				reads[e.OpID] = resp.Reads[e.OpID]
				op := &proc.Ops[e.OpID]
				if op.Check != nil {
					if err := op.Check(reads[e.OpID], args, reads); err != nil {
						return abort(txn.AbortConstraint, err.Error())
					}
				}
			}
		}
	}
	return &txn.Result{Committed: true, Reads: reads, Distributed: len(pids) > 1}
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

// snapshotReadAt ships one snapshot-read batch to a remote node as a
// one-frame wave, retrying a failed ring within the resend budget: the
// ring is droppable like a lock wave's, and reads hold nothing, so a
// resend is always safe.
func (n *Node) snapshotReadAt(target transport.NodeID, ts uint64, entries []SnapReadEntry) (resp LockResponse, err error) {
	for try := 0; try <= snapSendRetries; try++ {
		w := n.NewWave()
		f := w.SnapshotRead(target, ts, entries)
		w.Wait()
		resp, err = w.LockResponse(f)
		w.Release()
		if err == nil || !errors.Is(err, transport.ErrUnreachable) {
			break
		}
	}
	return resp, err
}
