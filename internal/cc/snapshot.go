package cc

import (
	"context"
	"fmt"

	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// snapStaleRetries bounds how many times one request re-takes a fresher
// snapshot after AbortStaleRead (a node's retention watermark passed the
// timestamp mid-read — recovery raising it is the only cause, so more
// than a couple of collisions means something is deeply wrong).
const snapStaleRetries = 3

// runSnapshot is the snapshot policy over Txn, which Begin gives a
// read-only procedure when MVCC is on: it reads committed versions at the
// commit clock's stable watermark, takes no lock anywhere — so it cannot
// conflict-abort, and an abort has nothing to release — and samples no
// access set. An attempt that fails stale retries at a fresher snapshot.
func runSnapshot(ctx context.Context, n *server.Node, req *txn.Request, proc *txn.Procedure) txn.Result {
	for attempt := 0; ; attempt++ {
		t := NewTxn(n, req, proc)
		t.sample = false
		res := t.snapshot(ctx, n, proc, req.Args, n.Clock().Stable())
		t.Release()
		if res.Reason != txn.AbortStaleRead || attempt == snapStaleRetries {
			return res
		}
	}
}

// snapshot runs one attempt at timestamp ts in dependency rounds. A round
// takes every op not yet read whose pk-deps are, reads them all in one
// wave — this node's partitions (primary or replica: replica chains carry
// the same stamps) by direct calls while one ring per cold node is in
// flight — and then steps them in op order. A procedure without pk-deps,
// the common shape, is one round.
func (t *Txn) snapshot(ctx context.Context, n *server.Node, proc *txn.Procedure, args txn.Args, ts uint64) txn.Result {
	dir := n.Directory()
	for {
		if reason, done := Cancelled(ctx); done {
			return t.Abort(n, reason)
		}
		t.Batches, t.round = t.Batches[:0], t.round[:0]
	next:
		for i := range proc.Ops {
			op := &proc.Ops[i]
			if _, read := t.Reads[i]; read {
				continue
			}
			for _, d := range op.PKDeps {
				if _, read := t.Reads[d]; !read {
					continue next
				}
			}
			key, ok := op.Key(args, t.Reads)
			if !ok {
				t.Detail = fmt.Sprintf("snapshot: op %d key unresolvable", i)
				return t.Abort(n, txn.AbortInternal)
			}
			pid := dir.Partition(storage.RID{Table: op.Table, Key: key})
			target := n.ID()
			if !n.HoldsPartition(pid) {
				target = dir.Topology().Primary(pid)
			}
			t.Participant(target, pid)
			le := t.Entry(op, key)
			b := t.BatchFor(target, 0)
			b.Entries = append(b.Entries, le)
			t.round = append(t.round, le)
		}
		if len(t.round) == 0 {
			return txn.Result{Committed: true, Reads: t.Reads, Distributed: t.Distributed()}
		}
		if reason := t.snapshotWave(n, ts); reason != txn.AbortNone {
			return t.Abort(n, reason)
		}
		for _, le := range t.round {
			// A read buffers nothing, so it needs no partition.
			if reason := t.Step(&proc.Ops[le.OpID], args, le.Key, 0, false); reason != txn.AbortNone {
				return t.Abort(n, reason)
			}
		}
	}
}

// snapshotWave posts the batches as one wave of snapshot-read frames,
// gathers every batch's reads straight into Reads, and returns the first
// refusal's reason — a transport failure's, if any: a lost ring is
// AbortUnreachable, which the caller's retry loop re-runs.
func (t *Txn) snapshotWave(n *server.Node, ts uint64) txn.AbortReason {
	w := n.NewWave()
	for i := range t.Batches {
		b := &t.Batches[i]
		w.SnapshotRead(b.Target, ts, b.Entries, t.Reads)
	}
	w.Wait()
	reason := txn.AbortNone
	for i := range t.Batches {
		resp, err := w.LockResponse(i)
		switch {
		case err != nil:
			reason = server.TransportAbortReason(err)
			t.Detail = fmt.Sprintf("snapshot read at node %d: %v", t.Batches[i].Target, err)
		case !resp.OK && reason == txn.AbortNone:
			reason = resp.Reason
		}
	}
	w.Release() // the gathered reads alias the response buffers, not the wave
	return reason
}
