// Package twopl implements the baseline distributed transaction engine of
// §2.1: strict two-phase locking with the NO_WAIT policy and two-phase
// commit, over the shared server verbs.
//
// The prepare phase of 2PC is piggybacked on the last lock acquisition
// (as in Figure 3a): once every participant holds all its locks the
// transaction is implicitly prepared, so commit needs only the second
// phase. Locks are held until the commit (or abort) message is processed
// at each participant — the full contention span the paper measures.
package twopl

import (
	"context"
	"fmt"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// Engine is a 2PL/2PC coordinator bound to a node. Safe for concurrent
// Run calls.
type Engine struct {
	node *server.Node
}

// New creates a 2PL engine on the given node.
func New(n *server.Node) *Engine { return &Engine{node: n} }

// Name implements cc.Engine.
func (e *Engine) Name() string { return "2PL" }

// Node returns the engine's node.
func (e *Engine) Node() *server.Node { return e.node }

// Run executes the transaction's operations in procedure order (Chiller's
// engine runs its cold transactions through here too). 2PL's policy over
// cc.Txn: consecutive operations on one partition whose keys already
// resolve — from the arguments and the reads so far — share one lock-read
// round trip, then take their meaning in order. Cancellation is honored
// between batches — before the implicit prepare point — after which the
// transaction commits regardless of ctx.
func (e *Engine) Run(ctx context.Context, req *txn.Request) txn.Result {
	n := e.node
	proc, res, ok := cc.Begin(ctx, n, req)
	if !ok {
		return res
	}
	t := cc.NewTxn(n, req, proc)
	defer t.Release()
	dir := n.Directory()

	for idx := 0; idx < len(proc.Ops); {
		if reason, done := cc.Cancelled(ctx); done {
			return t.Abort(n, reason)
		}
		// A batch stays within one partition, not just one node: the whole
		// batch's writes are replicated under its pid, and after a replica
		// promotion one node can front several partitions.
		t.Batches = t.Batches[:0]
		var b *cc.Batch
		var pid cluster.PartitionID
		for ; idx < len(proc.Ops); idx++ {
			op := &proc.Ops[idx]
			key, ok := op.Key(req.Args, t.Reads)
			if !ok {
				break
			}
			p := dir.Partition(storage.RID{Table: op.Table, Key: key})
			if b == nil {
				pid, b = p, t.BatchFor(dir.Topology().Primary(p), 0)
				t.Participant(b.Target, pid)
			} else if p != pid {
				break
			}
			b.Entries = append(b.Entries, t.Entry(op, key))
		}
		if b == nil {
			t.Detail = fmt.Sprintf("op %d key unresolvable in procedure order", idx)
			return t.Abort(n, txn.AbortInternal)
		}
		if reason, ok := t.LockWave(n); !ok {
			return t.Abort(n, reason)
		}
		for _, le := range b.Entries {
			if reason := t.Step(&proc.Ops[le.OpID], req.Args, le.Key, pid, false); reason != txn.AbortNone {
				return t.Abort(n, reason)
			}
		}
	}

	// All locks held: implicitly prepared — the commit point. Reserve
	// the commit timestamp here, under the locks, so per-key timestamp
	// order equals lock order; every apply of the tail (replica streams,
	// participant commits) is stamped with it. The deferred Release runs
	// once the commit wave has gathered every participant — all applies
	// have landed cluster-wide, so snapshots may now include this
	// timestamp.
	// Abort paths after the reserve apply nothing anywhere (a replication
	// phase that fails streamed to no replica), so releasing there just
	// lets the stable watermark move past an unused timestamp.
	if c := n.Clock(); c != nil {
		t.TS = c.Reserve()
		defer c.Release(t.TS)
	}
	return t.Commit(n)
}
