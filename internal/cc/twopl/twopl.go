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
	"slices"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// Engine is a 2PL/2PC coordinator bound to a node. Safe for concurrent
// Run calls.
type Engine struct {
	node *server.Node
	// DisableBatching forces one lock-read RPC per operation, matching
	// the paper's strictly sequential execution trace; by default
	// consecutive operations against the same participant whose keys are
	// already resolvable share one round trip.
	DisableBatching bool
}

// New creates a 2PL engine on the given node.
func New(n *server.Node) *Engine { return &Engine{node: n} }

// Name implements cc.Engine.
func (e *Engine) Name() string { return "2PL" }

// Node returns the engine's node.
func (e *Engine) Node() *server.Node { return e.node }

// Run executes the transaction with operations in their original
// procedure order.
func (e *Engine) Run(ctx context.Context, req *txn.Request) txn.Result {
	proc := e.node.Registry().Lookup(req.Proc)
	if proc == nil {
		return txn.Result{Reason: txn.AbortInternal}
	}
	if proc.ReadOnly && e.node.Clock() != nil {
		// MVCC snapshot path: lock-free, conflict-abort-free, zero verbs
		// for replica-local partitions.
		res, err := e.node.RunSnapshot(ctx, *req)
		if err != nil {
			return txn.Result{Reason: txn.AbortInternal, Detail: err.Error()}
		}
		return *res
	}
	order := make([]int, len(proc.Ops))
	for i := range order {
		order[i] = i
	}
	return e.RunOrdered(ctx, req, proc, order)
}

// RunOrdered executes the transaction's operations in the given order
// (which must respect the procedure's pk-deps). Chiller's engine reuses
// this for its normal-execution fallback. Cancellation is honored
// between lock batches — before the implicit prepare point — after which
// the transaction commits regardless of ctx.
func (e *Engine) RunOrdered(ctx context.Context, req *txn.Request, proc *txn.Procedure, order []int) txn.Result {
	n := e.node
	txnID := req.ID
	if txnID == 0 {
		txnID = n.NextTxnID()
	}

	st := execState{
		reads:   make(txn.ReadSet, len(proc.Ops)),
		pending: make(map[storage.RID][]byte),
		writes:  make(map[cluster.PartitionID][]server.WriteOp),
	}

	for idx := 0; idx < len(order); {
		if reason, done := cc.Cancelled(ctx); done {
			n.AbortAll(st.participants, txnID)
			return txn.Result{Reason: reason, Distributed: st.distributed()}
		}
		batch, target, pid, err := e.nextBatch(proc, req.Args, order, idx, &st)
		if err != nil {
			n.AbortAll(st.participants, txnID)
			return txn.Result{Reason: txn.ReasonOf(err), Distributed: st.distributed()}
		}
		st.addParticipant(target)

		resp, callErr := n.LockRead(target, txnID, batch)
		if callErr != nil {
			n.AbortAll(st.participants, txnID)
			return txn.Result{
				Reason:      server.TransportAbortReason(callErr),
				Detail:      fmt.Sprintf("lock-read at node %d: %v", target, callErr),
				Distributed: st.distributed(),
			}
		}
		if !resp.OK {
			n.AbortAll(st.participants, txnID)
			return txn.Result{Reason: resp.Reason, Distributed: st.distributed()}
		}
		if err := st.absorb(proc, req.Args, batch, pid, resp); err != nil {
			n.AbortAll(st.participants, txnID)
			return txn.Result{Reason: txn.ReasonOf(err), Distributed: st.distributed()}
		}
		idx += len(batch)
	}

	// All locks held: implicitly prepared — the commit point. Reserve
	// the commit timestamp here, under the locks, so per-key timestamp
	// order equals lock order; every apply below (replica streams,
	// participant commits) is stamped with it. The deferred Release runs
	// once the commit wave has gathered every participant — all applies
	// have landed cluster-wide, so snapshots may now include this
	// timestamp.
	// Abort paths after the reserve apply nothing anywhere (a replication
	// phase that fails streamed to no replica), so releasing there just
	// lets the stable watermark move past an unused timestamp.
	var ts uint64
	if c := n.Clock(); c != nil {
		ts = c.Reserve()
		defer c.Release(ts)
	}
	// Replicate the write sets (one replicate wave, every replica ack
	// joined), then run the commit phase of 2PC as one wave. An error means
	// no replica received anything (a partly streamed fan-out is
	// Node.Replicate's to surface), so the abort is clean and retryable.
	if err := n.Replicate(txnID, ts, st.participants, st.writes); err != nil {
		n.AbortAll(st.participants, txnID)
		return txn.Result{
			Reason:      server.TransportAbortReason(err),
			Detail:      err.Error(),
			Distributed: st.distributed(),
		}
	}
	w := n.NewWave()
	w.CommitAll(txnID, ts, st.participants, st.writes)
	w.Wait() // 2PC's second phase is synchronous: the client sees applied writes
	err := w.Errs()
	w.Release()
	if err != nil {
		// Post-prepare commit delivery failed: participants that did not
		// hear the commit keep their locks; surface as internal (never
		// retryable — the transaction's locks may be wedged).
		return txn.Result{Reason: txn.AbortInternal, Detail: err.Error(), Distributed: st.distributed()}
	}
	n.SampleCommit(st.readRIDs, st.writeRIDs)
	return txn.Result{
		Committed:   true,
		Reads:       st.reads,
		Distributed: st.distributed(),
	}
}

// execState is the coordinator-local transaction context.
type execState struct {
	reads        txn.ReadSet
	pending      map[storage.RID][]byte // buffered writes: read-your-own-writes
	writes       map[cluster.PartitionID][]server.WriteOp
	participants []transport.NodeID // contacted nodes, deduplicated
	readRIDs     []storage.RID
	writeRIDs    []storage.RID
	ridOf        []ridOp // per processed op, for absorb
}

type ridOp struct {
	op  int
	rid storage.RID
}

func (st *execState) distributed() bool { return len(st.participants) > 1 }

func (st *execState) addParticipant(node transport.NodeID) {
	if !slices.Contains(st.participants, node) {
		st.participants = append(st.participants, node)
	}
}

// nextBatch groups consecutive ops (starting at order[idx]) that target
// the same participant and whose keys are resolvable from args and the
// reads accumulated so far.
func (e *Engine) nextBatch(proc *txn.Procedure, args txn.Args, order []int, idx int, st *execState) ([]server.LockEntry, transport.NodeID, cluster.PartitionID, error) {
	n := e.node
	var batch []server.LockEntry
	var target transport.NodeID
	var pid cluster.PartitionID
	st.ridOf = st.ridOf[:0]
	for j := idx; j < len(order); j++ {
		op := &proc.Ops[order[j]]
		key, ok := op.Key(args, st.reads)
		if !ok {
			if j == idx {
				return nil, 0, 0, txn.NewAbort(txn.AbortInternal,
					fmt.Sprintf("op %d key unresolvable in order position %d", order[j], j))
			}
			break
		}
		rid := storage.RID{Table: op.Table, Key: key}
		p := n.Directory().Partition(rid)
		t := n.Directory().Topology().Primary(p)
		if j == idx {
			target, pid = t, p
		} else if t != target || p != pid || e.DisableBatching {
			// A batch stays within one partition, not just one node: the
			// whole batch's writes are replicated under its pid, and after
			// a replica promotion one node can front several partitions.
			break
		}
		batch = append(batch, server.LockEntry{
			OpID:      op.ID,
			Table:     op.Table,
			Key:       key,
			Mode:      op.Type.LockMode(),
			Read:      op.Type == txn.OpRead || op.Type == txn.OpUpdate,
			MustExist: op.Type != txn.OpInsert,
		})
		st.ridOf = append(st.ridOf, ridOp{op: op.ID, rid: rid})
		if e.DisableBatching {
			break
		}
	}
	return batch, target, pid, nil
}

// absorb processes a lock-read response in op order: shadow buffered
// writes, run checks, compute mutations, and buffer new writes.
func (st *execState) absorb(proc *txn.Procedure, args txn.Args, batch []server.LockEntry, pid cluster.PartitionID, resp *server.LockResponse) error {
	for bi, entry := range batch {
		op := &proc.Ops[entry.OpID]
		rid := st.ridOf[bi].rid
		if entry.Read {
			if pv, ok := st.pending[rid]; ok {
				st.reads[op.ID] = pv
			} else {
				st.reads[op.ID] = resp.Reads[op.ID]
			}
		}
		if op.Check != nil {
			if err := op.Check(st.reads[op.ID], args, st.reads); err != nil {
				return txn.NewAbort(txn.AbortConstraint, err.Error())
			}
		}
		if op.Type.IsWrite() {
			var old []byte
			if op.Type == txn.OpUpdate {
				old = st.reads[op.ID]
			}
			var newVal []byte
			if op.Type != txn.OpDelete {
				nv, err := op.Mutate(old, args, st.reads)
				if err != nil {
					return txn.NewAbort(txn.AbortConstraint, err.Error())
				}
				newVal = nv
			}
			st.pending[rid] = newVal
			st.writes[pid] = append(st.writes[pid], server.WriteOp{
				Table: op.Table, Key: rid.Key, Type: op.Type, Value: newVal,
			})
			st.writeRIDs = append(st.writeRIDs, rid)
		} else {
			st.readRIDs = append(st.readRIDs, rid)
		}
	}
	return nil
}
