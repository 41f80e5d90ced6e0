// Package occ implements the optimistic concurrency control baseline the
// paper evaluates against (based on MaaT's role in §7.3: an efficient
// distributed OCC). Execution reads records without locks, buffering
// writes; a distributed validation phase then (1) write-locks the write
// set on every participant, (2) re-validates the versions of the read
// set, and only then (3) applies and commits. Any conflict discovered at
// validation wastes all the work performed — the effect that makes OCC
// degrade fastest under contention in Figures 9 and 10.
package occ

import (
	"context"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/txn"
)

// Engine is an OCC coordinator bound to a node.
type Engine struct {
	node *server.Node
	// afterValidate, when set by a test, runs once phase-2 read
	// validation has succeeded — the point from which the transaction's
	// place in the serial order is fixed.
	afterValidate func()
}

// New creates an OCC engine.
func New(n *server.Node) *Engine { return &Engine{node: n} }

// Name implements cc.Engine.
func (e *Engine) Name() string { return "OCC" }

// Run implements cc.Engine. OCC's policy over cc.Txn: every op takes its
// meaning during an execution phase that reads without locks and only
// buffers (cc.Txn.Rounds: one read wave per dependency round);
// validation then write-locks the write set (phase 1, one lock-read
// wave) and re-checks the versions read (phase 2, one validate wave).
// Cancellation is honored during the execution phase and before each
// validation phase; once validation has succeeded the transaction
// commits regardless of ctx.
func (e *Engine) Run(ctx context.Context, req *txn.Request) txn.Result {
	n := e.node
	proc, res, ok := cc.Begin(ctx, n, req)
	if !ok {
		return res
	}
	t := cc.NewTxn(n, req, proc)
	defer t.Release()

	// Execution: nothing is locked yet, so an abort here leaves no state
	// on any participant.
	if reason := t.Rounds(ctx, n, proc, req.Args, server.KindRead); reason != txn.AbortNone {
		return t.Abort(n, reason)
	}

	// Validation phase 1: write-lock every write set, in one wave.
	if reason, done := cc.Cancelled(ctx); done {
		return t.Abort(n, reason)
	}
	if reason, ok := t.LockWave(n); !ok {
		return t.Abort(n, reason)
	}

	// Reserve the commit timestamp here — under the write locks and
	// BEFORE read validation. OCC holds no read locks, so the reserve is
	// the only thing ordering this transaction against a later writer of
	// a key it merely read: a validated read of k means every conflicting
	// writer of k locks k (and so reserves) after this point, which makes
	// timestamp order agree with serial order. Reserving after validation
	// let such a writer slip a smaller timestamp in between, and a
	// snapshot then saw its write without ours. Every apply of the tail is
	// stamped with it, and the deferred Release — after every participant
	// commit has gathered, or on any abort path, which applies nothing
	// anywhere — lets the stable watermark move past it.
	if c := n.Clock(); c != nil {
		t.TS = c.Reserve()
		defer c.Release(t.TS)
	}

	// Validation phase 2: re-check the read versions under the write locks.
	if reason := t.ValidateWave(n); reason != txn.AbortNone {
		return t.Abort(n, reason)
	}
	if e.afterValidate != nil {
		e.afterValidate()
	}

	// Last cancellation point: validation succeeded but nothing is
	// applied yet, so aborting here is still clean.
	if reason, done := cc.Cancelled(ctx); done {
		return t.Abort(n, reason)
	}
	// Commit: the shared synchronous tail, over the write participants.
	// Its replicate wave streams from every primary concurrently —
	// serializing the partitions would stretch the validated-lock hold
	// window by a round trip each.
	return t.Commit(n)
}
