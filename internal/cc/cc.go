// Package cc defines the execution-engine interface shared by the
// concurrency-control implementations compared in the paper's evaluation:
// distributed 2PL with 2PC (cc/twopl), optimistic concurrency control
// (cc/occ), and Chiller's two-region engine (internal/core).
//
// All three run on one transaction context and one op interpreter (Txn):
// an engine is a lock/validate policy over it, so a stored procedure
// means the same under each. With MVCC on, a read-only procedure runs a
// fourth policy over the same Txn under every engine (Begin): snapshot
// reads, lock-free. OCC's execution phase and the snapshot policy share
// one loop, Txn.Rounds: one read wave per dependency round. Every
// lock-read, read, validate, snapshot-read, replicate, commit and abort
// reaches its participants as a server.Wave — one doorbell per
// destination node per fan-out (docs/NETWORK.md) — so the evaluation
// compares execution schemes on equal transport.
package cc

import (
	"context"

	"github.com/chillerdb/chiller/internal/txn"
)

// Engine executes transactions to completion on behalf of a client.
// Implementations are safe for concurrent use: each Run call is an
// independent coordinator (the paper's "worker co-routine").
type Engine interface {
	// Name identifies the engine in benchmark output ("2PL", "OCC",
	// "Chiller").
	Name() string
	// Run executes one transaction and reports its outcome. Aborted
	// transactions are not retried by the engine; retry policy belongs
	// to the caller.
	//
	// Cancellation or deadline expiry of ctx aborts the transaction at
	// the next protocol boundary (between lock waves / before the commit
	// point), releasing every lock it holds and reporting
	// txn.AbortCancelled. Once a transaction passes its commit point it
	// completes regardless of ctx — a committed transaction is never
	// half-applied.
	Run(ctx context.Context, req *txn.Request) txn.Result
}

// Drainer is implemented by engines that complete committed transactions
// asynchronously (background commit waves). Callers must Drain before
// asserting a quiesced cluster or tearing the fabric down.
type Drainer interface {
	Drain()
}

// Cancelled reports whether ctx is done, as an abort reason: AbortNone
// while the context is live, AbortCancelled once it is cancelled or past
// its deadline. Engines call this at protocol boundaries.
func Cancelled(ctx context.Context) (txn.AbortReason, bool) {
	select {
	case <-ctx.Done():
		return txn.AbortCancelled, true
	default:
		return txn.AbortNone, false
	}
}
