package chiller

import (
	"context"
	"errors"
	"fmt"

	"github.com/chillerdb/chiller/internal/txn"
)

// Sentinel errors returned (wrapped) by DB methods. Match them with
// errors.Is; every abort matches ErrAborted in addition to its specific
// reason, so callers can handle "the transaction did not commit" without
// enumerating causes:
//
//	_, err := db.Execute(ctx, "bank.transfer", 1, 2, 25)
//	switch {
//	case errors.Is(err, chiller.ErrLockConflict):
//		// retryable: another transaction held a lock (NO_WAIT denial)
//	case errors.Is(err, chiller.ErrAborted):
//		// any other abort: constraint, missing record, ...
//	}
var (
	// ErrAborted matches every aborted transaction, whatever the reason.
	ErrAborted = errors.New("transaction aborted")
	// ErrLockConflict is a NO_WAIT lock denial (or an OCC validation
	// lock failure). Retryable: see Retry.
	ErrLockConflict = errors.New("lock conflict")
	// ErrValidation is an OCC read-set validation failure. Retryable.
	ErrValidation = errors.New("validation failed")
	// ErrConstraint is an application value-constraint violation: a
	// Check hook or a mutator returned an error. Not retryable — the
	// same inputs will fail again.
	ErrConstraint = errors.New("constraint violation")
	// ErrNotFound means an operation referenced a key that does not
	// exist.
	ErrNotFound = errors.New("record not found")
	// ErrInternal covers transport and engine faults. An error matching
	// ErrInternal may also match ErrUnreachable when the fault was a
	// transient network failure.
	ErrInternal = errors.New("internal error")
	// ErrUnreachable is a transient transport fault before the commit
	// point: a participant could not be reached (dropped message,
	// network partition), everything the transaction held was released,
	// and a retry may succeed once the network heals. It is also what a
	// failed routing hop returns — a transaction with hot records is
	// shipped to the node that owns them, and if that call fails nothing
	// is executed at the origin instead. (Over TCP a call that breaks
	// mid-connection is at-most-once, not never-happened: the routed
	// transaction may have committed; see docs/NETWORK.md.) Retryable
	// (see Retry); it also matches ErrInternal, so existing
	// "ErrInternal-family" handling keeps working.
	ErrUnreachable = errors.New("participant unreachable")
	// ErrStaleRead means a read-only snapshot transaction's timestamp
	// fell behind a node's version-retention watermark (a recovery
	// raised it mid-read) more times than the engine's internal
	// fresh-snapshot retry budget. Retryable: the next attempt takes a
	// newer snapshot. Only possible under WithMVCC.
	ErrStaleRead = errors.New("stale snapshot read")
	// ErrMoved means the transaction addressed a node that no longer (or
	// not yet) owns one of its partitions: a live membership change or a
	// hot-record migration installed a new routing layout mid-flight —
	// including a request routed to the node that owned its hot records
	// when it left and no longer does on arrival (it took no lock there).
	// Retryable — the retry consults the updated directory and routes to
	// the new owner. See docs/ELASTICITY.md.
	ErrMoved = errors.New("partition moved")
	// ErrUnknownProc means Execute named a procedure that was never
	// registered.
	ErrUnknownProc = errors.New("unknown procedure")
	// ErrClosed is returned by operations on a closed DB.
	ErrClosed = errors.New("database closed")
	// ErrBadConfig is returned by Open when options are invalid or
	// mutually exclusive — an out-of-range value, WithPeers without
	// WithTransport(TransportTCP), or a simulation-only option (latency,
	// jitter, sampling, partition count) combined with the TCP transport.
	ErrBadConfig = errors.New("invalid configuration")
	// ErrUnsupported is returned by DB methods that need direct access to
	// every node's store — CreateTable, Load, Get, MarkHot, Repartition —
	// when the DB joined a remote cluster over TCP: the data lives in
	// other processes, which size, load, and mark their stores at startup
	// (see cmd/chiller-node). Register, Execute, and Close are the TCP
	// client surface.
	ErrUnsupported = errors.New("operation not supported over this transport")
	// ErrNoSamples is returned by Repartition when no transaction has
	// been sampled since the previous pass: there is nothing to
	// partition by, the layout is untouched, and the pass is worth
	// retrying later, once traffic has run.
	ErrNoSamples = errors.New("no samples collected yet")
)

// AbortError is the concrete error type Execute returns for aborted
// transactions. It wraps the sentinel taxonomy above — errors.Is is the
// supported way to classify it; the type itself is exported for callers
// that want the reason string or procedure name in logs.
type AbortError struct {
	// Proc is the procedure that aborted.
	Proc string
	// Detail carries failure context for internal/unreachable aborts —
	// which verb failed and at which destination node (e.g. "commit at
	// node 2: ..."). Empty for application-level aborts.
	Detail string
	// Distributed reports whether more than one node had taken part in
	// the transaction when it aborted.
	Distributed bool

	reason txn.AbortReason
}

// Error implements error.
func (e *AbortError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("chiller: %s aborted: %s: %s", e.Proc, e.reason, e.Detail)
	}
	return fmt.Sprintf("chiller: %s aborted: %s", e.Proc, e.reason)
}

// Reason returns the abort classification as a stable string
// ("lock-conflict", "validation", "constraint", "not-found",
// "internal") — the same labels the benchmark JSON uses.
func (e *AbortError) Reason() string { return e.reason.String() }

// Is makes the sentinel taxonomy errors.Is-able.
func (e *AbortError) Is(target error) bool {
	switch target {
	case ErrAborted:
		return true
	case ErrLockConflict:
		return e.reason == txn.AbortLockConflict
	case ErrValidation:
		return e.reason == txn.AbortValidation
	case ErrConstraint:
		return e.reason == txn.AbortConstraint
	case ErrNotFound:
		return e.reason == txn.AbortNotFound
	case ErrInternal:
		return e.reason == txn.AbortInternal || e.reason == txn.AbortUnreachable
	case ErrUnreachable:
		return e.reason == txn.AbortUnreachable
	case ErrStaleRead:
		return e.reason == txn.AbortStaleRead
	case ErrMoved:
		return e.reason == txn.AbortMoved
	}
	return false
}

// abortError converts an engine abort reason into the public error. ctx
// supplies the cause for cancellation aborts, so errors.Is(err,
// context.Canceled / context.DeadlineExceeded) works as callers expect.
func abortError(ctx context.Context, proc string, res txn.Result) error {
	if res.Reason == txn.AbortCancelled {
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return fmt.Errorf("chiller: %s cancelled: %w", proc, cause)
	}
	return &AbortError{Proc: proc, Detail: res.Detail, Distributed: res.Distributed, reason: res.Reason}
}

// Retryable reports whether the error is a transient condition that a
// retry with backoff may resolve: a NO_WAIT lock denial, an OCC
// validation failure, an unreachable participant (the transaction
// released everything before aborting; the network may heal), a stale
// snapshot read (the next attempt takes a fresher snapshot), or a
// stale-layout routing miss (the retry consults the new layout).
// Plain internal errors, constraint violations, missing records,
// unknown procedures, and cancellations are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrLockConflict) || errors.Is(err, ErrValidation) ||
		errors.Is(err, ErrUnreachable) || errors.Is(err, ErrStaleRead) ||
		errors.Is(err, ErrMoved)
}
