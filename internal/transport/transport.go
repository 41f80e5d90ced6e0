// Package transport defines the fabric contract Chiller's engines are
// written against: node identities, two-sided calls with asynchronous
// completion, one-way sends with per-link FIFO delivery, and one-sided
// doorbell verbs. internal/server (coordinator, doorbell builder, node
// dispatch) and internal/cc/* speak only this interface; the fabric
// behind it is pluggable.
//
// Two implementations exist:
//
//   - internal/simnet — the in-process simulated fabric. Deterministic,
//     configurable latency, fault injection; the testing and
//     paper-reproduction backend. Doorbell verbs are serviced on the
//     caller's goroutine at ring time, modelling NIC-executed RDMA.
//   - internal/tcpnet — length-prefixed frames over persistent per-link
//     TCP connections, one OS process per node. Doorbell verbs are
//     serviced at the destination on its receive path (TCP has no
//     remote-memory primitive), but still as one envelope per ring: the
//     batching — one round trip for N verbs — survives the transport
//     swap, which is what the paper's cost model actually needs.
//
// The contract is deliberately small and asynchronous so a third
// backend (RDMA verbs, io_uring + registered buffers) can slot in
// without touching the engines: everything an engine posts returns a
// completion handle (Call, Pending), and per-link FIFO of *request
// handler starts* is the only ordering guarantee — the §5 inner
// replication stream depends on it, nothing else does.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// NodeID identifies a machine in the cluster. Implementations address
// peers by it; cluster.Topology maps partitions onto it.
type NodeID int32

// Sentinel errors shared by every fabric implementation. Implementations
// wrap these (fmt.Errorf("%w: ...")) so errors.Is classification works
// uniformly; internal/server maps ErrUnreachable onto the
// txn.AbortUnreachable taxonomy.
var (
	// ErrClosed is returned for operations on a closed fabric.
	ErrClosed = errors.New("transport: fabric closed")
	// ErrNoSuchNode is returned when addressing an unknown node.
	ErrNoSuchNode = errors.New("transport: no such node")
	// ErrNoSuchMethod is returned when the destination has no handler
	// for the requested verb.
	ErrNoSuchMethod = errors.New("transport: no such method")
	// ErrUnreachable is a transient delivery failure: the destination
	// could not be reached (dropped message, partition, refused or broken
	// connection) and the request had no remote effect. Retryable.
	ErrUnreachable = errors.New("transport: destination unreachable")
)

// RemoteError is an application-level error returned by a remote
// handler, distinguished from transport failures: the request was
// delivered and the handler ran, but reported failure.
type RemoteError struct {
	Method string
	Msg    string
}

// Error formats the remote failure with its originating method.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s: %s", e.Method, e.Msg)
}

// RPCHandler serves a two-sided call. from identifies the caller. The
// returned bytes ship back as the response; a non-nil error reaches the
// caller as a *RemoteError.
type RPCHandler func(from NodeID, req []byte) ([]byte, error)

// AsyncRPCHandler serves a two-sided call without blocking the fabric's
// delivery path: it must arrange for reply to be called exactly once
// (typically from its own goroutine or an execution lane). Use it for
// handlers that do real work — a slow inline handler stalls per-link
// in-order delivery.
type AsyncRPCHandler func(from NodeID, req []byte, reply func([]byte, error))

// OneSidedHandler services a doorbell-batched one-sided verb. Where it
// runs is backend-specific — simnet runs it on the caller's goroutine at
// ring time (modelling NIC execution), tcpnet on the destination's
// receive path — so it must be safe to call from any goroutine and must
// synchronize only through data structures that tolerate concurrent
// access (bucket lock words, mutexes), exactly as NIC-executed RDMA
// verbs synchronize through memory. It must never involve the
// destination's dispatcher or execution lanes.
type OneSidedHandler func(from NodeID, req []byte) ([]byte, error)

// Call is an in-flight two-sided call started by Endpoint.Go.
//
// Wait blocks until the response or failure arrives and must be called
// exactly once: implementations pool their Call values, so a Call is
// invalid after Wait returns.
type Call interface {
	Wait() ([]byte, error)
}

// Pending is an in-flight doorbell ring started by Endpoint.GoOneSided.
// Exactly one of Wait or Reap must be called, once: implementations
// pool their Pending values.
type Pending interface {
	// Wait blocks until the ring's completion, observing the full round
	// trip (simnet sleeps out residual simulated latency; tcpnet blocks
	// on the wire).
	Wait() ([]byte, error)
	// Reap collects the completion without insisting on observing the
	// full round trip. Use it only where nothing downstream is gated on
	// the completion — a presumed-commit tail, for example.
	Reap() ([]byte, error)
}

// Endpoint is one node's attachment to the fabric. Implementations must
// be safe for concurrent use; engines fan calls out from many
// goroutines at once.
//
// Ordering contract: request handler starts on one (from, to) link
// occur in send order, for both Go/Call and Send. Responses carry no
// ordering. One-sided verbs have no ordering interaction with two-sided
// traffic — anything that needs per-link FIFO (the §5 inner replication
// stream) must stay two-sided.
type Endpoint interface {
	// ID returns this node's identity.
	ID() NodeID
	// Closed returns a channel closed when the fabric shuts down. Long
	// waits completed by one-way messages (ack countdowns) select on it
	// so teardown fails the wait with ErrClosed instead of hanging.
	Closed() <-chan struct{}

	// Handle registers h for two-sided method. Registering the same
	// method twice replaces the handler.
	Handle(method string, h RPCHandler)
	// HandleAsync registers an asynchronous two-sided handler: invoked
	// in per-link order, replies whenever ready.
	HandleAsync(method string, h AsyncRPCHandler)
	// HandleOneSided registers h to service the named one-sided verb
	// against this endpoint.
	HandleOneSided(method string, h OneSidedHandler)

	// Call performs a synchronous two-sided call (Go + Wait).
	Call(to NodeID, method string, req []byte) ([]byte, error)
	// Go starts an asynchronous two-sided call. Multiple calls may be
	// outstanding; this is how the coordinator fans out lock waves.
	Go(to NodeID, method string, req []byte) (Call, error)
	// Send delivers a one-way message (no response, no completion).
	// Used by the inner-region replication stream, where the primary
	// must not wait; per-link FIFO applies.
	Send(to NodeID, method string, payload []byte) error

	// GoOneSided rings a doorbell: the named one-sided verb is serviced
	// against node to, completion observed through the returned Pending.
	// verbs is the number of work requests batched in payload (≥1) —
	// carried opaquely, counted for batching-factor stats. A failed ring
	// (drop, partition, dead peer) returns an error wrapping
	// ErrUnreachable before the batch had any remote effect.
	GoOneSided(to NodeID, method string, payload []byte, verbs int) (Pending, error)
	// CallOneSided is GoOneSided followed by Wait.
	CallOneSided(to NodeID, method string, payload []byte, verbs int) ([]byte, error)

	// Stats returns the per-fabric traffic counters.
	Stats() *Stats
}

// Stats aggregates fabric-wide counters. All fields are updated
// atomically and may be read concurrently with traffic.
type Stats struct {
	// MessagesSent counts every one-way traversal of the fabric,
	// including the two legs of each RPC and one-sided round trip.
	MessagesSent atomic.Uint64
	// BytesSent counts payload bytes shipped.
	BytesSent atomic.Uint64
	// RPCs counts two-sided request/response exchanges.
	RPCs atomic.Uint64
	// Doorbells counts doorbell rings on the one-sided verb path: each
	// is one round trip regardless of how many verbs the batch carried.
	Doorbells atomic.Uint64
	// OneSidedVerbs counts verbs carried by those doorbells. The ratio
	// OneSidedVerbs/Doorbells is the achieved batching factor.
	OneSidedVerbs atomic.Uint64
}
