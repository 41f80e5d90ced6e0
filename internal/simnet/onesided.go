package simnet

import (
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

// One-sided verbs. In real RDMA these are serviced by the remote NIC
// without involving the remote CPU; here they are serviced by the fabric
// itself (never by the destination's dispatcher or a two-sided RPC
// handler), so the remote "CPU" stays free — the property NAM-DB
// exploits.
//
// The one surface is the doorbell-batched verb handler (HandleOneSided +
// GoOneSided): a registered handler serviced on the one-sided path,
// asynchronously, so a caller can keep several doorbells to different
// nodes in flight. This is the engine hot path: internal/server packs a
// whole per-node verb batch (lock wave, commit wave) into one doorbell
// (see its VerbDoorbell). A lock-and-read is a CAS on the bucket lock
// word plus a record READ, which the handler performs as one atomic
// unit.
//
// The one-sided path deliberately bypasses the per-link FIFO queues and
// carries no jitter: one-sided verbs have no ordering interaction with
// two-sided messages in our protocols. Anything that relies on per-link
// ordering — the §5 inner replication stream — must stay two-sided.

// OneSidedHandler services a doorbell-batched one-sided verb (see
// transport.OneSidedHandler). In simnet it runs on the caller's side of
// the wire — the destination's dispatcher and lanes are never involved.
type OneSidedHandler = transport.OneSidedHandler

// PendingOneSided is an in-flight doorbell ring started by GoOneSided.
// Pendings are pooled: Wait recycles the value, so it must not be used
// again after Wait returns.
type PendingOneSided struct {
	payload []byte
	err     error
	// at is the simulated completion time; Wait sleeps out the residual
	// so the caller observes a full round trip.
	at time.Time
}

var oneSidedPool = sync.Pool{New: func() any { return new(PendingOneSided) }}

// Wait reaps the doorbell's completion, sleeping out any residual
// simulated latency so the caller observes a full round trip from the
// ring. A caller that reaps late (it overlapped other work past the
// round trip) returns immediately. Wait must be called exactly once; it
// recycles the PendingOneSided.
func (p *PendingOneSided) Wait() ([]byte, error) {
	if d := time.Until(p.at); d > 0 {
		time.Sleep(d)
	}
	return p.Reap()
}

// Reap collects the completion without sleeping out the residual
// simulated latency. Use it only where nothing downstream depends on
// observing the full round trip — a presumed-commit tail that merely
// checks for invariant violations, for example: the destination's state
// changed at ring time either way, and no protocol step is gated on the
// completion. Like Wait, call it exactly once; it recycles the
// PendingOneSided.
func (p *PendingOneSided) Reap() ([]byte, error) {
	payload, err := p.payload, p.err
	*p = PendingOneSided{}
	oneSidedPool.Put(p)
	return payload, err
}

// GoOneSided rings a doorbell: the named one-sided verb is serviced
// against node `to`, and the completion is observed by Wait after the
// full round trip. verbs is the number of work requests the doorbell's
// payload batches (≥1) — the fabric carries the payload opaquely and
// uses the count only for its batching-factor statistics.
//
// Cost model: one round trip and two fabric messages per doorbell,
// however many verbs it posts — doorbell batching's whole point. Unlike
// two-sided RPC, nothing is scheduled: no link queue, no dispatcher
// pass, no handler goroutine, no timer. The verb is serviced on the
// caller's goroutine at ring time — destination state changes promptly
// and deterministically (a
// lock released by a doorbell commit is free for the next requester
// without waiting on any scheduler), while the caller still observes the
// full round trip at Wait. The ±one-way skew between service time and
// the physical arrival instant is far below the scheduling noise of the
// two-sided path and shifts acquire and release alike, leaving lock
// spans honest.
func (e *Endpoint) GoOneSided(to NodeID, method string, payload []byte, verbs int) (transport.Pending, error) {
	dst, ok := e.net.endpoint(to)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, to)
	}
	select {
	case <-e.net.done:
		return nil, ErrClosed
	default:
	}
	if verbs < 1 {
		verbs = 1
	}
	// Fault injection applies at ring time, exactly like a two-sided
	// request send: a dropped or partitioned ring fails at the caller
	// before the batch is serviced, so the destination never sees a
	// half-rung doorbell. Delay spikes push the completion time out.
	spike, ferr := e.net.requestFault(nil, e.id, to, method)
	if ferr != nil {
		return nil, ferr
	}
	cfg := &e.net.cfg
	oneway := cfg.Latency
	if to == e.id {
		oneway = cfg.LocalLatency
	}
	st := &e.net.stats
	st.Doorbells.Add(1)
	st.OneSidedVerbs.Add(uint64(verbs))
	st.MessagesSent.Add(2)
	st.BytesSent.Add(uint64(len(payload)))

	dst.mu.RLock()
	h := dst.onesided[method]
	dst.mu.RUnlock()
	p := oneSidedPool.Get().(*PendingOneSided)
	if h == nil {
		p.err = fmt.Errorf("%w: one-sided %s", ErrNoSuchMethod, method)
	} else {
		p.payload, p.err = h(e.id, payload)
	}
	p.at = time.Now().Add(2*oneway + spike)
	return p, nil
}

// CallOneSided is GoOneSided followed by Wait: one synchronous doorbell
// round trip.
func (e *Endpoint) CallOneSided(to NodeID, method string, payload []byte, verbs int) ([]byte, error) {
	p, err := e.GoOneSided(to, method, payload, verbs)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}
