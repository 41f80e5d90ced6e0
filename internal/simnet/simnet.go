// Package simnet simulates the RDMA-capable fabric that Chiller assumes:
// a low-latency network with per-link in-order (FIFO) delivery, two-sided
// RPC endpoints, and one-sided verbs — doorbell-batched verb handlers
// that are serviced by the fabric itself, never by the destination's
// dispatcher.
//
// The paper's testbed was an 8-node InfiniBand EDR cluster. What Chiller's
// argument actually depends on is (a) network round trips being one to two
// orders of magnitude slower than local memory, and (b) messages on a queue
// pair arriving in send order (the inner-region replication protocol of §5
// relies on this). simnet reproduces both properties in-process with a
// configurable one-way latency, which lets the benchmark harness sweep the
// network/memory latency ratio directly.
//
// The fabric offers two transports:
//
//   - Two-sided RPC (Call/Go/Send): messages traverse a per-link FIFO
//     queue drained by a single dispatcher goroutine, and handlers run at
//     the destination — on its dispatcher or its execution lanes. This is
//     the general path; anything that must observe per-link ordering
//     (the §5 replication stream) or run real destination-side logic
//     (inner-region execution) uses it.
//   - One-sided verbs (the doorbell-batched verb path, HandleOneSided +
//     GoOneSided): serviced after the same latency but without involving
//     the destination's dispatcher, modelling NIC-executed RDMA verbs. A
//     doorbell batch posts any number of operations against one node and
//     rings once — one round trip for the whole batch, the per-message
//     overhead amortization the paper's transport argument rests on.
//     Chiller's engine drives its outer lock waves and commit tails over
//     this path (see internal/server's doorbell verb and
//     docs/NETWORK.md).
//
// # Failure semantics
//
// The fabric itself never loses a message: sends fail only on a closed
// fabric or an unknown node. Drops, delay spikes, partitions and crashes
// are injected above it by transport.Faults, the one fault layer both
// fabrics run under.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

// NodeID identifies a machine in the simulated cluster. It is the
// shared transport identity; simnet re-exports it so the fabric's own
// tests and the simfab adapter read naturally.
type NodeID = transport.NodeID

// Config controls the fabric's timing model.
type Config struct {
	// Latency is the one-way delay for messages between distinct nodes.
	// With RDMA this is on the order of 1-3us; classic TCP is 30-100us.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// LocalLatency is the delay for a node messaging itself (loopback
	// shortcut, normally 0).
	LocalLatency time.Duration
	// Seed seeds the jitter source; 0 means a fixed default so runs are
	// reproducible unless the caller opts into variation.
	Seed int64
	// QueueDepth is the per-link send queue capacity. Sends block when
	// the queue is full, modelling a bounded QP send queue. 0 means a
	// default of 1024.
	QueueDepth int
}

// Stats aggregates fabric-wide counters (see transport.Stats).
type Stats = transport.Stats

// Network is the fabric. Create one per simulated cluster, then create an
// Endpoint per node.
type Network struct {
	cfg   Config
	stats Stats

	mu     sync.RWMutex
	nodes  map[NodeID]*Endpoint
	links  map[linkKey]*link
	closed bool
	wg     sync.WaitGroup

	// Delivery is driven by a single dispatcher goroutine over all
	// links: per-message timer wake-ups (one goroutine per link) were
	// the fabric's dominant CPU cost at benchmark message rates. The
	// dispatcher sleeps until the earliest pending delivery across the
	// fabric, then drains every due message in per-link FIFO order.
	dmu    sync.Mutex
	active []*link // links with queued messages
	nudge  chan struct{}
	done   chan struct{}

	// inflight counts messages between send-enqueue and the return of
	// their destination handler (handlers run inline on the dispatcher).
	// Quiet() reads it: the chaos harness's crash schedule needs a
	// fabric-level quiesce barrier because one-way streams (replica
	// applies) leave no participant state to poll.
	inflight atomic.Int64
}

type linkKey struct{ from, to NodeID }

// New creates a fabric with the given timing configuration.
func New(cfg Config) *Network {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	n := &Network{
		cfg:   cfg,
		nodes: make(map[NodeID]*Endpoint),
		links: make(map[linkKey]*link),
		nudge: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	n.wg.Add(1)
	go n.dispatch()
	return n
}

// Stats returns the fabric counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Quiet reports whether no message is currently in flight: every sent
// message has been delivered and its destination handler has returned.
// Only meaningful on a fabric with no concurrent senders (a quiesced
// cluster) — with traffic running it is a momentary snapshot.
func (n *Network) Quiet() bool { return n.inflight.Load() == 0 }

// Close tears the fabric down. Outstanding RPCs fail with ErrClosed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.nodes))
	for _, e := range n.nodes {
		eps = append(eps, e)
	}
	n.mu.Unlock()

	close(n.done)
	n.wg.Wait()
	for _, e := range eps {
		e.failPending(ErrClosed)
	}
}

// The shared transport sentinels, re-exported: one error value across
// fabrics, so errors.Is classification is backend-independent.
var (
	// ErrClosed is returned for operations on a closed fabric.
	ErrClosed = transport.ErrClosed
	// ErrNoSuchNode is returned when addressing an unregistered node.
	ErrNoSuchNode = transport.ErrNoSuchNode
	// ErrNoSuchMethod is returned when the destination has no handler
	// for the requested RPC method.
	ErrNoSuchMethod = transport.ErrNoSuchMethod
)

// Endpoint returns (creating if necessary) the endpoint for node id.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.nodes[id]; ok {
		return e
	}
	e := &Endpoint{
		id:       id,
		net:      n,
		handlers: make(map[string]RPCHandler),
		pending:  make(map[uint64]chan rpcResult),
	}
	n.nodes[id] = e
	return e
}

func (n *Network) endpoint(id NodeID) (*Endpoint, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.nodes[id]
	return e, ok
}

// link is a directed FIFO queue between two nodes, drained by the
// fabric's dispatcher in order: a message never overtakes an earlier one
// on the same link, even with jitter (the load-bearing property for the
// §5 replication stream).
type link struct {
	net   *Network
	from  NodeID
	to    NodeID
	local bool
	rng   *rand.Rand
	rngMu sync.Mutex // protects jitter draws made on the send path

	qmu    sync.Mutex
	q      []*envelope
	head   int
	queued bool // registered in net.active
}

type envelope struct {
	msg     message
	deliver time.Time
}

// envPool recycles envelopes: at benchmark rates the fabric moves
// hundreds of thousands of messages per second and per-message envelope
// garbage showed up in allocation profiles.
var envPool = sync.Pool{New: func() any { return new(envelope) }}

type message struct {
	kind    uint8 // kindRequest or kindResponse
	rpcID   uint64
	from    NodeID
	method  string
	payload []byte
	err     string
}

const (
	kindRequest uint8 = iota + 1
	kindResponse
)

func (n *Network) getLink(from, to NodeID) (*link, error) {
	key := linkKey{from, to}
	n.mu.RLock()
	l, ok := n.links[key]
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return l, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if l, ok = n.links[key]; ok {
		return l, nil
	}
	seed := n.cfg.Seed
	if seed == 0 {
		seed = 0x5eed
	}
	l = &link{
		net:   n,
		from:  from,
		to:    to,
		local: from == to,
		rng:   rand.New(rand.NewSource(seed ^ int64(from)<<32 ^ int64(to))),
	}
	n.links[key] = l
	return l, nil
}

// dispatch is the fabric's delivery loop: one goroutine, one timer. It
// wakes at the earliest pending delivery time (or when a sender nudges
// it with new work), drains every due message across all links in
// per-link FIFO order, and runs the request handlers inline — which
// serializes handler starts exactly as the per-link drain goroutines
// did, just without a timer wake-up per message.
func (n *Network) dispatch() {
	defer n.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var scratch []*link
	for {
		now := time.Now()
		var next time.Time

		n.dmu.Lock()
		scratch = append(scratch[:0], n.active...)
		n.dmu.Unlock()

		for _, l := range scratch {
			for {
				l.qmu.Lock()
				if l.head >= len(l.q) {
					// Drained; keep the registration (`queued`) until the
					// de-registration pass below so a concurrent sender
					// cannot double-register the link.
					l.q = l.q[:0]
					l.head = 0
					l.qmu.Unlock()
					break
				}
				env := l.q[l.head]
				if env.deliver.After(now) {
					if next.IsZero() || env.deliver.Before(next) {
						next = env.deliver
					}
					l.qmu.Unlock()
					break
				}
				l.q[l.head] = nil
				l.head++
				l.qmu.Unlock()

				msg := env.msg
				*env = envelope{}
				envPool.Put(env)
				if dst, ok := n.endpoint(l.to); ok {
					dst.dispatch(msg)
				}
				n.inflight.Add(-1)
				now = time.Now()
			}
		}

		// De-register links that drained; senders re-register on the
		// next enqueue. queued flips only here (under both locks), so a
		// link is in the active list exactly once.
		n.dmu.Lock()
		kept := n.active[:0]
		for _, l := range n.active {
			l.qmu.Lock()
			if l.head >= len(l.q) {
				l.queued = false
			} else {
				kept = append(kept, l)
			}
			l.qmu.Unlock()
		}
		for i := len(kept); i < len(n.active); i++ {
			n.active[i] = nil
		}
		n.active = kept
		n.dmu.Unlock()

		wait := time.Hour
		if !next.IsZero() {
			wait = time.Until(next)
			if wait < 0 {
				wait = 0
			}
		}
		timer.Reset(wait)
		select {
		case <-n.done:
			return
		case <-n.nudge:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
	}
}

func (l *link) latency() time.Duration {
	cfg := &l.net.cfg
	base := cfg.Latency
	if l.local {
		base = cfg.LocalLatency
	}
	if cfg.Jitter > 0 {
		l.rngMu.Lock()
		base += time.Duration(l.rng.Int63n(int64(cfg.Jitter)))
		l.rngMu.Unlock()
	}
	return base
}

// send enqueues msg for delivery after the link latency.
func (l *link) send(msg message) error {
	select {
	case <-l.net.done:
		return ErrClosed
	default:
	}
	env := envPool.Get().(*envelope)
	env.msg = msg
	env.deliver = time.Now().Add(l.latency())

	l.net.inflight.Add(1)
	l.qmu.Lock()
	l.q = append(l.q, env)
	register := !l.queued
	if register {
		l.queued = true
	}
	l.qmu.Unlock()
	if register {
		l.net.dmu.Lock()
		l.net.active = append(l.net.active, l)
		l.net.dmu.Unlock()
	}
	// Wake the dispatcher; a pending nudge already covers us.
	select {
	case l.net.nudge <- struct{}{}:
	default:
	}
	l.net.stats.MessagesSent.Add(1)
	l.net.stats.BytesSent.Add(uint64(len(msg.payload)))
	return nil
}

// RPCHandler serves a two-sided RPC (see transport.RPCHandler).
type RPCHandler = transport.RPCHandler

// AsyncRPCHandler serves a two-sided RPC without blocking the fabric's
// dispatcher (see transport.AsyncRPCHandler).
type AsyncRPCHandler = transport.AsyncRPCHandler

// Endpoint is one node's attachment to the fabric.
type Endpoint struct {
	id  NodeID
	net *Network

	mu       sync.RWMutex
	handlers map[string]RPCHandler
	async    map[string]AsyncRPCHandler
	onesided map[string]OneSidedHandler

	pmu     sync.Mutex
	pending map[uint64]chan rpcResult
	rpcSeq  atomic.Uint64
}

type rpcResult struct {
	payload []byte
	err     error
	// at is the simulated arrival time of the response; Call.Wait sleeps
	// out any residual so callers observe a full round trip even though
	// the result is handed over directly (see deliverResponse).
	at time.Time
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Stats returns the fabric-wide traffic counters (shared by every
// endpoint of this Network).
func (e *Endpoint) Stats() *Stats { return &e.net.stats }

// Closed returns a channel that is closed when the fabric shuts down.
// Long waits that are completed by one-way messages (ack countdowns)
// select on it so a teardown racing in-flight work fails the wait with
// ErrClosed instead of hanging — one-way messages die silently with the
// dispatcher, unlike pending RPCs, which Close fails explicitly.
func (e *Endpoint) Closed() <-chan struct{} { return e.net.done }

// Handle registers h for RPC method name. Registering the same method twice
// replaces the previous handler.
func (e *Endpoint) Handle(method string, h RPCHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[method] = h
}

// HandleAsync registers an asynchronous handler for method: the fabric
// invokes it inline (preserving per-link ordering of handler starts) but
// does not wait for the response, which the handler delivers through the
// reply callback whenever it is ready.
func (e *Endpoint) HandleAsync(method string, h AsyncRPCHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.async == nil {
		e.async = make(map[string]AsyncRPCHandler)
	}
	e.async[method] = h
}

// HandleOneSided registers h to service the named one-sided verb against
// this endpoint. Unlike two-sided handlers, h is run by the fabric on the
// caller's side of the wire — the destination's dispatcher and execution
// lanes are never involved, the property that keeps the remote "CPU" free
// in the NAM-DB architecture. h must therefore be safe to call from any
// goroutine and must synchronize through the destination's own data
// structures (bucket lock words, mutexes), exactly as NIC-executed RDMA
// verbs synchronize through memory.
func (e *Endpoint) HandleOneSided(method string, h OneSidedHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.onesided == nil {
		e.onesided = make(map[string]OneSidedHandler)
	}
	e.onesided[method] = h
}

// RemoteError is an application-level error returned by a remote RPC
// handler, distinguished from transport failures (see
// transport.RemoteError).
type RemoteError = transport.RemoteError

// Call performs a synchronous RPC to node `to`, blocking through one
// network round trip (two one-way latencies).
func (e *Endpoint) Call(to NodeID, method string, req []byte) ([]byte, error) {
	c, err := e.Go(to, method, req)
	if err != nil {
		return nil, err
	}
	return c.Wait()
}

// Call is an in-flight asynchronous RPC created by Endpoint.Go. Calls
// are pooled: Wait recycles the call, so a Call must not be used again
// after Wait returns.
type Call struct {
	method string
	ch     chan rpcResult
}

var callPool = sync.Pool{
	New: func() any { return &Call{ch: make(chan rpcResult, 1)} },
}

// Wait blocks until the response (or failure) arrives, sleeping out any
// residual simulated latency so the caller observes the configured round
// trip. Wait must be called exactly once; it recycles the Call.
func (c *Call) Wait() ([]byte, error) {
	res := <-c.ch
	callPool.Put(c)
	if d := time.Until(res.at); d > 0 {
		time.Sleep(d)
	}
	if res.err != nil {
		return nil, res.err
	}
	return res.payload, nil
}

// Go starts an asynchronous RPC. The returned Call's Wait method yields
// the response. Multiple Go calls may be outstanding simultaneously; this
// is how Chiller's coordinator fans out outer-region lock requests.
func (e *Endpoint) Go(to NodeID, method string, req []byte) (transport.Call, error) {
	if _, ok := e.net.endpoint(to); !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, to)
	}
	l, err := e.net.getLink(e.id, to)
	if err != nil {
		return nil, err
	}
	id := e.rpcSeq.Add(1)
	c := callPool.Get().(*Call)
	c.method = method
	e.pmu.Lock()
	e.pending[id] = c.ch
	e.pmu.Unlock()

	msg := message{
		kind:    kindRequest,
		rpcID:   id,
		from:    e.id,
		method:  method,
		payload: req,
	}
	if err := l.send(msg); err != nil {
		e.pmu.Lock()
		delete(e.pending, id)
		e.pmu.Unlock()
		callPool.Put(c)
		return nil, err
	}
	e.net.stats.RPCs.Add(1)
	return c, nil
}

// dispatch runs on the link drain goroutine of the *incoming* link.
// Requests are served on fresh goroutines so a slow handler doesn't block
// in-order delivery of subsequent messages... except that would break FIFO
// observation guarantees for the replication protocol. Instead, handler
// invocation happens inline (preserving per-link ordering of handler
// starts) and handlers that need concurrency spawn their own goroutines.
func (e *Endpoint) dispatch(msg message) {
	if msg.kind == kindRequest {
		e.serve(msg)
	}
}

// serve runs the handler and hands the response directly to the caller's
// completion channel, stamped with its simulated arrival time (Call.Wait
// sleeps out the residual). Responses never traverse a link: each RPC's
// response is independent, so per-link FIFO — which the replication
// protocol needs for *requests* — buys nothing here, and skipping the
// reverse-link queue halves the scheduling cost of every round trip.
func (e *Endpoint) serve(msg message) {
	e.mu.RLock()
	h, ok := e.handlers[msg.method]
	var ah AsyncRPCHandler
	if !ok && e.async != nil {
		ah, ok = e.async[msg.method]
	}
	e.mu.RUnlock()

	if ah != nil {
		from, rpcID, method := msg.from, msg.rpcID, msg.method
		ah(from, msg.payload, func(resp []byte, err error) {
			e.respond(from, rpcID, method, resp, err)
		})
		return
	}
	var resp []byte
	var err error
	if !ok {
		err = fmt.Errorf("%w: %s", ErrNoSuchMethod, msg.method)
	} else {
		resp, err = h(msg.from, msg.payload)
	}
	e.respond(msg.from, msg.rpcID, msg.method, resp, err)
}

// respond ships an RPC response back to the caller, stamped with the
// reverse link's latency.
func (e *Endpoint) respond(from NodeID, rpcID uint64, method string, resp []byte, err error) {
	caller, okc := e.net.endpoint(from)
	if !okc {
		return
	}
	back, lerr := e.net.getLink(e.id, from)
	if lerr != nil {
		return
	}
	e.net.stats.MessagesSent.Add(1)
	e.net.stats.BytesSent.Add(uint64(len(resp)))
	res := rpcResult{payload: resp, at: time.Now().Add(back.latency())}
	if err != nil {
		res = rpcResult{err: &RemoteError{Method: method, Msg: err.Error()}, at: res.at}
	}
	caller.deliverResponse(rpcID, res)
}

// deliverResponse completes a pending RPC.
func (e *Endpoint) deliverResponse(rpcID uint64, res rpcResult) {
	e.pmu.Lock()
	ch, ok := e.pending[rpcID]
	if ok {
		delete(e.pending, rpcID)
	}
	e.pmu.Unlock()
	if ok {
		ch <- res
	}
}

// Send delivers a one-way message (no response) to node `to`. Used by the
// inner-region replication stream, where the primary must not wait.
func (e *Endpoint) Send(to NodeID, method string, payload []byte) error {
	if _, ok := e.net.endpoint(to); !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, to)
	}
	l, err := e.net.getLink(e.id, to)
	if err != nil {
		return err
	}
	return l.send(message{
		kind:    kindRequest,
		rpcID:   0,
		from:    e.id,
		method:  method,
		payload: payload,
	})
}

func (e *Endpoint) failPending(err error) {
	e.pmu.Lock()
	defer e.pmu.Unlock()
	for id, ch := range e.pending {
		ch <- rpcResult{err: err}
		delete(e.pending, id)
	}
}
