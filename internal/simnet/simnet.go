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
// relies on this). simnet reproduces both properties in-process with one
// configurable one-way latency, which lets the benchmark harness sweep the
// network/memory latency ratio directly.
//
// The fabric offers two transports:
//
//   - Two-sided RPC (Call/Send): every message between distinct nodes
//     joins one fabric-wide queue and waits the same Latency, so the
//     queue is in delivery order and each link's messages stay in send
//     order. A single dispatcher goroutine drains it and starts the
//     handlers at the destination — on the dispatcher or the node's
//     execution lanes. This is the path for what must observe per-link
//     ordering (the §5 replication stream) or run real destination-side
//     logic (transaction routing, the handoff control plane). A node's
//     request to itself is served at once on the sender's goroutine, as
//     tcpnet serves it, and is no fabric message.
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
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

// NodeID identifies a machine in the simulated cluster. It is the
// shared transport identity; simnet re-exports it so the fabric's own
// tests and the simfab adapter read naturally.
type NodeID = transport.NodeID

// Config controls the fabric's timing model. The queue is unbounded.
type Config struct {
	// Latency is the one-way delay for messages between distinct nodes;
	// a node's messages to itself take none. With RDMA this is on the
	// order of 1-3us; classic TCP is 30-100us.
	Latency time.Duration
}

// Stats aggregates fabric-wide counters (see transport.Stats).
type Stats = transport.Stats

// Network is the fabric. Create one per simulated cluster, then create an
// Endpoint per node.
type Network struct {
	cfg   Config
	stats Stats

	mu    sync.RWMutex
	nodes map[NodeID]*Endpoint

	// Delivery is one queue drained by one dispatcher goroutine with one
	// timer: per-message timer wake-ups were the fabric's dominant CPU
	// cost at benchmark message rates. Every envelope waits the same
	// Latency from its enqueue, stamped under qmu, so q[head:] is in
	// delivery order and the dispatcher only ever looks at its head.
	qmu   sync.Mutex
	q     []envelope
	head  int
	nudge chan struct{}

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// envelope is a request in flight between two nodes. Responses never
// ride the queue (see call.respond); reply is where the handler's answer
// goes: the caller's completion for a Call, transport.NoReply for a
// one-way Send.
type envelope struct {
	deliver time.Time
	dst     *Endpoint
	from    NodeID
	method  string
	payload []byte
	reply   func([]byte, error)
}

// New creates a fabric with the given timing configuration.
func New(cfg Config) *Network {
	n := &Network{
		cfg:   cfg,
		nodes: make(map[NodeID]*Endpoint),
		nudge: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	n.wg.Add(1)
	go n.dispatch()
	return n
}

// Stats returns the fabric counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Close tears the fabric down. Outstanding calls fail with
// transport.ErrClosed.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
	})
}

// Endpoint returns (creating if necessary) the endpoint for node id.
func (n *Network) Endpoint(id NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.nodes[id]; ok {
		return e
	}
	e := &Endpoint{id: id, net: n}
	n.nodes[id] = e
	return e
}

func (n *Network) endpoint(id NodeID) (*Endpoint, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	e, ok := n.nodes[id]
	return e, ok
}

// dispatch is the fabric's delivery loop: one goroutine, one timer. It
// takes every due envelope off the queue's head, runs their request
// handlers inline in queue order — which starts each link's handlers in
// send order — and then sleeps until the new head is due or a sender
// nudges it.
func (n *Network) dispatch() {
	defer n.wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due []envelope
	for {
		now := time.Now()
		wait := time.Hour
		n.qmu.Lock()
		for n.head < len(n.q) && !n.q[n.head].deliver.After(now) {
			due = append(due, n.q[n.head])
			n.q[n.head] = envelope{}
			n.head++
		}
		if n.head == len(n.q) {
			n.q, n.head = n.q[:0], 0
		} else {
			wait = n.q[n.head].deliver.Sub(now)
			if n.head > len(n.q)/2 { // amortized: move the tail down
				k := copy(n.q, n.q[n.head:])
				clear(n.q[k:])
				n.q, n.head = n.q[:k], 0
			}
		}
		n.qmu.Unlock()

		for i := range due {
			e := &due[i]
			e.dst.Serve(e.from, e.method, e.payload, e.reply)
			*e = envelope{}
		}
		if len(due) > 0 {
			// More may have come due while the handlers ran.
			due = due[:0]
			continue
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

// Endpoint is one node's attachment to the fabric. Its handler table is
// the embedded transport.Handlers: two-sided handlers run inline on the
// dispatcher (preserving per-link ordering of handler starts; handlers
// that need concurrency hand off to their own goroutines or lanes), or
// on the sender's goroutine for a node's request to itself, and
// one-sided handlers on the ringing caller's goroutine (onesided.go).
type Endpoint struct {
	transport.Handlers
	id  NodeID
	net *Network
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() NodeID { return e.id }

// Stats returns the fabric-wide traffic counters (shared by every
// endpoint of this Network).
func (e *Endpoint) Stats() *Stats { return &e.net.stats }

// Closed returns a channel that is closed when the fabric shuts down.
// Long waits that are completed by one-way messages (ack countdowns)
// select on it so a teardown racing in-flight work fails the wait with
// transport.ErrClosed instead of hanging, as a pending Call does.
func (e *Endpoint) Closed() <-chan struct{} { return e.net.done }

// post delivers a request from e to node to: served at once on this
// goroutine when to is e itself, else queued for the dispatcher, one
// message, Latency from now.
func (e *Endpoint) post(to NodeID, method string, payload []byte, reply func([]byte, error)) error {
	n := e.net
	select {
	case <-n.done:
		return transport.ErrClosed
	default:
	}
	if to == e.id {
		e.Serve(e.id, method, payload, reply)
		return nil
	}
	dst, ok := n.endpoint(to)
	if !ok {
		return fmt.Errorf("%w: %d", transport.ErrNoSuchNode, to)
	}
	n.qmu.Lock()
	n.q = append(n.q, envelope{deliver: time.Now().Add(n.cfg.Latency), dst: dst, from: e.id, method: method, payload: payload, reply: reply})
	n.qmu.Unlock()
	// Wake the dispatcher; a pending nudge already covers us.
	select {
	case n.nudge <- struct{}{}:
	default:
	}
	n.stats.MessagesSent.Add(1)
	n.stats.BytesSent.Add(uint64(len(payload)))
	return nil
}

// call is one in-flight Call. The pool binds its reply once, so serving
// a call allocates nothing; a call the fabric's close abandoned is never
// recycled, so a late reply cannot land in a reuse.
type call struct {
	net    *Network
	method string
	self   bool // served on the caller's node: no response message
	ch     chan rpcResult
	reply  func([]byte, error)
}

type rpcResult struct {
	payload []byte
	err     error
	// at is the simulated arrival time of the response; Call sleeps out
	// any residual so callers observe a full round trip even though the
	// result is handed over directly (see respond).
	at time.Time
}

var callPool = sync.Pool{New: func() any {
	c := &call{ch: make(chan rpcResult, 1)}
	c.reply = c.respond
	return c
}}

// respond hands the response directly to the caller, stamped with its
// simulated arrival time. Responses never ride the queue: each is
// independent, so per-link FIFO — which the replication protocol needs
// for *requests* — buys nothing here, and skipping the return trip
// through the dispatcher halves the scheduling cost of every round trip.
func (c *call) respond(resp []byte, err error) {
	res := rpcResult{payload: resp}
	if err != nil {
		res = rpcResult{err: &transport.RemoteError{Method: c.method, Msg: err.Error()}}
	}
	if !c.self {
		st := &c.net.stats
		st.MessagesSent.Add(1)
		st.BytesSent.Add(uint64(len(resp)))
		res.at = time.Now().Add(c.net.cfg.Latency)
	}
	c.ch <- res
}

// Call performs a synchronous RPC to node `to`, blocking through one
// network round trip (two one-way latencies). A fabric that closes
// first fails it with transport.ErrClosed.
func (e *Endpoint) Call(to NodeID, method string, req []byte) ([]byte, error) {
	c := callPool.Get().(*call)
	c.net, c.method, c.self = e.net, method, to == e.id
	if err := e.post(to, method, req, c.reply); err != nil {
		callPool.Put(c)
		return nil, err
	}
	e.net.stats.RPCs.Add(1)
	var res rpcResult
	select {
	case res = <-c.ch:
		callPool.Put(c)
	case <-e.net.done:
		return nil, transport.ErrClosed
	}
	if d := time.Until(res.at); d > 0 {
		time.Sleep(d)
	}
	return res.payload, res.err
}

// Send delivers a one-way message (no response) to node `to`. Used by the
// inner-region replication stream, where the primary must not wait.
func (e *Endpoint) Send(to NodeID, method string, payload []byte) error {
	return e.post(to, method, payload, transport.NoReply)
}
