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
//   - Two-sided RPC (Call/Send): messages traverse a per-link FIFO
//     queue drained by a single dispatcher goroutine, and handlers run at
//     the destination — on its dispatcher or its execution lanes. This is
//     the path for what must observe per-link ordering (the §5
//     replication stream) or run real destination-side logic
//     (transaction routing, the handoff control plane).
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
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

// NodeID identifies a machine in the simulated cluster. It is the
// shared transport identity; simnet re-exports it so the fabric's own
// tests and the simfab adapter read naturally.
type NodeID = transport.NodeID

// Config controls the fabric's timing model. A node messaging itself
// takes the loopback shortcut: no Latency (Jitter still applies to its
// two-sided sends). Link queues are unbounded.
type Config struct {
	// Latency is the one-way delay for messages between distinct nodes.
	// With RDMA this is on the order of 1-3us; classic TCP is 30-100us.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Seed seeds the jitter source; 0 means a fixed default so runs are
	// reproducible unless the caller opts into variation.
	Seed int64
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
}

type linkKey struct{ from, to NodeID }

// New creates a fabric with the given timing configuration.
func New(cfg Config) *Network {
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

// Close tears the fabric down. Outstanding calls fail with
// transport.ErrClosed.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()

	close(n.done)
	n.wg.Wait()
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

// message is a request on a link. Responses never traverse one (see
// call.respond); reply is where the handler's answer goes: the caller's
// completion for a Call, transport.NoReply for a one-way Send.
type message struct {
	reply   func([]byte, error)
	from    NodeID
	method  string
	payload []byte
}

func (n *Network) getLink(from, to NodeID) (*link, error) {
	key := linkKey{from, to}
	n.mu.RLock()
	l, ok := n.links[key]
	closed := n.closed
	n.mu.RUnlock()
	if closed {
		return nil, transport.ErrClosed
	}
	if ok {
		return l, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
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
					dst.Serve(msg.from, msg.method, msg.payload, msg.reply)
				}
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
		base = 0
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
		return transport.ErrClosed
	default:
	}
	env := envPool.Get().(*envelope)
	env.msg = msg
	env.deliver = time.Now().Add(l.latency())

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

// Endpoint is one node's attachment to the fabric. Its handler table is
// the embedded transport.Handlers: two-sided handlers run inline on the
// dispatcher (preserving per-link ordering of handler starts; handlers
// that need concurrency hand off to their own goroutines or lanes), and
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

// link returns the link to node to, which must exist.
func (e *Endpoint) link(to NodeID) (*link, error) {
	if _, ok := e.net.endpoint(to); !ok {
		return nil, fmt.Errorf("%w: %d", transport.ErrNoSuchNode, to)
	}
	return e.net.getLink(e.id, to)
}

// call is one in-flight Call. The pool binds its reply once, so serving
// a call allocates nothing; a call the fabric's close abandoned is never
// recycled, so a late reply cannot land in a reuse.
type call struct {
	l      *link
	method string
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
// simulated arrival time. Responses never traverse a link: each is
// independent, so per-link FIFO — which the replication protocol needs
// for *requests* — buys nothing here, and skipping the reverse queue
// halves the scheduling cost of every round trip.
func (c *call) respond(resp []byte, err error) {
	st := &c.l.net.stats
	st.MessagesSent.Add(1)
	st.BytesSent.Add(uint64(len(resp)))
	res := rpcResult{payload: resp, at: time.Now().Add(c.l.latency())}
	if err != nil {
		res = rpcResult{err: &transport.RemoteError{Method: c.method, Msg: err.Error()}, at: res.at}
	}
	c.ch <- res
}

// Call performs a synchronous RPC to node `to`, blocking through one
// network round trip (two one-way latencies). A fabric that closes
// first fails it with transport.ErrClosed.
func (e *Endpoint) Call(to NodeID, method string, req []byte) ([]byte, error) {
	l, err := e.link(to)
	if err != nil {
		return nil, err
	}
	c := callPool.Get().(*call)
	c.l, c.method = l, method
	if err := l.send(message{reply: c.reply, from: e.id, method: method, payload: req}); err != nil {
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
	l, err := e.link(to)
	if err != nil {
		return err
	}
	return l.send(message{reply: transport.NoReply, from: e.id, method: method, payload: payload})
}
