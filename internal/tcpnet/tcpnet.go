// Package tcpnet implements the transport contract over real sockets:
// length-prefixed wire frames on persistent per-link TCP connections,
// one OS process per node. It is the multi-process fabric behind
// `chiller-node` and `chiller-bench -transport=tcp`; internal/simnet
// remains the deterministic-testing backend.
//
// # Topology and connections
//
// Every node runs one Fabric: a listener plus a lazily-dialed outbound
// connection per peer. A directed link (A→B requests) is one TCP
// connection dialed by A; B writes responses and doorbell completions
// back on that same connection, and B's own requests to A ride B's
// separate outbound connection. Each fabric therefore holds at most one
// outbound and one inbound connection per peer, and per-link FIFO of
// request handler starts — the ordering the §5 inner replication stream
// needs — falls out of TCP's byte ordering plus the receiver invoking
// handlers inline on the connection's reader goroutine.
//
// A peer no address book names (a coordinator-only client joins no
// layout) is reachable from every node it has dialed: sends to it ride
// the connection it opened, the reverse route.
//
// # Doorbells
//
// The doorbell envelope (internal/wire Frame/FrameResult, built by
// internal/server's Doorbell) crosses the socket verbatim: one frame
// out, one completion back, however many verbs the batch carries — the
// round-trip amortization survives the transport swap. What does NOT
// survive is simnet's ring-time servicing on the caller's goroutine:
// TCP has no remote-memory primitive, so the destination services the
// envelope on its receive path (still bypassing its dispatcher and
// execution lanes). See docs/NETWORK.md for the semantic comparison.
//
// # Failure semantics
//
// Dial failures (after retry with backoff) and broken connections
// surface as errors wrapping transport.ErrUnreachable, which
// internal/server maps to txn.AbortUnreachable — the same retryable
// taxonomy as simnet's injected drops. Unlike simnet, a send that fails
// mid-connection cannot guarantee the request had no remote effect (the
// kernel may have delivered bytes before the reset); tcpnet is
// at-most-once per request, and the engines' recovery path (abort and
// retry with a fresh transaction) tolerates that window.
package tcpnet

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/wire"
)

// Frame kinds on the socket.
const (
	kindRequest    uint8 = iota + 1 // two-sided request, expects kindResponse
	kindResponse                    // completes a kindRequest by rpcID
	kindOneWay                      // fire-and-forget (Send)
	kindRing                        // doorbell ring, expects kindCompletion
	kindCompletion                  // completes a kindRing by rpcID
)

// maxFrame bounds a single frame; a peer announcing more is corrupt.
const maxFrame = 64 << 20

// Config sizes one node's fabric attachment.
type Config struct {
	// ID is this node's identity in the cluster.
	ID transport.NodeID
	// ListenAddr is the TCP address to listen on. "127.0.0.1:0" picks a
	// free port (read it back with Addr) — the loopback-cluster tests
	// and the in-process bench harness rely on that.
	ListenAddr string
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// DialRetries is how many attempts are made before a peer is
	// declared unreachable (default 8). Retries cover the startup race
	// where a cluster's processes come up in arbitrary order.
	DialRetries int
	// DialBackoff is the initial inter-attempt backoff, doubled per
	// retry (default 25ms).
	DialBackoff time.Duration
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.DialRetries <= 0 {
		c.DialRetries = 8
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 25 * time.Millisecond
	}
	return c
}

// Fabric is one node's attachment to the TCP cluster. It implements
// transport.Endpoint.
type Fabric struct {
	cfg   Config
	id    transport.NodeID
	ln    net.Listener
	stats transport.Stats

	hmu      sync.RWMutex
	handlers map[string]transport.RPCHandler
	async    map[string]transport.AsyncRPCHandler
	onesided map[string]transport.OneSidedHandler

	pmu   sync.RWMutex
	peers map[transport.NodeID]string

	cmu   sync.Mutex
	conns map[transport.NodeID]*conn // outbound, lazily dialed (or a reverse route, see readLoop)
	all   map[*conn]struct{}         // every live conn, inbound included

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New opens the fabric: it binds the listener immediately (so Addr is
// valid and peers can connect) but dials nobody until traffic demands
// it. Call SetPeers before sending.
func New(cfg Config) (*Fabric, error) {
	cfg = cfg.withDefaults()
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	f := &Fabric{
		cfg:      cfg,
		id:       cfg.ID,
		ln:       ln,
		handlers: make(map[string]transport.RPCHandler),
		peers:    make(map[transport.NodeID]string),
		conns:    make(map[transport.NodeID]*conn),
		all:      make(map[*conn]struct{}),
		done:     make(chan struct{}),
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the listener's resolved address (useful with ":0").
func (f *Fabric) Addr() string { return f.ln.Addr().String() }

// SetPeers installs the node-ID→address map this fabric dials by.
// Peers may be set (or replaced) any time before the first send to the
// node in question; the fabric's own ID needs no entry.
func (f *Fabric) SetPeers(peers map[transport.NodeID]string) {
	f.pmu.Lock()
	defer f.pmu.Unlock()
	for id, addr := range peers {
		f.peers[id] = addr
	}
}

// Peers returns a copy of the current node-ID→address map. Together
// with SetPeers it satisfies server.PeerDirectory, which is how
// membership changes propagate the address book between processes.
func (f *Fabric) Peers() map[transport.NodeID]string {
	f.pmu.RLock()
	defer f.pmu.RUnlock()
	out := make(map[transport.NodeID]string, len(f.peers))
	for id, addr := range f.peers {
		out[id] = addr
	}
	return out
}

// ID returns this node's identity.
func (f *Fabric) ID() transport.NodeID { return f.id }

// Closed returns a channel closed when the fabric shuts down.
func (f *Fabric) Closed() <-chan struct{} { return f.done }

// Stats returns this fabric's traffic counters.
func (f *Fabric) Stats() *transport.Stats { return &f.stats }

// Close tears the fabric down: the listener stops, every connection is
// closed, and outstanding calls fail with transport.ErrClosed.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		close(f.done)
		f.ln.Close()
		f.cmu.Lock()
		conns := make([]*conn, 0, len(f.all))
		for c := range f.all {
			conns = append(conns, c)
		}
		f.conns = make(map[transport.NodeID]*conn)
		f.all = make(map[*conn]struct{})
		f.cmu.Unlock()
		for _, c := range conns {
			c.fail(transport.ErrClosed)
		}
		f.wg.Wait()
	})
}

// Handle registers h for two-sided method.
func (f *Fabric) Handle(method string, h transport.RPCHandler) {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	f.handlers[method] = h
}

// HandleAsync registers an asynchronous two-sided handler.
func (f *Fabric) HandleAsync(method string, h transport.AsyncRPCHandler) {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	if f.async == nil {
		f.async = make(map[string]transport.AsyncRPCHandler)
	}
	f.async[method] = h
}

// HandleOneSided registers h to service the named doorbell verb.
func (f *Fabric) HandleOneSided(method string, h transport.OneSidedHandler) {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	if f.onesided == nil {
		f.onesided = make(map[string]transport.OneSidedHandler)
	}
	f.onesided[method] = h
}

// result completes one in-flight call.
type result struct {
	payload []byte
	err     error
}

// tcpCall is an in-flight two-sided call. Unlike simnet there is no
// simulated-latency residual to sleep out: Wait blocks on the wire.
type tcpCall struct{ ch chan result }

func newCall() *tcpCall { return &tcpCall{ch: make(chan result, 1)} }

// Wait blocks until the response or failure arrives.
func (c *tcpCall) Wait() ([]byte, error) {
	res := <-c.ch
	return res.payload, res.err
}

// tcpPending is an in-flight doorbell ring; Wait and Reap are the same
// operation on a real network (nothing to skip).
type tcpPending struct{ ch chan result }

// Wait blocks until the completion arrives.
func (p *tcpPending) Wait() ([]byte, error) {
	res := <-p.ch
	return res.payload, res.err
}

// Reap is Wait: the wire owes us a completion either way.
func (p *tcpPending) Reap() ([]byte, error) { return p.Wait() }

// Call performs a synchronous two-sided call.
func (f *Fabric) Call(to transport.NodeID, method string, req []byte) ([]byte, error) {
	c, err := f.Go(to, method, req)
	if err != nil {
		return nil, err
	}
	return c.Wait()
}

// Go starts an asynchronous two-sided call.
func (f *Fabric) Go(to transport.NodeID, method string, req []byte) (transport.Call, error) {
	call := newCall()
	if to == f.id {
		f.stats.RPCs.Add(1)
		f.serveLocal(method, req, func(resp []byte, err error) {
			call.ch <- result{payload: resp, err: err}
		})
		return call, nil
	}
	c, err := f.getConn(to)
	if err != nil {
		return nil, err
	}
	id := c.register(call.ch)
	if err := c.writeFrame(kindRequest, id, f.id, method, "", req); err != nil {
		c.unregister(id)
		return nil, err
	}
	f.stats.RPCs.Add(1)
	return call, nil
}

// Send delivers a one-way message (no response).
func (f *Fabric) Send(to transport.NodeID, method string, payload []byte) error {
	if to == f.id {
		f.serveLocal(method, payload, func([]byte, error) {})
		return nil
	}
	c, err := f.getConn(to)
	if err != nil {
		return err
	}
	return c.writeFrame(kindOneWay, 0, f.id, method, "", payload)
}

// GoOneSided rings a doorbell against node to. The envelope is carried
// opaquely and serviced by the destination's receive path; verbs is the
// batch size, counted for the batching-factor stats at this (the
// ringing) end.
func (f *Fabric) GoOneSided(to transport.NodeID, method string, payload []byte, verbs int) (transport.Pending, error) {
	if verbs < 1 {
		verbs = 1
	}
	p := &tcpPending{ch: make(chan result, 1)}
	if to == f.id {
		f.stats.Doorbells.Add(1)
		f.stats.OneSidedVerbs.Add(uint64(verbs))
		payload2, err := f.serveOneSided(f.id, method, payload)
		p.ch <- result{payload: payload2, err: err}
		return p, nil
	}
	c, err := f.getConn(to)
	if err != nil {
		return nil, err
	}
	id := c.register(p.ch)
	if err := c.writeFrame(kindRing, id, f.id, method, "", payload); err != nil {
		c.unregister(id)
		return nil, err
	}
	f.stats.Doorbells.Add(1)
	f.stats.OneSidedVerbs.Add(uint64(verbs))
	return p, nil
}

// CallOneSided is GoOneSided followed by Wait.
func (f *Fabric) CallOneSided(to transport.NodeID, method string, payload []byte, verbs int) ([]byte, error) {
	p, err := f.GoOneSided(to, method, payload, verbs)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// serveLocal runs a two-sided handler for a self-addressed message.
func (f *Fabric) serveLocal(method string, req []byte, reply func([]byte, error)) {
	f.hmu.RLock()
	h, ok := f.handlers[method]
	var ah transport.AsyncRPCHandler
	if !ok && f.async != nil {
		ah, ok = f.async[method]
	}
	f.hmu.RUnlock()
	switch {
	case ah != nil:
		ah(f.id, req, reply)
	case ok:
		resp, err := h(f.id, req)
		reply(resp, err)
	default:
		reply(nil, fmt.Errorf("%w: %s", transport.ErrNoSuchMethod, method))
	}
}

// serveOneSided runs a doorbell handler.
func (f *Fabric) serveOneSided(from transport.NodeID, method string, payload []byte) ([]byte, error) {
	f.hmu.RLock()
	h := f.onesided[method]
	f.hmu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: one-sided %s", transport.ErrNoSuchMethod, method)
	}
	return h(from, payload)
}

// getConn returns (dialing if necessary) the outbound connection to a
// peer.
func (f *Fabric) getConn(to transport.NodeID) (*conn, error) {
	select {
	case <-f.done:
		return nil, transport.ErrClosed
	default:
	}
	f.cmu.Lock()
	if c, ok := f.conns[to]; ok && !c.dead.Load() {
		f.cmu.Unlock()
		return c, nil
	}
	f.cmu.Unlock()

	f.pmu.RLock()
	addr, ok := f.peers[to]
	f.pmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", transport.ErrNoSuchNode, to)
	}
	nc, err := f.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: node %d (%s): %v", transport.ErrUnreachable, to, addr, err)
	}

	c := newConn(f, to, nc)
	f.cmu.Lock()
	if prev, ok := f.conns[to]; ok && !prev.dead.Load() {
		// Lost a dial race; use the winner.
		f.cmu.Unlock()
		nc.Close()
		return prev, nil
	}
	if !f.track(c) {
		f.cmu.Unlock()
		return nil, transport.ErrClosed
	}
	f.conns[to] = c
	f.cmu.Unlock()
	go c.readLoop()
	return c, nil
}

// track registers a new connection and accounts for its reader
// goroutine, unless the fabric is closing — then it closes the
// connection and reports false. Caller holds cmu. Close closes f.done
// before it takes cmu to snapshot f.all, so a connection either is
// registered before the snapshot (and Close fails it) or sees done
// closed here; without the check a connection accepted or dialed in
// between would be one whose reader nobody ever stops, and Close would
// wait on it forever.
func (f *Fabric) track(c *conn) bool {
	select {
	case <-f.done:
		c.nc.Close()
		return false
	default:
	}
	f.all[c] = struct{}{}
	f.wg.Add(1)
	return true
}

// dial attempts the connection with retry and exponential backoff; the
// final failure is reported to the caller, who wraps ErrUnreachable.
func (f *Fabric) dial(addr string) (net.Conn, error) {
	backoff := f.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < f.cfg.DialRetries; attempt++ {
		if attempt > 0 {
			select {
			case <-f.done:
				return nil, transport.ErrClosed
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		nc, err := net.DialTimeout("tcp", addr, f.cfg.DialTimeout)
		if err == nil {
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return nc, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// acceptLoop serves inbound connections until the listener closes.
func (f *Fabric) acceptLoop() {
	defer f.wg.Done()
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := newConn(f, -1, nc)
		f.cmu.Lock()
		ok := f.track(c)
		f.cmu.Unlock()
		if ok {
			go c.readLoop()
		}
	}
}

// conn is one TCP connection: outbound (we dialed it, we issue requests
// and track their completions) or inbound (a peer dialed us, we serve
// its requests and write responses back). The write path is serialized
// by wmu; each frame is encoded into the connection's writer buffer and
// shipped with one Write call.
type conn struct {
	fab  *Fabric
	peer transport.NodeID // -1 for inbound conns
	nc   net.Conn
	dead atomic.Bool

	wmu  sync.Mutex
	wbuf *wire.Writer

	cmu     sync.Mutex
	pending map[uint64]chan result
	seq     uint64
}

func newConn(f *Fabric, peer transport.NodeID, nc net.Conn) *conn {
	return &conn{
		fab:     f,
		peer:    peer,
		nc:      nc,
		wbuf:    wire.NewWriter(4096),
		pending: make(map[uint64]chan result),
	}
}

// register allocates an rpc ID for a completion channel.
func (c *conn) register(ch chan result) uint64 {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	c.seq++
	id := c.seq
	c.pending[id] = ch
	return id
}

func (c *conn) unregister(id uint64) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	delete(c.pending, id)
}

// complete delivers a response to the in-flight call with this ID.
func (c *conn) complete(id uint64, res result) {
	c.cmu.Lock()
	ch, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.cmu.Unlock()
	if ok {
		ch <- res
	}
}

// fail closes the connection and fails every in-flight call with err.
func (c *conn) fail(err error) {
	if c.dead.Swap(true) {
		return
	}
	c.nc.Close()
	c.cmu.Lock()
	pend := c.pending
	c.pending = make(map[uint64]chan result)
	c.cmu.Unlock()
	for _, ch := range pend {
		ch <- result{err: err}
	}
}

// broken fails the conn with an unreachable-classified error and
// removes it from the fabric's outbound map so the next send re-dials.
func (c *conn) broken(cause error) {
	select {
	case <-c.fab.done:
		c.fail(transport.ErrClosed)
		return
	default:
	}
	c.fail(fmt.Errorf("%w: node %d: connection failed: %v", transport.ErrUnreachable, c.peer, cause))
	c.fab.cmu.Lock()
	if c.peer >= 0 && c.fab.conns[c.peer] == c {
		delete(c.fab.conns, c.peer)
	}
	delete(c.fab.all, c)
	c.fab.cmu.Unlock()
}

// writeFrame encodes and ships one frame:
//
//	u32 length | u8 kind | u64 rpcID | u32 from | method string |
//	err string | payload bytes32
func (c *conn) writeFrame(kind uint8, rpcID uint64, from transport.NodeID, method, errStr string, payload []byte) error {
	if c.dead.Load() {
		return fmt.Errorf("%w: node %d: connection down", transport.ErrUnreachable, c.peer)
	}
	c.wmu.Lock()
	w := c.wbuf
	w.Reset()
	w.Uint32(0) // length backpatched below
	w.Uint8(kind)
	w.Uint64(rpcID)
	w.Uint32(uint32(from))
	w.String(method)
	w.String(errStr)
	w.Bytes32(payload)
	w.SetUint32(0, uint32(w.Len()-4))
	_, err := c.nc.Write(w.Bytes())
	c.wmu.Unlock()
	if err != nil {
		c.broken(err)
		return fmt.Errorf("%w: node %d: write failed: %v", transport.ErrUnreachable, c.peer, err)
	}
	st := &c.fab.stats
	st.MessagesSent.Add(1)
	st.BytesSent.Add(uint64(len(payload)))
	return nil
}

// readLoop drains the connection, invoking request handlers inline (in
// frame order — the per-link FIFO guarantee) and completing in-flight
// calls for response frames.
func (c *conn) readLoop() {
	defer c.fab.wg.Done()
	var lenBuf [4]byte
	var buf []byte
	routed := c.peer >= 0
	for {
		if _, err := io.ReadFull(c.nc, lenBuf[:]); err != nil {
			c.broken(err)
			return
		}
		n := uint32(lenBuf[0]) | uint32(lenBuf[1])<<8 | uint32(lenBuf[2])<<16 | uint32(lenBuf[3])<<24
		if n > maxFrame {
			c.broken(fmt.Errorf("frame length %d exceeds limit", n))
			return
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(c.nc, buf); err != nil {
			c.broken(err)
			return
		}
		r := wire.NewReader(buf)
		kind := r.Uint8()
		rpcID := r.Uint64()
		from := transport.NodeID(r.Uint32())
		method := r.String()
		errStr := r.String()
		payload := r.Bytes32()
		if r.Err() != nil {
			c.broken(fmt.Errorf("corrupt frame: %v", r.Err()))
			return
		}
		if !routed { // the route back to a dialer no address book names
			routed = true
			c.fab.pmu.RLock()
			_, known := c.fab.peers[from]
			c.fab.pmu.RUnlock()
			if !known {
				c.fab.cmu.Lock()
				c.fab.conns[from] = c
				c.fab.cmu.Unlock()
			}
		}
		switch kind {
		case kindRequest:
			// Handlers own their payload past the handler return (lane
			// submission, async replies), and buf is reused for the next
			// frame: copy out.
			req := append([]byte(nil), payload...)
			c.fab.serveLocalFrom(from, method, req, func(resp []byte, err error) {
				errs := ""
				if err != nil {
					errs = err.Error()
				}
				c.writeFrame(kindResponse, rpcID, c.fab.id, method, errs, resp)
			})
		case kindOneWay:
			req := append([]byte(nil), payload...)
			c.fab.serveLocalFrom(from, method, req, func([]byte, error) {})
		case kindRing:
			// Doorbells/OneSidedVerbs count rings, at the ringer only
			// (GoOneSided): counting the arrival too would make a loopback
			// cluster's summed stats read double simnet's.
			resp, err := c.fab.serveOneSided(from, method, payload)
			errs := ""
			if err != nil {
				errs = err.Error()
			}
			c.writeFrame(kindCompletion, rpcID, c.fab.id, method, errs, resp)
		case kindResponse, kindCompletion:
			res := result{}
			if errStr != "" {
				res.err = &transport.RemoteError{Method: method, Msg: errStr}
			} else {
				res.payload = append([]byte(nil), payload...)
			}
			c.complete(rpcID, res)
		default:
			c.broken(fmt.Errorf("unknown frame kind %d", kind))
			return
		}
	}
}

// serveLocalFrom runs a two-sided handler for a remote request.
func (f *Fabric) serveLocalFrom(from transport.NodeID, method string, req []byte, reply func([]byte, error)) {
	f.hmu.RLock()
	h, ok := f.handlers[method]
	var ah transport.AsyncRPCHandler
	if !ok && f.async != nil {
		ah, ok = f.async[method]
	}
	f.hmu.RUnlock()
	switch {
	case ah != nil:
		ah(from, req, reply)
	case ok:
		resp, err := h(from, req)
		reply(resp, err)
	default:
		reply(nil, fmt.Errorf("no such method: %s", method))
	}
}
