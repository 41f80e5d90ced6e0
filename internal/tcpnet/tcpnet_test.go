package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/wire"
)

// pair builds a two-node loopback cluster and wires the peer maps.
func pair(t *testing.T) (*Fabric, *Fabric) {
	t.Helper()
	a, err := New(Config{ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{ID: 1})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeers(map[transport.NodeID]string{1: b.Addr()})
	b.SetPeers(map[transport.NodeID]string{0: a.Addr()})
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestCallRoundTrip(t *testing.T) {
	a, b := pair(t)
	b.Handle("echo", func(from transport.NodeID, req []byte) ([]byte, error) {
		if from != 0 {
			return nil, fmt.Errorf("from = %d, want 0", from)
		}
		return append([]byte("re:"), req...), nil
	})
	resp, err := a.Call(1, "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:ping" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestAsyncHandlerAndConcurrentCalls(t *testing.T) {
	a, b := pair(t)
	b.HandleAsync("slowdouble", func(from transport.NodeID, req []byte, reply func([]byte, error)) {
		go func() {
			time.Sleep(time.Millisecond)
			reply([]byte{req[0] * 2}, nil)
		}()
	})
	const fan = 32
	errs := make(chan error, fan)
	for i := 0; i < fan; i++ {
		go func() {
			resp, err := a.Call(1, "slowdouble", []byte{byte(i)})
			if err == nil && resp[0] != byte(i*2) {
				err = fmt.Errorf("call %d: got %d", i, resp[0])
			}
			errs <- err
		}()
	}
	for range fan {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteError(t *testing.T) {
	a, b := pair(t)
	b.Handle("fail", func(transport.NodeID, []byte) ([]byte, error) {
		return nil, errors.New("application refused")
	})
	_, err := a.Call(1, "fail", nil)
	var re *transport.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Method != "fail" {
		t.Fatalf("method = %q", re.Method)
	}
	// A missing method is also a remote error, not a transport failure.
	if _, err := a.Call(1, "nope", nil); err == nil || errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("missing method: got %v", err)
	}
}

func TestSendFIFO(t *testing.T) {
	a, b := pair(t)
	const n = 200
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	b.Handle("seq", func(_ transport.NodeID, req []byte) ([]byte, error) {
		mu.Lock()
		got = append(got, int(req[0])<<8|int(req[1]))
		full := len(got) == n
		mu.Unlock()
		if full {
			close(done)
		}
		return nil, nil
	})
	for i := 0; i < n; i++ {
		if err := a.Send(1, "seq", []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for sends")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("send %d arrived out of order (got %d)", i, v)
		}
	}
}

// The reader frames the byte stream, not the reads: several frames in one
// Write and a frame trickled in a byte at a time each start their
// handler exactly once, in order.
func TestReaderFramesTheStream(t *testing.T) {
	_, b := pair(t)
	var mu sync.Mutex
	var got []byte
	b.Handle("seq", func(_ transport.NodeID, req []byte) ([]byte, error) {
		mu.Lock()
		got = append(got, req[0])
		mu.Unlock()
		return nil, nil
	})
	frame := func(kind uint8, seq byte) []byte {
		w := wire.NewWriter(64)
		w.Uint32(0)
		w.Uint8(kind)
		w.Uint64(uint64(seq))
		w.Uint32(0)
		w.String("seq")
		w.String("")
		w.Bytes32([]byte{seq})
		w.SetUint32(0, uint32(w.Len()-4))
		return w.Bytes()
	}
	nc, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var burst []byte
	for seq := byte(0); seq < 3; seq++ {
		burst = append(burst, frame(kindOneWay, seq)...)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for _, c := range frame(kindOneWay, 3) {
		if _, err := nc.Write([]byte{c}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond) // one segment per byte
	}
	// The last frame is a call: its response means every earlier
	// frame's handler has run (per-link FIFO, handlers inline).
	if _, err := nc.Write(frame(kindRequest, 4)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var lenBuf [4]byte
	if _, err := io.ReadFull(nc, lenBuf[:]); err != nil {
		t.Fatalf("no response to the closing call: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if string(got) != "\x00\x01\x02\x03\x04" {
		t.Fatalf("handler starts %v, want [0 1 2 3 4]", got)
	}
}

// One ring is one doorbell, counted where it was rung — so a cluster's
// summed stats read the same over loopback TCP as over simfab, whose
// endpoints share one Stats.
func TestDoorbell(t *testing.T) {
	a, b := pair(t)
	sim := simfab.New(simfab.Config{})
	defer sim.Close()
	for name, c := range map[string]struct {
		ringer, dest transport.Endpoint
	}{
		"tcpnet": {a, b},
		"simfab": {sim.Endpoint(0), sim.Endpoint(1)},
	} {
		c.dest.HandleOneSided("bell", func(from transport.NodeID, req []byte) ([]byte, error) {
			return append([]byte("rung:"), req...), nil
		})
		p, err := c.ringer.GoOneSided(1, "bell", []byte("x3"), 3)
		if err != nil {
			t.Fatal(name, err)
		}
		resp, err := p.Wait()
		if err != nil {
			t.Fatal(name, err)
		}
		if string(resp) != "rung:x3" {
			t.Fatalf("%s: resp = %q", name, resp)
		}
		var doorbells, verbs uint64
		seen := map[*transport.Stats]bool{}
		for _, ep := range []transport.Endpoint{c.ringer, c.dest} {
			if st := ep.Stats(); !seen[st] {
				seen[st] = true
				doorbells += st.Doorbells.Load()
				verbs += st.OneSidedVerbs.Load()
			}
		}
		if doorbells != 1 || verbs != 3 {
			t.Fatalf("%s: summed stats = %d doorbells / %d verbs, want 1 / 3", name, doorbells, verbs)
		}
	}
}

func TestSelfDispatch(t *testing.T) {
	a, _ := pair(t)
	a.Handle("local", func(from transport.NodeID, req []byte) ([]byte, error) {
		return []byte{req[0] + 1}, nil
	})
	a.HandleOneSided("localbell", func(from transport.NodeID, req []byte) ([]byte, error) {
		return []byte{req[0] + 2}, nil
	})
	if resp, err := a.Call(0, "local", []byte{5}); err != nil || resp[0] != 6 {
		t.Fatalf("self call: %v %v", resp, err)
	}
	if resp, err := a.CallOneSided(0, "localbell", []byte{5}, 1); err != nil || resp[0] != 7 {
		t.Fatalf("self ring: %v %v", resp, err)
	}
}

func TestUnreachable(t *testing.T) {
	a, err := New(Config{ID: 0, DialRetries: 2, DialBackoff: time.Millisecond, DialTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// An unknown node is a config error, not an unreachable one.
	if _, err := a.Call(9, "m", nil); !errors.Is(err, transport.ErrNoSuchNode) {
		t.Fatalf("unknown node: got %v", err)
	}
	// A known peer nobody listens on is unreachable.
	a.SetPeers(map[transport.NodeID]string{1: "127.0.0.1:1"})
	if _, err := a.Call(1, "m", nil); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("dead peer: got %v", err)
	}
}

func TestPeerDeathFailsInFlight(t *testing.T) {
	a, b := pair(t)
	served := make(chan struct{})
	b.HandleAsync("hang", func(_ transport.NodeID, _ []byte, reply func([]byte, error)) {
		// Never reply; the caller must be failed by the broken conn.
		close(served)
	})
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(1, "hang", nil)
		errc <- err
	}()
	<-served
	b.Close()
	if err := <-errc; !errors.Is(err, transport.ErrUnreachable) && !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("want unreachable/closed, got %v", err)
	}
	// The fabric recovers: once the peer is back (new fabric, same
	// role), a fresh dial succeeds.
	b2, err := New(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.Handle("echo", func(_ transport.NodeID, req []byte) ([]byte, error) { return req, nil })
	a.SetPeers(map[transport.NodeID]string{1: b2.Addr()})
	if _, err := a.Call(1, "echo", []byte("back")); err != nil {
		t.Fatalf("redial: %v", err)
	}
}

func TestClosedFabric(t *testing.T) {
	a, _ := pair(t)
	a.Close()
	if _, err := a.Call(1, "m", nil); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("closed fabric: got %v", err)
	}
	select {
	case <-a.Closed():
	default:
		t.Fatal("Closed() channel not closed")
	}
}

// lateListener hands acceptLoop exactly one connection, and only after
// its Close was called and ready() reports true — the deterministic
// stand-in for a peer whose connect lands while Fabric.Close is running.
type lateListener struct {
	conn   net.Conn
	closed chan struct{}
	ready  func() bool
	once   sync.Once
	served bool
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closed
	if l.served {
		return nil, net.ErrClosed
	}
	l.served = true
	for !l.ready() {
		time.Sleep(100 * time.Microsecond)
	}
	return l.conn, nil
}

func (l *lateListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// A connection accepted after Close has snapshotted the live connections
// must be refused and closed, not registered: nobody would ever close
// it, its reader would block forever, and Close would wait on that
// reader forever (the ~1-in-300 TestPeerDeathFailsInFlight hang).
func TestCloseRefusesLateAccept(t *testing.T) {
	testutil.CheckLeaks(t)
	// A live peer connection: its remote end stays open, so only the
	// fabric closing its own end can stop the reader.
	ours, theirs := net.Pipe()
	defer theirs.Close()
	sentinel, sentinelPeer := net.Pipe()
	defer sentinelPeer.Close()

	f := &Fabric{
		cfg:   Config{}.withDefaults(),
		peers: make(map[transport.NodeID]string),
		conns: make(map[transport.NodeID]*conn),
		all:   make(map[*conn]struct{}),
		done:  make(chan struct{}),
	}
	// An already-registered connection marks the snapshot: Close swaps
	// f.all for an empty map when it takes it, so once the marker is gone
	// the late connection is guaranteed to land after the snapshot.
	marker := newConn(f, -1, sentinel)
	f.all[marker] = struct{}{}
	f.ln = &lateListener{
		conn:   ours,
		closed: make(chan struct{}),
		ready: func() bool {
			f.cmu.Lock()
			defer f.cmu.Unlock()
			_, still := f.all[marker]
			return !still
		},
	}
	f.wg.Add(1)
	go f.acceptLoop()

	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung on the reader of a connection accepted after its snapshot")
	}
	// The refused connection was closed by the fabric.
	if _, err := theirs.Write([]byte{0}); err == nil {
		t.Fatal("late connection still open after Close")
	}
}

// A peer no address book names is reachable over the connection it
// dialed: a node can answer a coordinator-only client with sends and
// calls of its own, until that connection is gone.
func TestReverseRouteToAddresslessPeer(t *testing.T) {
	testutil.CheckLeaks(t)
	node, err := New(Config{ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	client, err := New(Config{ID: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetPeers(map[transport.NodeID]string{0: node.Addr()})

	if err := node.Send(7, "ack", nil); !errors.Is(err, transport.ErrNoSuchNode) {
		t.Fatalf("send before the client dialed: %v, want ErrNoSuchNode", err)
	}
	node.Handle("hello", func(transport.NodeID, []byte) ([]byte, error) { return nil, nil })
	acks := make(chan string, 1)
	client.Handle("ack", func(from transport.NodeID, req []byte) ([]byte, error) {
		acks <- fmt.Sprintf("%d:%s", from, req)
		return []byte("got"), nil
	})
	if _, err := client.Call(0, "hello", nil); err != nil {
		t.Fatal(err)
	}
	if err := node.Send(7, "ack", []byte("one-way")); err != nil {
		t.Fatal(err)
	}
	if got := <-acks; got != "0:one-way" {
		t.Fatalf("client received %q", got)
	}
	if resp, err := node.Call(7, "ack", []byte("call")); err != nil || string(resp) != "got" {
		t.Fatalf("call over the reverse route: %q, %v", resp, err)
	}
	<-acks

	client.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := node.Send(7, "ack", nil)
		if errors.Is(err, transport.ErrNoSuchNode) {
			break // the route went with the connection
		}
		if time.Now().After(deadline) {
			t.Fatalf("send after the client left: %v, want ErrNoSuchNode", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// A ring's completion is pooled, as simnet's are: a ring and its wait
// allocate at most 3 times, both ends counted (6 while every ring built
// its completion afresh).
func TestRingAllocations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector's instrumentation allocates")
	}
	a, b := pair(t)
	b.HandleOneSided("bell", func(_ transport.NodeID, req []byte) ([]byte, error) { return req, nil })
	payload := []byte("ring")
	ring := func() {
		p, err := a.GoOneSided(1, "bell", payload, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	ring() // dial
	if got := testing.AllocsPerRun(500, ring); got > 3 {
		t.Errorf("GoOneSided + Wait = %.1f allocations, want at most 3", got)
	}
}

// A broken connection fails every ring in flight on it, each exactly
// once, and leaves no stale result in a pooled completion: the rings
// after it, on a fresh connection, each get their own answer.
func TestBrokenConnFailsEveryRingOnce(t *testing.T) {
	a, b := pair(t)
	entered, block := make(chan struct{}, 1), make(chan struct{})
	b.HandleOneSided("bell", func(_ transport.NodeID, req []byte) ([]byte, error) {
		if req[0] == 0 { // the rings to fail: hold the reader
			select {
			case entered <- struct{}{}:
			default:
			}
			<-block
		}
		return req, nil
	})
	const inFlight = 8
	pends := make([]transport.Pending, inFlight)
	for i := range pends {
		p, err := a.GoOneSided(1, "bell", []byte{0}, 1)
		if err != nil {
			t.Fatal(err)
		}
		pends[i] = p
	}
	<-entered
	a.cmu.Lock()
	c := a.conns[1]
	a.cmu.Unlock()
	c.nc.Close()
	for i, p := range pends {
		if _, err := p.Wait(); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("in-flight ring %d: err = %v, want unreachable", i, err)
		}
	}
	close(block)
	for i := 1; i <= 4*inFlight; i++ {
		resp, err := a.CallOneSided(1, "bell", []byte{byte(i)}, 1)
		if err != nil || len(resp) != 1 || resp[0] != byte(i) {
			t.Fatalf("ring %d after the break: %v, %v", i, resp, err)
		}
	}
}
