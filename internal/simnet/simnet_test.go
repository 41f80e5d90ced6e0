package simnet

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

func TestRPCBasic(t *testing.T) {
	n := New(Config{})
	defer n.Close()

	a := n.Endpoint(1)
	b := n.Endpoint(2)
	b.Handle("echo", func(from NodeID, req []byte) ([]byte, error) {
		if from != 1 {
			t.Errorf("from = %d, want 1", from)
		}
		return append([]byte("re:"), req...), nil
	})

	resp, err := a.Call(2, "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:hi" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestRPCRemoteError(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	b.Handle("fail", func(NodeID, []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	_, err := a.Call(2, "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Msg != "boom" || re.Method != "fail" {
		t.Fatalf("bad remote error: %+v", re)
	}
}

func TestRPCNoSuchMethod(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Endpoint(1)
	n.Endpoint(2)
	_, err := a.Call(2, "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestRPCNoSuchNode(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Endpoint(1)
	_, err := a.Call(99, "echo", nil)
	if !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("want ErrNoSuchNode, got %v", err)
	}
}

func TestLatencyIsApplied(t *testing.T) {
	const lat = 2 * time.Millisecond
	n := New(Config{Latency: lat})
	defer n.Close()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	b.Handle("ping", func(NodeID, []byte) ([]byte, error) { return nil, nil })

	start := time.Now()
	if _, err := a.Call(2, "ping", nil); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 2*lat {
		t.Fatalf("round trip %v, want >= %v (two one-way latencies)", rtt, 2*lat)
	}
}

// FIFO ordering is the load-bearing property for §5 replication: messages
// from one sender to one receiver must arrive in send order even with jitter.
func TestPerLinkFIFOOrdering(t *testing.T) {
	n := New(Config{Latency: 100 * time.Microsecond, Jitter: 500 * time.Microsecond})
	defer n.Close()
	a := n.Endpoint(1)
	b := n.Endpoint(2)

	const count = 200
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	b.Handle("seq", func(_ NodeID, req []byte) ([]byte, error) {
		mu.Lock()
		got = append(got, binary.LittleEndian.Uint64(req))
		if len(got) == count {
			close(done)
		}
		mu.Unlock()
		return nil, nil
	})

	for i := 0; i < count; i++ {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, uint64(i))
		if err := a.Send(2, "seq", buf); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for messages")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message %d arrived with seq %d: FIFO violated", i, v)
		}
	}
}

func TestConcurrentCallsManyNodes(t *testing.T) {
	n := New(Config{Latency: 50 * time.Microsecond})
	defer n.Close()
	const nodes = 8
	eps := make([]*Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		eps[i] = n.Endpoint(NodeID(i))
		eps[i].Handle("inc", func(_ NodeID, req []byte) ([]byte, error) {
			v := binary.LittleEndian.Uint64(req)
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, v+1)
			return out, nil
		})
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					buf := make([]byte, 8)
					binary.LittleEndian.PutUint64(buf, uint64(k))
					resp, err := eps[src].Call(NodeID(dst), "inc", buf)
					if err != nil || binary.LittleEndian.Uint64(resp) != uint64(k+1) {
						failures.Add(1)
						return
					}
				}
			}(i, j)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d call streams failed", failures.Load())
	}
}

func TestAsyncGoFanOut(t *testing.T) {
	n := New(Config{Latency: 200 * time.Microsecond})
	defer n.Close()
	coord := n.Endpoint(0)
	const fan = 5
	for i := 1; i <= fan; i++ {
		ep := n.Endpoint(NodeID(i))
		ep.Handle("work", func(NodeID, []byte) ([]byte, error) {
			return []byte{1}, nil
		})
	}
	start := time.Now()
	calls := make([]transport.Call, 0, fan)
	for i := 1; i <= fan; i++ {
		c, err := coord.Go(NodeID(i), "work", nil)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	for _, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Fanned-out calls overlap: total should be much closer to one RTT
	// than to fan sequential RTTs.
	if elapsed > 3*2*200*time.Microsecond*fan/2 {
		t.Logf("fan-out elapsed %v (informational)", elapsed)
	}
}

func TestCloseFailsPendingRPCs(t *testing.T) {
	n := New(Config{Latency: 50 * time.Millisecond})
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	b.Handle("slow", func(NodeID, []byte) ([]byte, error) { return nil, nil })

	c, err := a.Go(2, "slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	go n.Close()
	_, err = c.Wait()
	if err == nil {
		t.Log("call completed before close; acceptable race")
	} else if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Endpoint(1)
	b := n.Endpoint(2)
	b.Handle("x", func(NodeID, []byte) ([]byte, error) { return nil, nil })
	for i := 0; i < 10; i++ {
		if _, err := a.Call(2, "x", []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Stats().RPCs.Load(); got != 10 {
		t.Fatalf("RPCs = %d, want 10", got)
	}
	if got := n.Stats().MessagesSent.Load(); got < 20 {
		t.Fatalf("MessagesSent = %d, want >= 20", got)
	}
}

func TestSelfCall(t *testing.T) {
	n := New(Config{Latency: time.Millisecond, LocalLatency: 0})
	defer n.Close()
	a := n.Endpoint(1)
	a.Handle("self", func(from NodeID, req []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	start := time.Now()
	resp, err := a.Call(1, "self", nil)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if e := time.Since(start); e > 500*time.Microsecond {
		t.Logf("self call took %v; local latency should be ~0", e)
	}
}
