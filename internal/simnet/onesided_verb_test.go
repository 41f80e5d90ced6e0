package simnet

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

func TestGoOneSidedRoundTrip(t *testing.T) {
	const lat = 200 * time.Microsecond
	net := New(Config{Latency: lat})
	defer net.Close()
	a, b := net.Endpoint(1), net.Endpoint(2)

	var from atomic.Int32
	b.HandleOneSided("echo", func(f NodeID, req []byte) ([]byte, error) {
		from.Store(int32(f))
		out := append([]byte("re:"), req...)
		return out, nil
	})

	start := time.Now()
	resp, err := a.CallOneSided(2, "echo", []byte("ping"), 3)
	rtt := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:ping" {
		t.Fatalf("resp = %q", resp)
	}
	if from.Load() != 1 {
		t.Fatalf("handler saw caller %d", from.Load())
	}
	if rtt < 2*lat {
		t.Fatalf("round trip %v, want >= %v", rtt, 2*lat)
	}
	st := net.Stats()
	if st.Doorbells.Load() != 1 {
		t.Fatalf("Doorbells = %d", st.Doorbells.Load())
	}
	if st.OneSidedVerbs.Load() != 3 {
		t.Fatalf("OneSidedVerbs = %d", st.OneSidedVerbs.Load())
	}
}

// Several doorbells to different nodes must overlap: the total wall time
// for k concurrent rings is one round trip, not k.
func TestGoOneSidedOverlaps(t *testing.T) {
	const lat = 300 * time.Microsecond
	net := New(Config{Latency: lat})
	defer net.Close()
	a := net.Endpoint(0)
	for id := NodeID(1); id <= 4; id++ {
		net.Endpoint(id).HandleOneSided("nop", func(NodeID, []byte) ([]byte, error) {
			return nil, nil
		})
	}
	start := time.Now()
	var pending []transport.Pending
	for id := NodeID(1); id <= 4; id++ {
		p, err := a.GoOneSided(id, "nop", nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el > 4*2*lat {
		t.Fatalf("4 doorbells took %v — not overlapped (one RTT is %v)", el, 2*lat)
	}
}

func TestGoOneSidedErrors(t *testing.T) {
	net := New(Config{})
	a := net.Endpoint(1)
	net.Endpoint(2)

	if _, err := a.GoOneSided(9, "x", nil, 1); !errors.Is(err, transport.ErrNoSuchNode) {
		t.Fatalf("unknown node: %v", err)
	}
	if _, err := a.CallOneSided(2, "missing", nil, 1); !errors.Is(err, transport.ErrNoSuchMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	net.Close()
	if _, err := a.GoOneSided(2, "x", nil, 1); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("closed fabric: %v", err)
	}
}
