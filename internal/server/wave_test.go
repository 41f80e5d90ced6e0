package server

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
)

// spyEndpoint wraps the coordinator's endpoint and logs what a wave does
// to the fabric: "ring" per doorbell rung, "wait" per completion
// gathered, "other" for any two-sided traffic.
type spyEndpoint struct {
	transport.Endpoint
	mu       sync.Mutex
	events   []string
	lastRing string // the doorbell envelope verb of the latest ring
	// closeFabric tears the whole cluster's fabric down (idempotent; the
	// cluster's cleanup calls it too).
	closeFabric func()
}

func (s *spyEndpoint) log(ev string) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *spyEndpoint) take() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := strings.Join(s.events, " ")
	s.events = nil
	return out
}

func (s *spyEndpoint) GoOneSided(to transport.NodeID, method string, payload []byte, verbs int) (transport.Pending, error) {
	s.log("ring")
	s.mu.Lock()
	s.lastRing = method
	s.mu.Unlock()
	p, err := s.Endpoint.GoOneSided(to, method, payload, verbs)
	if err != nil {
		return nil, err
	}
	return &spyPending{Pending: p, s: s}, nil
}

func (s *spyEndpoint) Call(to transport.NodeID, method string, req []byte) ([]byte, error) {
	s.log("other")
	return s.Endpoint.Call(to, method, req)
}

func (s *spyEndpoint) Send(to transport.NodeID, method string, payload []byte) error {
	s.log("other")
	return s.Endpoint.Send(to, method, payload)
}

type spyPending struct {
	transport.Pending
	s *spyEndpoint
}

func (p *spyPending) Wait() ([]byte, error) {
	p.s.log("wait")
	return p.Pending.Wait()
}

// waveCluster builds nodes 0..3 on the named fabric, table 1 hash
// partitioned across them at the given replication degree, with keys
// 0..79 loaded everywhere; node 0's endpoint is wrapped in the returned
// spy.
func waveCluster(t *testing.T, fabric string, replication int) ([]*Node, *spyEndpoint) {
	t.Helper()
	const n = 4
	eps := make([]transport.Endpoint, n)
	var closeFabric func()
	switch fabric {
	case "simfab":
		net := simfab.New(simfab.Config{})
		for i := range eps {
			eps[i] = net.Endpoint(simfab.NodeID(i))
		}
		closeFabric = net.Close
	case "tcpnet":
		fabs := make([]*tcpnet.Fabric, n)
		addrs := make(map[transport.NodeID]string, n)
		for i := range fabs {
			f, err := tcpnet.New(tcpnet.Config{ID: transport.NodeID(i)})
			if err != nil {
				t.Fatal(err)
			}
			fabs[i], eps[i] = f, f
			addrs[transport.NodeID(i)] = f.Addr()
		}
		for _, f := range fabs {
			f.SetPeers(addrs)
		}
		closeFabric = func() {
			for _, f := range fabs {
				f.Close()
			}
		}
	}
	spy := &spyEndpoint{Endpoint: eps[0], closeFabric: closeFabric}
	eps[0] = spy
	dir := cluster.NewDirectory(cluster.NewTopology(n, replication), cluster.HashPartitioner{N: n})
	nodes := make([]*Node, n)
	for i := range nodes {
		st := storage.NewStore()
		tbl := st.CreateTable(1, 256)
		for k := storage.Key(0); k < 80; k++ {
			if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = New(eps[i], st, txn.NewRegistry(), dir, cluster.PartitionID(i))
	}
	t.Cleanup(func() {
		closeFabric()
		for _, nd := range nodes {
			nd.Close()
		}
	})
	return nodes, spy
}

func xlock(op int, k storage.Key) LockEntry {
	return LockEntry{OpID: op, Table: 1, Key: k, Mode: storage.LockExclusive, Read: true, MustExist: true}
}

// The wave is the only coordinator fan-out; these are its contracts, on
// both fabrics.
func TestWave(t *testing.T) {
	for _, fabric := range []string{"simfab", "tcpnet"} {
		t.Run(fabric, func(t *testing.T) {
			testutil.CheckLeaks(t)
			nodes, spy := waveCluster(t, fabric, 1)
			coord := nodes[0]
			held := func(n *Node, k storage.Key) bool { return n.Store().Table(1).Bucket(k).Lock.Held() }

			// A conflict in frame i releases exactly frame i's locks: two
			// frames at node 1 (the second one conflicts half way through)
			// and one at node 2 share two doorbells, rung before either
			// completion is gathered.
			k1 := distinctKeys(t, nodes[1], 4)
			k2 := distinctKeys(t, nodes[2], 1)
			if r := nodes[1].LockReadLocal(99, []LockEntry{xlock(0, k1[2])}); !r.OK {
				t.Fatalf("pre-lock: %v", r.Reason)
			}
			w := coord.NewWave()
			fOK := w.LockRead(1, 7, []LockEntry{xlock(0, k1[0])}, nil, nil)
			fConflict := w.LockRead(1, 7, []LockEntry{xlock(1, k1[1]), xlock(2, k1[2])}, nil, nil)
			fOther := w.LockRead(2, 7, []LockEntry{xlock(3, k2[0])}, nil, nil)
			w.Wait()
			if got := spy.take(); got != "ring ring wait wait" {
				t.Fatalf("fabric use = %q, want one doorbell per destination, rung before the gather", got)
			}
			for _, f := range []int{fOK, fOther} {
				if r, err := w.LockResponse(f); err != nil || !r.OK {
					t.Fatalf("frame %d: %+v, %v", f, r, err)
				}
			}
			if r, err := w.LockResponse(fOK); err != nil || r.Reads[0][0] != byte(k1[0]) {
				t.Fatalf("frame %d read: %+v, %v", fOK, r, err)
			}
			if r, err := w.LockResponse(fConflict); err != nil || r.OK || r.Reason != txn.AbortLockConflict {
				t.Fatalf("conflicting frame: %+v, %v", r, err)
			}
			w.Release()
			if !held(nodes[1], k1[0]) || !held(nodes[2], k2[0]) {
				t.Fatal("sibling frame lost its lock")
			}
			if held(nodes[1], k1[1]) {
				t.Fatal("conflicting frame leaked the lock it took before the conflict")
			}
			nodes[1].AbortLocal(99)

			// An abort wave to N participants is one round trip: every ring
			// precedes the first gather.
			coord.AbortAll([]transport.NodeID{1, 2, 3}, 7)
			if got := spy.take(); got != "ring ring ring wait wait wait" {
				t.Fatalf("abort wave fabric use = %q, want three rings then three gathers", got)
			}
			if held(nodes[1], k1[0]) || held(nodes[2], k2[0]) {
				t.Fatal("abort wave left locks behind")
			}

			// A local target never touches the fabric, for any verb.
			k0 := distinctKeys(t, coord, 1)[0]
			before := coord.Endpoint().Stats().MessagesSent.Load()
			w = coord.NewWave()
			f := w.LockRead(0, 8, []LockEntry{xlock(0, k0)}, nil, nil)
			w.Wait()
			if r, err := w.LockResponse(f); err != nil || !r.OK {
				t.Fatalf("local lock-read: %+v, %v", r, err)
			}
			w.Release()
			w = coord.NewWave()
			w.CommitAll(8, 0, []transport.NodeID{0}, map[cluster.PartitionID][]WriteOp{
				0: {{Table: 1, Key: k0, Type: txn.OpUpdate, Value: []byte{0xAA}}},
			})
			w.Wait()
			if err := w.Errs(); err != nil {
				t.Fatal(err)
			}
			w.Release()
			coord.AbortAt(0, 8)
			if v, _, _ := coord.Store().Table(1).Bucket(k0).Get(k0); held(coord, k0) || v[0] != 0xAA {
				t.Fatalf("local commit: held=%v value=%v", held(coord, k0), v)
			}
			if got := spy.take(); got != "" {
				t.Fatalf("local frames used the fabric: %q", got)
			}
			if after := coord.Endpoint().Stats().MessagesSent.Load(); after != before {
				t.Fatalf("local frames sent %d fabric messages", after-before)
			}

			// A transport failure is reported per destination, naming the
			// node: every frame bound there fails (its node may hold locks
			// — the caller must abort there), siblings elsewhere succeed.
			w = coord.NewWave()
			fLost1 := w.LockRead(42, 9, []LockEntry{xlock(0, 1)}, nil, nil)
			fGood := w.LockRead(3, 9, []LockEntry{xlock(1, distinctKeys(t, nodes[3], 1)[0])}, nil, nil)
			fLost2 := w.LockRead(42, 9, []LockEntry{xlock(2, 2)}, nil, nil)
			w.Wait()
			for _, f := range []int{fLost1, fLost2} {
				_, err := w.LockResponse(f)
				if !errors.Is(err, transport.ErrNoSuchNode) || !strings.Contains(err.Error(), "node 42") {
					t.Fatalf("frame %d: err = %v, want a no-such-node failure naming node 42", f, err)
				}
			}
			if r, err := w.LockResponse(fGood); err != nil || !r.OK {
				t.Fatalf("sibling destination: %+v, %v", r, err)
			}
			if err := w.Errs(); err == nil || strings.Contains(err.Error(), "node 3") {
				t.Fatalf("joined error = %v, want only node 42's failures", err)
			}
			w.Release()
			coord.AbortAt(3, 9)
			for i, n := range nodes {
				if n.ActiveTxns() != 0 {
					t.Fatalf("node %d still holds participant state", i)
				}
			}
		})
	}
}
