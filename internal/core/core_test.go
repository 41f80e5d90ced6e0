package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/depgraph"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

func key(k storage.Key) txn.KeyFunc {
	return func(txn.Args, txn.ReadSet) (storage.Key, bool) { return k, true }
}

func setVal(v byte) txn.MutateFunc {
	return func([]byte, txn.Args, txn.ReadSet) ([]byte, error) { return []byte{v}, nil }
}

// single-node harness with hot key 7.
func newHarness(t *testing.T) (*Engine, *server.Node) {
	t.Helper()
	net := simfab.New(simfab.Config{})
	t.Cleanup(net.Close)
	topo := cluster.NewTopology(1, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 1})
	st := storage.NewStore()
	tbl := st.CreateTable(1, 32)
	for k := storage.Key(0); k < 10; k++ {
		if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	dir.SetHot(storage.RID{Table: 1, Key: 7}, 0)
	node := server.New(net.Endpoint(0), st, txn.NewRegistry(), dir, 0)
	return New(node), node
}

// execInnerOn runs an inner region on the node's lanes with a scratch of
// its own, as runTwoRegion does once the outer region is locked, and
// joins the replica acks of a committed one (txn.AbortNone).
func execInnerOn(n *server.Node, txnID uint64, proc *txn.Procedure, args txn.Args, innerOps []int, reads txn.ReadSet) txn.AbortReason {
	s := newScratch(n, &txn.Request{ID: txnID}, proc)
	defer s.release()
	s.Reads = reads
	reason := s.execInnerOnLane(n, proc, args, innerOps)
	if reason == txn.AbortNone && n.AwaitAcks(txnID, s.ack) != nil {
		panic("fabric closed under an inner region")
	}
	return reason
}

func execInnerLocal(n *server.Node, txnID uint64, procName string, innerOps []int, reads txn.ReadSet) txn.AbortReason {
	if reads == nil {
		reads = txn.ReadSet{}
	}
	return execInnerOn(n, txnID, n.Registry().Lookup(procName), nil, innerOps, reads)
}

func TestHotLastOrder(t *testing.T) {
	e, node := newHarness(t)
	proc := &txn.Procedure{
		Name: "p",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(7), Mutate: setVal(1)}, // hot
			{ID: 1, Type: txn.OpRead, Table: 1, Key: key(2)},
			{ID: 2, Type: txn.OpRead, Table: 1, Key: key(3)},
		},
	}
	if err := node.Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(proc)
	if err != nil {
		t.Fatal(err)
	}
	got := e.hotLastOrder(g, nil, []int{0, 1, 2})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// No hot ops: unchanged.
	got2 := e.hotLastOrder(g, nil, []int{1, 2})
	if len(got2) != 2 || got2[0] != 1 {
		t.Fatalf("cold order changed: %v", got2)
	}
}

func TestHotLastOrderRespectsPKDeps(t *testing.T) {
	e, node := newHarness(t)
	// Cold op 1's key depends on hot op 0's read: moving 0 after 1 is
	// illegal, so the original order must be kept.
	proc := &txn.Procedure{
		Name: "dep",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(7)}, // hot
			{ID: 1, Type: txn.OpRead, Table: 1, Key: func(_ txn.Args, reads txn.ReadSet) (storage.Key, bool) {
				v, ok := reads[0]
				if !ok {
					return 0, false
				}
				return storage.Key(v[0] % 10), true
			}, PKDeps: []int{0}},
		},
	}
	if err := node.Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	g, err := depgraph.Build(proc)
	if err != nil {
		t.Fatal(err)
	}
	got := e.hotLastOrder(g, nil, []int{0, 1})
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("illegal reorder accepted: %v", got)
	}
}

func TestExecInnerLocalCommitsUnilaterally(t *testing.T) {
	_, node := newHarness(t)
	proc := &txn.Procedure{
		Name: "inner",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(7), Mutate: setVal(42)},
		},
	}
	if err := node.Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	if reason := execInnerLocal(node, 100, "inner", []int{0}, nil); reason != txn.AbortNone {
		t.Fatalf("inner aborted: %v", reason)
	}
	// Committed immediately: value visible, locks released.
	v, _, err := node.Store().Table(1).Bucket(7).Get(7)
	if err != nil || v[0] != 42 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if node.Store().Table(1).Bucket(7).Lock.Held() {
		t.Fatal("inner lock leaked")
	}
	if node.ActiveTxns() != 0 {
		t.Fatal("inner state leaked")
	}
}

func TestExecInnerLocalAbortsOnConflict(t *testing.T) {
	_, node := newHarness(t)
	proc := &txn.Procedure{
		Name: "conflict",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(7), Mutate: setVal(1)},
		},
	}
	if err := node.Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	b := node.Store().Table(1).Bucket(7)
	if !b.Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup")
	}
	defer b.Lock.Unlock(storage.LockExclusive)
	if reason := execInnerLocal(node, 101, "conflict", []int{0}, nil); reason != txn.AbortLockConflict {
		t.Fatalf("reason = %v, want a lock conflict", reason)
	}
	// Original value intact.
	v, _, _ := b.Get(7)
	if v[0] != 7 {
		t.Fatalf("aborted inner mutated value: %v", v)
	}
}

// The inner lock namespace must be disjoint from the outer one: a
// transaction holding an outer lock on this node must not have it
// released by its own inner region's commit.
func TestInnerLockNamespaceIsolation(t *testing.T) {
	_, node := newHarness(t)
	proc := &txn.Procedure{
		Name: "ns",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(2)},                      // outer
			{ID: 1, Type: txn.OpUpdate, Table: 1, Key: key(7), Mutate: setVal(9)}, // inner
		},
	}
	if err := node.Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	const txnID = 200
	// Outer region locked under the raw txn id.
	lr := node.LockReadLocal(txnID, []server.LockEntry{
		{OpID: 0, Table: 1, Key: 2, Mode: storage.LockShared, Read: true, MustExist: true},
	})
	if !lr.OK {
		t.Fatal(lr.Reason)
	}
	// Inner region executes and commits under the same txn id.
	if reason := execInnerLocal(node, txnID, "ns", []int{1}, txn.ReadSet{0: []byte{2}}); reason != txn.AbortNone {
		t.Fatalf("inner: %v", reason)
	}
	// The outer shared lock must still be held.
	if !node.Store().Table(1).Bucket(2).Lock.Held() {
		t.Fatal("inner commit released the outer lock")
	}
	node.AbortLocal(txnID)
}

func TestRunFallsBackForColdTxn(t *testing.T) {
	e, node := newHarness(t)
	proc := &txn.Procedure{
		Name: "cold",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(3), Mutate: setVal(5)},
		},
	}
	if err := node.Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	dec, err := e.Decide(&txn.Request{Proc: "cold"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.TwoRegion {
		t.Fatal("cold txn classified two-region")
	}
	res := e.Run(context.Background(), &txn.Request{Proc: "cold"})
	if !res.Committed {
		t.Fatalf("cold txn aborted: %v", res.Reason)
	}
	v, _, _ := node.Store().Table(1).Bucket(3).Get(3)
	if v[0] != 5 {
		t.Fatal("cold write lost")
	}
}

func TestRunUnknownProc(t *testing.T) {
	e, _ := newHarness(t)
	res := e.Run(context.Background(), &txn.Request{Proc: "ghost"})
	if res.Committed || res.Reason != txn.AbortInternal {
		t.Fatalf("res = %+v", res)
	}
	if _, err := e.Decide(&txn.Request{Proc: "ghost"}); err == nil {
		t.Fatal("Decide accepted unknown proc")
	}
}

// multiHarness builds a 3-node cluster with table 1 range-partitioned:
// keys [0,100) on node 0, [100,200) on node 1, [200,300) on node 2.
func multiHarness(t *testing.T) ([]*Engine, []*server.Node, *simfab.Network) {
	return faultyMultiHarness(t, nil)
}

// faultyMultiHarness is multiHarness on a fabric with a fault plan.
func faultyMultiHarness(t *testing.T, plan *simfab.FaultPlan) ([]*Engine, []*server.Node, *simfab.Network) {
	return replicatedHarness(t, plan, 1)
}

// replicatedHarness is faultyMultiHarness at a replication degree
// (partition p's replicas are the next nodes round). Its cleanup drains
// the engines, closes the fabric and stops the nodes' lanes.
func replicatedHarness(t *testing.T, plan *simfab.FaultPlan, replication int) ([]*Engine, []*server.Node, *simfab.Network) {
	t.Helper()
	net := simfab.New(simfab.Config{Faults: plan})
	topo := cluster.NewTopology(3, replication)
	dir := cluster.NewDirectory(topo, cluster.RangePartitioner{
		N: 3, MaxKey: map[storage.TableID]storage.Key{1: 300},
	})
	reg := txn.NewRegistry()
	nodes := make([]*server.Node, 3)
	engines := make([]*Engine, 3)
	for i := 0; i < 3; i++ {
		st := storage.NewStore()
		tbl := st.CreateTable(1, 64)
		for k := storage.Key(i * 100); k < storage.Key(i*100+100); k += 10 {
			if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i] = server.New(net.Endpoint(simfab.NodeID(i)), st, reg, dir, cluster.PartitionID(i))
		engines[i] = New(nodes[i])
	}
	t.Cleanup(func() {
		drainAll(engines)
		net.Close()
		for _, n := range nodes {
			n.Close()
		}
	})
	return engines, nodes, net
}

// drainAll joins every engine's background commit tails.
func drainAll(engines []*Engine) {
	for _, e := range engines {
		e.Drain()
	}
}

// placedProc registers a two-region procedure on the multi-node harness:
// a cold read on node 0 (outer) and an update of hot key 110, which makes
// node 1 the inner host.
func placedProc(t *testing.T, nodes []*server.Node) *txn.Request {
	t.Helper()
	nodes[0].Directory().SetHot(storage.RID{Table: 1, Key: 110}, 1)
	nodes[0].Registry().MustRegister(&txn.Procedure{
		Name: "placed",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(10)},
			{ID: 1, Type: txn.OpUpdate, Table: 1, Key: key(110), Mutate: setVal(77)},
		},
	})
	return &txn.Request{Proc: "placed"}
}

// assertUntouched fails unless the hot record still holds its loaded
// value and no node holds participant state or the hot bucket's lock.
func assertUntouched(t *testing.T, nodes []*server.Node) {
	t.Helper()
	b := nodes[1].Store().Table(1).Bucket(110)
	if v, _, err := b.Get(110); err != nil || len(v) != 1 || v[0] != 110 {
		t.Errorf("hot record = %v (err %v), want the loaded [110]", v, err)
	}
	if b.Lock.Held() {
		t.Error("hot bucket still locked")
	}
	for _, n := range nodes {
		if n.ActiveTxns() != 0 {
			t.Errorf("node %d holds %d transactions' participant state", n.ID(), n.ActiveTxns())
		}
	}
}

// A route call that fails is a retryable abort naming the inner host:
// the origin executes nothing itself (the routed copy may have run — a
// real wire is at-most-once), and the same request commits once it
// reaches the host.
func TestFailedRouteAbortsUnreachableWithoutExecuting(t *testing.T) {
	engines, nodes, _ := faultyMultiHarness(t, &simfab.FaultPlan{
		DropProb:  1,
		Droppable: func(m string) bool { return m == server.VerbTxnRoute },
	})
	req := placedProc(t, nodes)
	res := engines[0].Run(context.Background(), req)
	if res.Committed || res.Reason != txn.AbortUnreachable {
		t.Fatalf("res = %+v, want an unreachable abort", res)
	}
	if !strings.Contains(res.Detail, "node 1") {
		t.Errorf("detail %q does not name the inner host", res.Detail)
	}
	drainAll(engines)
	assertUntouched(t, nodes)

	if res := engines[1].Run(context.Background(), req); !res.Committed {
		t.Fatalf("on its inner host the request aborted: %v %s", res.Reason, res.Detail)
	}
	drainAll(engines)
	if v, _, _ := nodes[1].Store().Table(1).Bucket(110).Get(110); len(v) != 1 || v[0] != 77 {
		t.Fatalf("hot record = %v after the commit, want [77]", v)
	}
}

// A routed request that lands on a node which is not its inner host
// (the origin's layout was stale) aborts moved before taking any lock;
// it is not forwarded again and not coordinated from the wrong node.
func TestRouteToWrongHostAbortsMoved(t *testing.T) {
	engines, nodes, _ := multiHarness(t)
	req := placedProc(t, nodes)
	raw, err := nodes[0].Endpoint().Call(2, server.VerbTxnRoute, encodeRouteRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeRouteResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || res.Reason != txn.AbortMoved {
		t.Fatalf("res = %+v, want a moved abort", res)
	}
	drainAll(engines)
	assertUntouched(t, nodes)
}

// No wait without an exit: a committed transaction's tail whose outer
// replica never acks ends when the fabric closes instead of parking
// Drain — and every goroutine it started — past Close.
func TestTailExitsWhenFabricClosesMidJoin(t *testing.T) {
	testutil.CheckLeaks(t)
	engines, nodes, net := replicatedHarness(t, nil, 2)
	// Inner region: hot key 110 on node 1 (its replica, node 2, acks).
	// Outer region: key 210 on node 2, whose replica — node 0 — swallows
	// the stream, so the tail's join can only end with the fabric.
	nodes[0].Directory().SetHot(storage.RID{Table: 1, Key: 110}, 1)
	nodes[0].Registry().MustRegister(&txn.Procedure{
		Name: "tail",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(210), Mutate: setVal(21)},
			{ID: 1, Type: txn.OpUpdate, Table: 1, Key: key(110), Mutate: setVal(11)},
		},
	})
	nodes[0].Endpoint().HandleAsync(server.VerbInnerRepl, func(simfab.NodeID, []byte, func([]byte, error)) {})

	if res := engines[1].Run(context.Background(), &txn.Request{Proc: "tail"}); !res.Committed {
		t.Fatalf("aborted: %v %s", res.Reason, res.Detail)
	}
	// The commit frame rode the replicate frame's ring: the outer lock is
	// gone and the write applied although no outer replica has acked.
	b := nodes[2].Store().Table(1).Bucket(210)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _, _ := b.Get(210); len(v) == 1 && v[0] == 21 && !b.Lock.Held() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("outer primary never applied and released")
		}
	}
	drained := make(chan struct{})
	go func() { engines[1].Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("the tail finished without its outer replica's ack")
	case <-time.After(20 * time.Millisecond):
	}
	net.Close()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the tail outlived the fabric")
	}
}

// lockRecorder interposes a node's lock-wave doorbell, recording each
// lock-read frame's keys while servicing the frames as the node would.
func lockRecorder(t *testing.T, n *server.Node) *[][]storage.Key {
	t.Helper()
	var mu sync.Mutex
	batches := &[][]storage.Key{}
	n.Endpoint().HandleOneSided(server.VerbDoorbell, func(_ simfab.NodeID, req []byte) ([]byte, error) {
		frames, err := wire.DecodeFrames(req)
		if err != nil {
			return nil, err
		}
		results := make([]wire.FrameResult, len(frames))
		var w wire.Writer
		for i, f := range frames {
			if f.Verb != server.VerbLockRead {
				results[i].Err = "unexpected verb " + f.Verb
				continue
			}
			txnID, entries, err := server.DecodeLockRequest(f.Payload)
			if err != nil {
				return nil, err
			}
			keys := make([]storage.Key, len(entries))
			for j, e := range entries {
				keys[j] = e.Key
			}
			mu.Lock()
			*batches = append(*batches, keys)
			mu.Unlock()
			start := w.Len()
			n.LockReadLocal(txnID, entries).EncodeTo(&w)
			results[i].Payload = w.Bytes()[start:]
		}
		return wire.EncodeFrameResults(results), nil
	})
	return batches
}

// The outer region's ops must reach each participant as one batched
// lock-and-read frame per wave (not one round trip per op), fanned out
// to all participants concurrently in the same wave.
func TestLockOuterBatchGrouping(t *testing.T) {
	engines, nodes, _ := multiHarness(t)
	engine := engines[0]
	b1 := lockRecorder(t, nodes[1])
	b2 := lockRecorder(t, nodes[2])

	// Hot record on node 0 (the coordinator) forms the inner region;
	// two cold ops on node 1 and two on node 2 form the outer region.
	nodes[0].Directory().SetHot(storage.RID{Table: 1, Key: 10}, 0)
	proc := &txn.Procedure{
		Name: "grouped",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(110)},
			{ID: 1, Type: txn.OpRead, Table: 1, Key: key(210)},
			{ID: 2, Type: txn.OpRead, Table: 1, Key: key(120)},
			{ID: 3, Type: txn.OpRead, Table: 1, Key: key(220)},
			{ID: 4, Type: txn.OpUpdate, Table: 1, Key: key(10), Mutate: setVal(1)}, // hot, inner
		},
	}
	if err := nodes[0].Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	res := engine.Run(context.Background(), &txn.Request{Proc: "grouped"})
	if !res.Committed {
		t.Fatalf("txn aborted: %v", res.Reason)
	}
	drainAll(engines)
	for name, got := range map[string][][]storage.Key{"node1": *b1, "node2": *b2} {
		if len(got) != 1 {
			t.Fatalf("%s received %d lock calls, want 1 batched call (%v)", name, len(got), got)
		}
		if len(got[0]) != 2 {
			t.Fatalf("%s batch = %v, want 2 entries", name, got[0])
		}
	}
	if string(res.Reads[0]) != string([]byte{110}) || string(res.Reads[3]) != string([]byte{220}) {
		t.Fatalf("reads = %v", res.Reads)
	}
}

// A hot record that could not join the inner region is locked strictly
// after every cold outer op (hot-last), in its own later wave.
func TestLockOuterHotWaveOrdering(t *testing.T) {
	engines, nodes, _ := multiHarness(t)
	engine := engines[0]
	b1 := lockRecorder(t, nodes[1])

	// Two hot records on different partitions: node 2's (two candidates)
	// wins the inner region, node 1's stays outer-hot.
	dir := nodes[0].Directory()
	dir.SetHot(storage.RID{Table: 1, Key: 110}, 1)
	dir.SetHot(storage.RID{Table: 1, Key: 210}, 2)
	dir.SetHot(storage.RID{Table: 1, Key: 220}, 2)
	proc := &txn.Procedure{
		Name: "hotlast",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(110), Mutate: setVal(2)}, // hot, outer
			{ID: 1, Type: txn.OpRead, Table: 1, Key: key(120)},                      // cold, same node
			{ID: 2, Type: txn.OpUpdate, Table: 1, Key: key(210), Mutate: setVal(3)}, // hot, inner
			{ID: 3, Type: txn.OpUpdate, Table: 1, Key: key(220), Mutate: setVal(4)}, // hot, inner
		},
	}
	if err := nodes[0].Registry().Register(proc); err != nil {
		t.Fatal(err)
	}
	res := engine.Run(context.Background(), &txn.Request{Proc: "hotlast"})
	if !res.Committed {
		t.Fatalf("txn aborted: %v", res.Reason)
	}
	drainAll(engines)
	got := *b1
	if len(got) != 2 {
		t.Fatalf("node1 received %d lock calls, want 2 (cold wave, then hot wave): %v", len(got), got)
	}
	if len(got[0]) != 1 || got[0][0] != 120 {
		t.Fatalf("first wave = %v, want the cold op (key 120)", got[0])
	}
	if len(got[1]) != 1 || got[1][0] != 110 {
		t.Fatalf("second wave = %v, want the hot op (key 110)", got[1])
	}
	v, _, _ := nodes[1].Store().Table(1).Bucket(110).Get(110)
	if v[0] != 2 {
		t.Fatalf("outer-hot write lost: %v", v)
	}
}

// A pooled scratch must carry nothing from one inner region into the
// next: a region that aborts after buffering writes, followed on the
// same lane by one that reads the same keys, sees the stored values —
// both when the coordinator re-requests the region on the scratch it
// still holds (the lock-conflict ladder) and when the scratch has been
// through the pool in between.
func TestScratchDoesNotLeakAbortedWrites(t *testing.T) {
	e, node := newHarness(t)
	for k := storage.Key(8); k <= 9; k++ { // with key 7: every op below is inner
		node.Directory().SetHot(storage.RID{Table: 1, Key: k}, 0)
	}
	failing := func([]byte, txn.Args, txn.ReadSet) ([]byte, error) {
		return nil, txn.NewAbort(txn.AbortConstraint, "always")
	}
	// Buffers writes to keys 7 and 8, then fails its last mutator.
	aborter := &txn.Procedure{Name: "leak.abort", Ops: []txn.OpSpec{
		{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(7), Mutate: setVal(99)},
		{ID: 1, Type: txn.OpInsert, Table: 1, Key: key(8), Mutate: setVal(98)},
		{ID: 2, Type: txn.OpUpdate, Table: 1, Key: key(9), Mutate: failing},
	}}
	reader := &txn.Procedure{Name: "leak.read", Ops: []txn.OpSpec{
		{ID: 0, Type: txn.OpRead, Table: 1, Key: key(7)},
		{ID: 1, Type: txn.OpUpdate, Table: 1, Key: key(8), Mutate: func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
			return []byte{old[0] + 1}, nil
		}},
	}}
	node.Registry().MustRegister(aborter)
	node.Registry().MustRegister(reader)
	check := func(when string, reads txn.ReadSet) {
		t.Helper()
		if got := reads[0]; len(got) != 1 || got[0] != 7 {
			t.Errorf("%s: read of key 7 saw %v, want the stored [7]", when, got)
		}
		if got := reads[1]; len(got) != 1 || got[0] != 8 {
			t.Errorf("%s: update of key 8 read %v, want the stored [8]", when, got)
		}
	}

	// The same scratch, re-entered without going through the pool.
	s := newScratch(node, &txn.Request{ID: 1}, aborter)
	if reason, _ := s.execInner(node, aborter, nil, []int{0, 1, 2}); reason != txn.AbortConstraint {
		t.Fatalf("aborting region: %v", reason)
	}
	if got := len(s.WriteSets()[0]); got != 2 {
		t.Fatalf("aborted region left %d buffered writes, want the 2 it made before failing", got)
	}
	reads := txn.ReadSet{}
	s.ID, s.Reads = 2, reads
	if reason, _ := s.execInner(node, reader, nil, []int{0, 1}); reason != txn.AbortNone {
		t.Fatalf("reading region: %v", reason)
	}
	check("re-entered scratch", reads)
	s.release()
	s = scratchPool.Get().(*scratch)
	if len(s.locks)+len(s.pend)+len(s.wave) != 0 || s.Txn != nil || s.ack != nil {
		t.Errorf("a pooled scratch came back dirty: %+v", s)
	}
	for _, l := range s.locks[:cap(s.locks)] {
		if l.b != nil {
			t.Errorf("a pooled scratch still pins a bucket: %v", l)
		}
	}
	scratchPool.Put(s) // its context went back to cc's pool: TestReleasePinsNothing (internal/cc)

	// Whole transactions through the engine, the scratch pooled between.
	if res := e.Run(context.Background(), &txn.Request{Proc: "leak.abort"}); res.Committed || res.Reason != txn.AbortConstraint {
		t.Fatalf("aborting transaction: %+v", res)
	}
	res := e.Run(context.Background(), &txn.Request{Proc: "leak.read"})
	if !res.Committed {
		t.Fatalf("reading transaction: %v %s", res.Reason, res.Detail)
	}
	e.Drain()
	if got := res.Reads[0]; len(got) != 1 || got[0] != 7 {
		t.Errorf("after an aborted transaction: read of key 7 saw %v, want [7]", got)
	}
	if got := res.Reads[1]; len(got) != 1 || got[0] != 9 {
		t.Errorf("after an aborted transaction: update of key 8 read %v, want [9] (one committed increment)", got)
	}
	if node.ActiveTxns() != 0 {
		t.Errorf("%d transactions still hold participant state", node.ActiveTxns())
	}
}
