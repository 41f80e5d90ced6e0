package server

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// The replicate frame's contracts (see Wave), on both fabrics.

func update(k storage.Key, v byte) []WriteOp {
	return []WriteOp{{Table: 1, Key: k, Type: txn.OpUpdate, Value: []byte{v}}}
}

func valueAt(t *testing.T, n *Node, k storage.Key) byte {
	t.Helper()
	v, _, err := n.Store().Table(1).Bucket(k).Get(k)
	if err != nil || len(v) != 1 {
		t.Fatalf("node %d key %d: %v, %v", n.ID(), k, v, err)
	}
	return v[0]
}

// gateStream parks every stream message reaching n until the returned
// release is called (the test's cleanup calls it too).
func gateStream(t *testing.T, n *Node) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	n.Endpoint().HandleAsync(VerbInnerRepl, func(from transport.NodeID, req []byte, reply func([]byte, error)) {
		go func() {
			<-gate
			n.handleInnerRepl(from, req, reply)
		}()
	})
	return release
}

// joinBlocks fails unless w.JoinReplicas is still waiting after a grace
// period, and returns the channel its result arrives on.
func joinBlocks(t *testing.T, w *Wave) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.JoinReplicas() }()
	select {
	case err := <-done:
		t.Fatalf("JoinReplicas returned (%v) before every streamed-to replica acked", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func joined(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("JoinReplicas hung")
		return nil
	}
}

// A [replicate, commit] wave is one protected ring per participant; the
// primary streams while the transaction's locks are still held and only
// then applies and releases; the replica acks to the coordinator.
func TestWaveReplicateThenCommit(t *testing.T) {
	for _, fabric := range []string{"simfab", "tcpnet"} {
		t.Run(fabric, func(t *testing.T) {
			testutil.CheckLeaks(t)
			nodes, spy := waveCluster(t, fabric, 2)
			coord, primary := nodes[0], nodes[1]
			replica := nodes[coord.Directory().Topology().Replicas(1)[0]]
			k := distinctKeys(t, primary, 1)[0]
			if r, err := coord.LockRead(1, 7, []LockEntry{xlock(0, k)}); err != nil || !r.OK {
				t.Fatalf("lock: %+v, %v", r, err)
			}
			spy.take()

			var order []string
			primary.FaultInjector = func(verb string, id uint64) error {
				if verb == VerbCommit && id != 7 {
					t.Errorf("commit frame injected for txn %#x, want 7", id)
				}
				if !primary.Store().Table(1).Bucket(k).Lock.Held() {
					t.Errorf("%s frame ran after the lock was released", verb)
				}
				order = append(order, verb)
				return nil
			}
			writes := map[cluster.PartitionID][]WriteOp{1: update(k, 0xB1)}
			w := coord.NewWave()
			w.ReplicateAll(0, []transport.NodeID{1}, writes)
			w.CommitAll(7, 0, []transport.NodeID{1}, writes)
			w.Wait()
			if err := w.Errs(); err != nil {
				t.Fatal(err)
			}
			if got := spy.take(); got != "ring wait" || spy.lastRing != VerbDoorbellTail {
				t.Fatalf("fabric use = %q over %q, want one protected ring", got, spy.lastRing)
			}
			if len(order) != 2 || order[0] != VerbReplicate || order[1] != VerbCommit {
				t.Fatalf("frames ran as %v, want replicate then commit", order)
			}
			if w.streamed != 1 {
				t.Fatalf("streamed = %d, want 1 (one replica)", w.streamed)
			}
			if primary.Store().Table(1).Bucket(k).Lock.Held() {
				t.Fatal("commit frame left the lock held")
			}
			if err := w.JoinReplicas(); err != nil {
				t.Fatal(err)
			}
			w.Release()
			// The ack follows the apply: once joined, the replica has it.
			if p, r := valueAt(t, primary, k), valueAt(t, replica, k); p != 0xB1 || r != 0xB1 {
				t.Fatalf("primary %#x, replica %#x, want 0xb1 on both", p, r)
			}
			if n := coord.VerbMetrics().Snapshot()[KindReplApply].Count; n != 1 {
				t.Fatalf("%d repl-apply observations, want 1 per replicating transaction", n)
			}
		})
	}
}

// A wave with only local frames and no stream target is pure function
// calls: no replicate frame, no waiter, nothing on the fabric.
func TestWaveLocalCommitTakesNoWaiter(t *testing.T) {
	nodes, spy := waveCluster(t, "simfab", 1)
	coord := nodes[0]
	k := distinctKeys(t, coord, 1)[0]
	if r := coord.LockReadLocal(8, []LockEntry{xlock(0, k)}); !r.OK {
		t.Fatal(r.Reason)
	}
	writes := map[cluster.PartitionID][]WriteOp{0: update(k, 0xC1)}
	allocs := testing.AllocsPerRun(1, func() {
		w := coord.NewWave()
		if w.ReplicateAll(0, []transport.NodeID{0}, writes) {
			t.Error("a replicate frame was posted for a partition with no stream target")
		}
		w.CommitAll(8, 0, []transport.NodeID{0}, writes)
		w.Wait()
		if w.ack != nil || len(coord.acks) != 0 {
			t.Error("a wave with no replicate frame registered an ack waiter")
		}
		if err := w.JoinReplicas(); err != nil {
			t.Error(err)
		}
		w.Release()
	})
	if allocs > 1 && !testutil.Race { // the store's copy of the value
		t.Errorf("local wave allocated %.0f times", allocs)
	}
	if got := spy.take(); got != "" {
		t.Fatalf("local frames used the fabric: %q", got)
	}
}

// The primary that addresses the sends sizes the wait: a stream target
// added or removed between the coordinator posting the frame and the
// ring changes the count and the sends together. A count taken from the
// coordinator's own snapshot would return early in the first case and
// hang in the second.
func TestReplicateCountsTargetsAtThePrimary(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := waveCluster(t, "simfab", 2)
	coord, primary := nodes[0], nodes[1]
	topo := coord.Directory().Topology()
	replica := topo.Replicas(1)[0]
	k := distinctKeys(t, primary, 1)[0]
	post := func(v byte) *Wave {
		w := coord.NewWave()
		if !w.ReplicateAll(0, []transport.NodeID{1}, map[cluster.PartitionID][]WriteOp{1: update(k, v)}) {
			t.Fatal("no replicate frame posted for a replicated partition")
		}
		return w
	}

	// Added: node 3 starts warming after the frame was posted. Its apply
	// is held back, so the join must still be waiting once the synced
	// replica has acked.
	w := post(0xD1)
	release := gateStream(t, nodes[3])
	if err := topo.AddWarming(1, 3); err != nil {
		t.Fatal(err)
	}
	w.Wait()
	if err := w.Errs(); err != nil || w.streamed != 2 {
		t.Fatalf("streamed = %d (%v), want 2: the replica and the warming node", w.streamed, err)
	}
	done := joinBlocks(t, w)
	release()
	if err := joined(t, done); err != nil {
		t.Fatal(err)
	}
	w.Release()
	if v := valueAt(t, nodes[3], k); v != 0xD1 {
		t.Fatalf("warming node holds %#x after the join, want 0xd1", v)
	}

	// Removed: both targets leave after the frame was posted. Nothing is
	// streamed and the join returns at once.
	w = post(0xD2)
	topo.RemoveWarming(1, 3)
	if err := topo.RemoveReplica(1, replica); err != nil {
		t.Fatal(err)
	}
	w.Wait()
	if err := w.Errs(); err != nil || w.streamed != 0 {
		t.Fatalf("streamed = %d (%v), want 0: no target left", w.streamed, err)
	}
	immediate := make(chan error, 1)
	go func() { immediate <- w.JoinReplicas() }()
	if err := joined(t, immediate); err != nil {
		t.Fatal(err)
	}
	w.Release()
	if len(coord.acks) != 0 {
		t.Fatalf("%d ack registrations left behind", len(coord.acks))
	}
}

// No wait without an exit: a join whose acks can no longer arrive ends
// with ErrClosed when the fabric shuts down, for a wave's join and for
// the baselines' replication phase alike, and leaves nothing behind.
func TestReplicaJoinExitsOnClose(t *testing.T) {
	for _, fabric := range []string{"simfab", "tcpnet"} {
		t.Run(fabric, func(t *testing.T) {
			testutil.CheckLeaks(t)
			nodes, spy := waveCluster(t, fabric, 2)
			coord, primary := nodes[0], nodes[1]
			replica := nodes[coord.Directory().Topology().Replicas(1)[0]]
			gateStream(t, replica) // never acks while the fabric is up
			k := distinctKeys(t, primary, 2)

			w := coord.NewWave()
			w.ReplicateAll(0, []transport.NodeID{1}, map[cluster.PartitionID][]WriteOp{1: update(k[0], 0xE1)})
			w.Wait()
			if err := w.Errs(); err != nil || w.streamed != 1 {
				t.Fatalf("streamed = %d (%v), want 1", w.streamed, err)
			}
			joinDone := joinBlocks(t, w)
			phaseDone := make(chan error, 1)
			go func() {
				phaseDone <- coord.Replicate(32, 0, []transport.NodeID{1}, map[cluster.PartitionID][]WriteOp{1: update(k[1], 0xE2)})
			}()
			// Let the phase reach its join, then pull the fabric.
			time.Sleep(20 * time.Millisecond)
			spy.closeFabric()
			if err := joined(t, joinDone); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("JoinReplicas = %v, want ErrClosed", err)
			}
			w.Release()
			if err := joined(t, phaseDone); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("Replicate = %v, want ErrClosed", err)
			}
			coord.ackMu.Lock()
			left := len(coord.acks)
			coord.ackMu.Unlock()
			if left != 0 {
				t.Fatalf("%d ack registrations outlived the close", left)
			}
		})
	}
}

// The baselines' replication phase fails cleanly only while nothing has
// reached any replica; once one partition's stream is out, a failure
// elsewhere cannot be reported as an abort.
func TestReplicatePhaseFailsCleanlyOnlyBeforeAnySend(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := waveCluster(t, "simfab", 2)
	coord := nodes[0]
	k1, k2 := distinctKeys(t, nodes[1], 1)[0], distinctKeys(t, nodes[2], 1)[0]
	writes := map[cluster.PartitionID][]WriteOp{1: update(k1, 0xF1), 2: update(k2, 0xF2)}
	down := errors.New("stream down")
	refuse := func(string, uint64) error { return down }

	nodes[1].FaultInjector, nodes[2].FaultInjector = refuse, refuse
	err := coord.Replicate(41, 0, []transport.NodeID{1, 2}, writes)
	sends := nodes[1].VerbMetrics().Snapshot()[KindInnerRepl].Count + nodes[2].VerbMetrics().Snapshot()[KindInnerRepl].Count
	if err == nil || !strings.Contains(err.Error(), "node 2: stream down") || sends != 0 {
		t.Fatalf("Replicate = %v after %d sends, want the primaries' error and no send", err, sends)
	}
	if len(coord.acks) != 0 {
		t.Fatalf("%d ack registrations left behind by a clean failure", len(coord.acks))
	}

	nodes[1].FaultInjector = nil // partition 1 streams, partition 2 still fails
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("a partly streamed fan-out was reported as a clean failure")
		}
	}()
	_ = coord.Replicate(42, 0, []transport.NodeID{1, 2}, writes)
}

// An inner region's commit takes an ack waiter only when it streams, and
// a first send that fails leaves none behind and applies nothing.
func TestCommitInnerWaiter(t *testing.T) {
	nodes, spy := waveCluster(t, "simfab", 2)
	primary := nodes[1]
	replica := nodes[primary.Directory().Topology().Replicas(1)[0]]
	k := distinctKeys(t, primary, 1)[0]

	if acks, _, err := primary.CommitInner(1, 51, 0, nil); acks != nil || err != nil {
		t.Fatalf("no writes: waiter %v, err %v; want neither", acks, err)
	}
	acks, _, err := primary.CommitInner(1, 52, 0, update(k, 0xA1))
	if err != nil || acks == nil {
		t.Fatalf("waiter %v, err %v; want a waiter", acks, err)
	}
	if err := acks.Await(); err != nil {
		t.Fatal(err)
	}
	if v := valueAt(t, replica, k); v != 0xA1 {
		t.Fatalf("replica holds %#x once joined, want 0xa1", v)
	}

	spy.closeFabric()
	if acks, _, err := primary.CommitInner(1, 53, 0, update(k, 0xA2)); acks != nil || err == nil {
		t.Fatalf("after close: waiter %v, err %v; want an error and no waiter", acks, err)
	}
	if v := valueAt(t, primary, k); v != 0xA1 {
		t.Fatalf("a failed commit applied %#x at the primary", v)
	}
	if len(primary.acks) != 0 {
		t.Fatalf("%d ack registrations left behind by a clean failure", len(primary.acks))
	}
}
