package server

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
)

// newLanedNode builds a single-node cluster whose directory carries the
// requested lane count (nodes size their executors from the directory).
func newLanedNode(t *testing.T, lanes int) *Node {
	t.Helper()
	net := simfab.New(simfab.Config{})
	topo := cluster.NewTopology(1, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 1})
	dir.SetLanes(lanes)
	st := storage.NewStore()
	st.CreateTable(1, 64)
	n := New(net.Endpoint(0), st, txn.NewRegistry(), dir, 0)
	t.Cleanup(func() {
		net.Close()
		n.Close()
	})
	return n
}

func TestNodeLaneCountFollowsDirectory(t *testing.T) {
	if got := newLanedNode(t, 3).NumLanes(); got != 3 {
		t.Fatalf("NumLanes = %d, want 3", got)
	}
	if got := newLanedNode(t, 0).NumLanes(); got != 1 {
		t.Fatalf("NumLanes = %d, want 1 for a lane-less directory", got)
	}
}

// Same-lane work must serialize: a plain (unsynchronized) counter
// incremented from many goroutines through one lane is exactly the kind
// of conflict the race detector flags if two closures ever overlap, and
// the in-flight gauge catches overlap even without -race.
func TestSameLaneSerializes(t *testing.T) {
	n := newLanedNode(t, 4)
	const workers, rounds = 8, 200
	plain := 0 // deliberately not atomic: -race proves mutual exclusion
	var inFlight, maxInFlight atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n.WithLaneSerial(2, func() {
					if cur := inFlight.Add(1); cur > maxInFlight.Load() {
						maxInFlight.Store(cur)
					}
					plain++
					inFlight.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if plain != workers*rounds {
		t.Fatalf("lost updates: %d, want %d", plain, workers*rounds)
	}
	if maxInFlight.Load() != 1 {
		t.Fatalf("same-lane closures overlapped (max in flight %d)", maxInFlight.Load())
	}
}

// Distinct lanes must interleave: two closures that rendezvous with each
// other can only both finish if they run concurrently — under a single
// serial executor (the old node-wide inner mutex) this deadlocks.
func TestDistinctLanesInterleave(t *testing.T) {
	n := newLanedNode(t, 2)
	enter0, enter1 := make(chan struct{}), make(chan struct{})
	done := make(chan struct{}, 2)
	go n.WithLaneSerial(0, func() {
		close(enter0)
		<-enter1
		done <- struct{}{}
	})
	go n.WithLaneSerial(1, func() {
		close(enter1)
		<-enter0
		done <- struct{}{}
	})
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("lanes did not interleave: cross-lane rendezvous timed out")
		}
	}
}

// Submission order within a lane is execution order — the property the
// per-lane replica apply path relies on for the §5 stream.
func TestLaneFIFO(t *testing.T) {
	n := newLanedNode(t, 2)
	const k = 500
	var got []int
	var wg sync.WaitGroup
	wg.Add(k)
	for i := 0; i < k; i++ {
		i := i
		n.SubmitLane(1, func() {
			got = append(got, i)
			wg.Done()
		})
	}
	wg.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("lane reordered submissions: got[%d] = %d", i, v)
		}
	}
}

// applyStream must apply every write exactly once and signal done once
// with the records landed, however the set spreads over record lanes.
func TestApplyStreamAppliesAll(t *testing.T) {
	n := newLanedNode(t, 4)
	var writes []WriteOp
	for k := storage.Key(0); k < 40; k++ {
		writes = append(writes, WriteOp{Table: 1, Key: k, Type: txn.OpInsert, Value: []byte{byte(k)}})
	}
	var calls atomic.Int32
	doneCh := make(chan error, 1)
	n.applyStream(1, 1, 0, writes, func(err error) {
		calls.Add(1)
		doneCh <- err
	})
	select {
	case err := <-doneCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("applyStream never signalled done")
	}
	n.LaneBarrier()
	if got := calls.Load(); got != 1 {
		t.Fatalf("done called %d times, want once", got)
	}
	tbl := n.Store().Table(1)
	for k := storage.Key(0); k < 40; k++ {
		// An insert applied twice would have failed the set: the key exists.
		if v, _, err := tbl.Bucket(k).Get(k); err != nil || len(v) != 1 || v[0] != byte(k) {
			t.Fatalf("key %d: %v, %v", k, v, err)
		}
	}
}

// A replica applies one link's stream messages in arrival order wherever
// the records' lane placements point. DB.Repartition installs new lanes
// for every hot record but flushes the streams only of records whose
// partition changes, so a record's placement can move between two of its
// writes: the later write must still win.
func TestStreamOrderSurvivesLaneMove(t *testing.T) {
	net := simfab.New(simfab.Config{Latency: 2 * time.Microsecond})
	dir := cluster.NewDirectory(cluster.NewTopology(2, 1), cluster.HashPartitioner{N: 2})
	dir.SetLanes(2)
	mk := func(id simfab.NodeID) *Node {
		st := storage.NewStore()
		st.CreateTable(1, 64)
		return New(net.Endpoint(id), st, txn.NewRegistry(), dir, cluster.PartitionID(id))
	}
	sender, replica := mk(0), mk(1)
	t.Cleanup(func() {
		net.Close()
		sender.Close()
		replica.Close()
	})
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs first: Close drains the lanes

	// r starts on the lane of the sender's link, so the gate holds its
	// first write however the replica places stream messages.
	rid := storage.RID{Table: 1}
	for dir.Lane(rid) != replica.laneIndex(int(sender.ID())) {
		rid.Key++
	}
	gated := dir.Lane(rid)
	replica.SubmitLane(gated, func() { <-gate })
	acks := sender.OpenAcks()
	// stream sends one write of r, then a ping on the same link: its
	// answer means the replica has dispatched the write.
	stream := func(v byte) {
		t.Helper()
		if err := sender.Endpoint().Send(replica.ID(), VerbInnerRepl, EncodeInnerRepl(acks.id, 0, sender.ID(), update(rid.Key, v))); err != nil {
			t.Fatal(err)
		}
		if _, err := sender.Endpoint().Call(replica.ID(), VerbPing, nil); err != nil {
			t.Fatal(err)
		}
	}
	stream(1)
	dir.SetHotPlacement(rid, dir.Partition(rid), 1, 1-gated)
	stream(2)
	replica.WithLaneSerial(1-gated, func() {}) // the ungated lane runs what it was handed
	release()
	acks.Resolve(2)
	awaited := make(chan error, 1)
	go func() { awaited <- acks.Await() }()
	select {
	case err := <-awaited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the replica never acked both writes")
	}
	if v, _, err := replica.Store().Table(1).Bucket(rid.Key).Get(rid.Key); err != nil || len(v) != 1 || v[0] != 2 {
		t.Fatalf("replica holds %v (err %v), want the later write 2", v, err)
	}
}

// After Close, submissions degrade to inline execution rather than
// hanging or panicking (teardown races deliver late fabric work).
func TestSubmitAfterCloseRunsInline(t *testing.T) {
	n := newLanedNode(t, 2)
	n.Close()
	ran := false
	n.WithLaneSerial(1, func() { ran = true })
	if !ran {
		t.Fatal("post-Close submission dropped")
	}
}

// The stable record→lane mapping must agree between the storage layer
// and the directory for cold records, and follow explicit placements
// for hot ones.
func TestLaneMappingStableAndPlaceable(t *testing.T) {
	n := newLanedNode(t, 4)
	dir := n.Directory()
	rid := storage.RID{Table: 1, Key: 7}
	if got, want := dir.Lane(rid), storage.LaneOf(rid, 4); got != want {
		t.Fatalf("cold lane %d, want stable hash lane %d", got, want)
	}
	dir.SetHotPlacement(rid, 0, 2.5, 3)
	if got := dir.Lane(rid); got != 3 {
		t.Fatalf("hot lane %d, want placed lane 3", got)
	}
	if w := dir.HotWeight(rid); w != 2.5 {
		t.Fatalf("weight %v, want 2.5", w)
	}
}

// Lane-aware fan-out can land several per-lane batches of ONE
// transaction's wave on a node concurrently. A failing batch must roll
// back exactly its own acquisitions — never a sibling's — and the
// empty-state fast-path delete must not orphan a sibling's locks.
// Without per-transaction serialization in LockReadLocal, the
// suffix-based rollback releases whatever lock a sibling appended last
// (caught here as a "successful" lock that is no longer held, or as a
// leak after the final abort).
func TestConcurrentSameTxnBatches(t *testing.T) {
	n := newLanedNode(t, 4)
	st := n.Store().Table(1)
	for k := storage.Key(0); k < 64; k++ {
		st.Bucket(k).Insert(k, []byte{byte(k)})
	}
	// Key 63 is held exclusively by "another transaction" for the whole
	// test, so any batch containing it fails and rolls back.
	if !st.Bucket(63).Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup lock")
	}
	defer st.Bucket(63).Lock.Unlock(storage.LockExclusive)

	// Real OS-thread interleaving is what tears the rollback's suffix
	// assumption; a single-P scheduler hides it behind coarse
	// preemption, so pin a few Ps for the duration.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const txnID = 99
	const workers = 8
	var okKeys sync.Map // keys whose batch reported OK
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := storage.Key(w*6 + i%6) // distinct per worker
				if i%3 == 0 {
					// Failing batch: acquires key, grinds through a long
					// run of dedup re-reads of that same key (each takes
					// the bucket's internal mutex, stretching the window
					// in which a sibling batch can append its own lock),
					// then conflicts on 63 and rolls back. The rollback
					// must release exactly the lock on `key` — never
					// whatever a sibling appended meanwhile.
					entries := make([]LockEntry, 0, 402)
					entries = append(entries, LockEntry{OpID: 0, Table: 1, Key: key, Mode: storage.LockExclusive})
					for d := 0; d < 400; d++ {
						entries = append(entries, LockEntry{OpID: 1 + d, Table: 1, Key: key, Mode: storage.LockExclusive, Read: true, MustExist: true})
					}
					entries = append(entries, LockEntry{OpID: 401, Table: 1, Key: 63, Mode: storage.LockExclusive})
					resp := n.LockReadLocal(txnID, entries)
					if resp.OK {
						t.Error("batch through held lock succeeded")
						return
					}
				} else {
					resp := n.LockReadLocal(txnID, []LockEntry{
						{OpID: 0, Table: 1, Key: key, Mode: storage.LockExclusive},
					})
					if resp.OK {
						okKeys.Store(key, true)
						// A lock the transaction was told it holds must
						// still be held — a sibling's rollback stealing
						// it is the bug under test.
						if !st.Bucket(key).Lock.HeldExclusive() {
							t.Errorf("key %d reported locked but bucket is free", key)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	okKeys.Range(func(k, _ any) bool {
		if !st.Bucket(k.(storage.Key)).Lock.HeldExclusive() {
			t.Errorf("key %v lost its lock before abort", k)
		}
		return true
	})
	n.AbortLocal(txnID)
	if n.ActiveTxns() != 0 {
		t.Fatalf("state retained: %d", n.ActiveTxns())
	}
	contended := st.Bucket(63) // still held by the test's own defer
	for k := storage.Key(0); k < 63; k++ {
		if b := st.Bucket(k); b != contended && b.Lock.Held() {
			t.Fatalf("lock leaked on key %d after abort", k)
		}
	}
}
