package server

import (
	"fmt"
	"sync"

	"github.com/chillerdb/chiller/internal/transport"
)

// Execution lanes: each node shards its execution engine into N
// single-threaded lanes, modelling the paper's "one execution engine per
// core" deployment (§2, §5) — many engines per server instead of one.
// A lane is a goroutine draining an unbounded FIFO of closures; work
// submitted to the same lane runs strictly in submission order and never
// overlaps, while distinct lanes run concurrently. The record→lane
// mapping lives in the routing directory (Directory.Lane), so every
// layer that places work by record — inner-region execution, the
// partitioner's sub-partition placement — agrees on which lane owns a
// record. A replica's stream apply is placed by link instead: each
// message runs whole on the lane of the link it arrived on
// (applyStream).
//
// The queue is deliberately unbounded: lane work is submitted from the
// fabric's single dispatcher goroutine, which must never block (a
// blocked dispatcher stalls delivery for the whole cluster, and a
// bounded queue could deadlock it against a lane blocked on a full
// fabric send queue). Backpressure comes from the closed-loop clients
// upstream, exactly as it did when handlers ran inline.

// laneExec is one single-threaded execution lane.
type laneExec struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []func()
	head   int
	closed bool
}

func newLaneExec() *laneExec {
	l := &laneExec{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// run drains the lane until closed; remaining queued work is executed
// before exit so no submitter is left waiting on a dropped closure.
func (l *laneExec) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		l.mu.Lock()
		for l.head >= len(l.q) && !l.closed {
			l.cond.Wait()
		}
		if l.head >= len(l.q) {
			l.mu.Unlock()
			return
		}
		f := l.q[l.head]
		l.q[l.head] = nil
		l.head++
		if l.head == len(l.q) {
			l.q = l.q[:0]
			l.head = 0
		}
		l.mu.Unlock()
		f()
	}
}

// submit enqueues f; ok=false means the lane is closed and f was NOT
// run (the caller decides whether to run it inline).
func (l *laneExec) submit(f func()) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.q = append(l.q, f)
	l.mu.Unlock()
	l.cond.Signal()
	return true
}

func (l *laneExec) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// NumLanes reports the node's execution-lane count (>= 1).
func (n *Node) NumLanes() int { return len(n.lanes) }

// laneIndex clamps an arbitrary lane id into the node's lane range.
func (n *Node) laneIndex(lane int) int {
	if lane < 0 {
		lane = -lane
	}
	if len(n.lanes) == 0 {
		return 0
	}
	return lane % len(n.lanes)
}

// SubmitLane enqueues f on the given lane's serial executor and returns
// immediately. Work on one lane runs in submission order and never
// overlaps; distinct lanes run concurrently. After Close, f runs inline
// (teardown degradation: nothing may be dropped, because RPC replies and
// waiter signals ride on these closures).
func (n *Node) SubmitLane(lane int, f func()) {
	if !n.lanes[n.laneIndex(lane)].submit(f) {
		f()
	}
}

// doneChanPool recycles the rendezvous channels WithLaneSerial blocks
// on; at benchmark rates a fresh channel per inner region was measurable
// allocation churn (same reasoning as the Acks pool).
var doneChanPool = sync.Pool{
	New: func() any { return make(chan struct{}, 1) },
}

// WithLaneSerial runs f on the given lane's serial executor and waits
// for it to finish. Chiller inner regions execute and unilaterally
// commit inside it, so two inner regions on the same lane never race
// each other's hot locks, while inner regions on distinct lanes proceed
// in parallel — the multi-core replacement for the old node-wide
// inner-execution mutex. f must not itself submit-and-wait on the same
// lane (self-deadlock, as with any reentrant serial executor).
func (n *Node) WithLaneSerial(lane int, f func()) {
	done := doneChanPool.Get().(chan struct{})
	n.SubmitLane(lane, func() {
		f()
		done <- struct{}{}
	})
	<-done
	doneChanPool.Put(done)
}

// LaneBarrier blocks until every lane executor has drained the work
// queued before the call. It says nothing about work submitted after it
// starts — a useful barrier only on a quiesced cluster
// (deploy.Cluster.Settle runs one per node).
func (n *Node) LaneBarrier() {
	var wg sync.WaitGroup
	wg.Add(len(n.lanes))
	for i := range n.lanes {
		n.SubmitLane(i, wg.Done)
	}
	wg.Wait()
}

// Close stops the node's lane executors, draining queued work first.
// Call after the fabric is closed and engines are drained; submissions
// arriving after Close degrade to inline execution.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		for _, l := range n.lanes {
			l.close()
		}
		n.laneWG.Wait()
	})
}

// applyStream applies one replication-stream message, whole, as one job
// on the lane of the link it arrived on (inline at one lane), then calls
// done once. Per-link FIFO delivers a sender's messages in its send
// order, and a lane runs its jobs in submission order, so every message
// from one primary applies in the order it was sent — which is the
// primary's lock order, so each record's writes land in commit order
// wherever its lane placement points. A record changes primary only
// after its old primary's links are drained (FlushStreams →
// handleHandoffFlush → LaneBarrier), so no second sender can overtake.
//
// The job applies the set tolerantly, where a primary's apply is strict
// (applyWrites): a warming node added mid-handoff legitimately sees
// stream messages for records its backfill has not copied yet — an
// update to a missing key lands as an insert and a missing table is
// created, exactly the WAL-replay semantics. It then appends the set to
// the node's log as one record, still on the lane, so a message's log
// order is its apply order, and registers done on that record's
// group-commit batch: done runs once the flush has landed, on no
// goroutine of its own — a lane or the fabric dispatcher must not stall
// on a write or fsync. Replicas are durable too, which is what makes
// post-crash replica promotion safe; a flush failure is fatal (see
// CommitLocal).
func (n *Node) applyStream(from transport.NodeID, txnID, ts uint64, writes []WriteOp, done func(error)) {
	job := func() {
		if err := applyWrites(n.store, ts, writes, true); err != nil {
			done(err)
			return
		}
		tk := n.logWrites(txnID, ts, writes)
		if n.wal == nil { // no callback closure on the volatile path
			done(nil)
			return
		}
		tk.Notify(func(ferr error) {
			if ferr != nil {
				panic(fmt.Sprintf("server: node %d: replica apply %d not durable: %v", n.ID(), txnID, ferr))
			}
			done(nil)
		})
	}
	if len(n.lanes) <= 1 {
		job() // one lane: no executor hop
		return
	}
	n.SubmitLane(int(from), job) // the link's lane: SubmitLane clamps the id
}
