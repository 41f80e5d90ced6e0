package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/wal"
)

// Execution lanes: each node shards its execution engine into N
// single-threaded lanes, modelling the paper's "one execution engine per
// core" deployment (§2, §5) — many engines per server instead of one.
// A lane is a goroutine draining an unbounded FIFO of closures; work
// submitted to the same lane runs strictly in submission order and never
// overlaps, while distinct lanes run concurrently. The record→lane
// mapping lives in the routing directory (Directory.Lane), so every
// layer — inner-region execution, per-lane replica apply, the
// partitioner's sub-partition placement — agrees on which lane owns a
// record.
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

// Lane returns the execution lane that owns a record on this node
// (shorthand for the directory mapping).
func (n *Node) Lane(rid storage.RID) int {
	return n.laneIndex(n.dir.Lane(rid))
}

// applyByLane applies a replicated write set with each record's writes
// executed on the record's owning lane, then invokes done exactly once
// with the join of all apply errors. Grouping preserves per-lane
// submission order, which equals fabric arrival order when called from
// a verb handler — the in-order-apply property the §5 replication
// stream relies on, now maintained per lane instead of per node: two
// stream messages writing the same record always land on the same lane
// (the mapping is stable), so they apply in arrival order, while
// messages for independent lanes no longer serialize on each other.
//
// With a WAL attached, each lane's slice of the write set is appended
// to the node's log right after applying (still on the lane executor,
// so each record's log order = its apply order) and done is registered
// on the group-commit batch of the set's last record: it runs once the
// flush has landed, on no goroutine of its own — replicas are durable
// too, which is what makes post-crash replica promotion safe. A flush
// failure here is fatal (see CommitLocal).
func (n *Node) applyByLane(txnID, ts uint64, writes []WriteOp, done func(error)) {
	// applyLog runs on the lane executor (or inline at <=1 lane): apply
	// one lane's slice, then append it to the log while still on the
	// executor — the next stream message for this lane cannot apply, let
	// alone append, until this closure returns, so a record's log order
	// is its apply order. The ticket is zero when nothing was logged.
	//
	// The apply is tolerant, where a primary's is strict (applyWrites):
	// a warming node added mid-handoff legitimately sees commit-stream
	// messages for records its backfill has not copied yet — an update
	// to a missing key must land as an insert, and a missing table must
	// be created, exactly the WAL-replay semantics. Primaries keep the
	// strict apply (CommitLocal); only replicated write sets come here.
	applyLog := func(ws []WriteOp) (wal.Ticket, error) {
		if err := applyWrites(n.store, ts, ws, true); err != nil {
			return wal.Ticket{}, err
		}
		return n.logWrites(txnID, ts, ws), nil
	}
	// finish invokes done once tk is durable. The flush is never waited
	// for here — this is a lane executor or the fabric dispatcher, and a
	// write or fsync must not stall them: the log's flusher calls back.
	finish := func(tk wal.Ticket, err error) {
		if n.wal == nil { // no callback closure on the volatile path
			done(err)
			return
		}
		tk.Notify(func(ferr error) {
			if ferr != nil {
				panic(fmt.Sprintf("server: node %d: replica apply %d not durable: %v", n.ID(), txnID, ferr))
			}
			done(err)
		})
	}
	if len(writes) == 0 {
		done(nil)
		return
	}
	var buf [4]laneGroup
	groups := n.groupByLane(writes, buf[:])
	if len(groups) == 1 {
		g := groups[0]
		if len(n.lanes) <= 1 {
			finish(applyLog(g.writes)) // inline, as before lanes
			return
		}
		n.SubmitLane(g.lane, func() {
			finish(applyLog(g.writes))
		})
		return
	}
	// One ticket stands for the set: the highest LSN its lanes logged.
	var mu sync.Mutex
	pending := len(groups)
	var errs []error
	var last wal.Ticket
	for _, g := range groups {
		n.SubmitLane(g.lane, func() {
			tk, err := applyLog(g.writes)
			mu.Lock()
			if err != nil {
				errs = append(errs, err)
			}
			if tk.LSN() > last.LSN() {
				last = tk
			}
			pending--
			joined := pending == 0
			mu.Unlock()
			if joined {
				finish(last, errors.Join(errs...))
			}
		})
	}
}

// laneGroup is one lane's share of a write set.
type laneGroup struct {
	lane   int
	writes []WriteOp
}

// groupByLane splits a write set by owning lane, each share keeping the
// set's order. Every write's lane is resolved once; the shares are then
// dealt, lane by lane in order of first appearance, into one array of
// the set's exact size — the call's one allocation while the groups fit
// buf (a small array off the caller's stack). A set that belongs to one
// lane costs none: its group is the caller's slice, not a copy.
func (n *Node) groupByLane(writes []WriteOp, buf []laneGroup) []laneGroup {
	var laneBuf [64]int // on the stack up to 64 writes
	lanes := laneBuf[:0]
	groups := buf[:0]
	for i := range writes {
		lane := 0
		if len(n.lanes) > 1 {
			lane = n.Lane(storage.RID{Table: writes[i].Table, Key: writes[i].Key})
		}
		lanes = append(lanes, lane)
		if !slices.ContainsFunc(groups, func(g laneGroup) bool { return g.lane == lane }) {
			groups = append(groups, laneGroup{lane: lane})
		}
	}
	if len(groups) == 1 {
		groups[0].writes = writes
		return groups
	}
	dealt := make([]WriteOp, 0, len(writes))
	for g := range groups {
		start := len(dealt)
		for i, lane := range lanes {
			if lane == groups[g].lane {
				dealt = append(dealt, writes[i])
			}
		}
		groups[g].writes = dealt[start:len(dealt):len(dealt)]
	}
	return groups
}
