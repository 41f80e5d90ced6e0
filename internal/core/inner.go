package core

import (
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
	"github.com/chillerdb/chiller/internal/wire"
)

// encodeRouteRequest serializes a transaction-placement request.
func encodeRouteRequest(req *txn.Request) []byte {
	w := wire.NewWriter(64 + len(req.Args)*8)
	w.Uint64(req.ID)
	w.String(req.Proc)
	w.Int64s(req.Args)
	return w.Bytes()
}

func decodeRouteRequest(p []byte) (*txn.Request, error) {
	r := wire.NewReader(p)
	req := &txn.Request{}
	req.ID = r.Uint64()
	req.Proc = r.String()
	req.Args = r.Int64s()
	return req, r.Err()
}

// encodeRouteResult serializes the routed transaction's outcome,
// including the abort Detail — the node-naming attribution must survive
// the route hop or routed aborts would reach the client unattributed.
func encodeRouteResult(res *txn.Result) []byte {
	w := wire.NewWriter(64)
	w.Bool(res.Committed)
	w.Uint8(uint8(res.Reason))
	w.Bool(res.Distributed)
	w.String(res.Detail)
	res.Reads.Encode(w)
	return w.Bytes()
}

func decodeRouteResult(p []byte) (txn.Result, error) {
	r := wire.NewReader(p)
	res := txn.Result{}
	res.Committed = r.Bool()
	res.Reason = txn.AbortReason(r.Uint8())
	res.Distributed = r.Bool()
	res.Detail = r.String()
	res.Reads = txn.DecodeReadSet(r, nil)
	return res, r.Err()
}

// route ships the request to its inner host for coordination there
// (§4.2's transaction placement) and returns that coordinator's verdict.
// A route that fails is a retryable abort naming the host, never a
// second execution from here: over a real wire a failed call is
// at-most-once, not never-happened (docs/NETWORK.md), so the routed copy
// may have committed.
func (e *Engine) route(host transport.NodeID, req *txn.Request) txn.Result {
	start := time.Now()
	raw, err := e.node.Endpoint().Call(host, server.VerbTxnRoute, encodeRouteRequest(req))
	e.node.VerbMetrics().Observe(server.KindRoute, time.Since(start))
	var res txn.Result
	if err == nil {
		res, err = decodeRouteResult(raw)
	}
	if err != nil { // an undecodable reply classifies as internal
		return txn.Result{
			Reason: server.TransportAbortReason(err),
			Detail: fmt.Sprintf("route to inner host node %d: %v", host, err),
		}
	}
	return res
}

// innerLane picks the execution lane that serializes an inner region:
// the lane owning the region's most contended record (by the §4.4
// lookup table's weight), so all inner regions competing for the same
// hot record land on the same single-threaded lane and never NO_WAIT-
// abort each other — the per-lane restatement of the paper's
// single-threaded-engine argument. Records whose keys depend on inner
// reads are skipped (unresolvable pre-execution); a region with no
// resolvable key runs on lane 0. Conflicts between regions placed on
// different lanes (overlap on a record that is hottest in neither) are
// still arbitrated by the bucket lock words, backed by the
// coordinator's bounded re-request ladder.
func innerLane(n *server.Node, proc *txn.Procedure, args txn.Args, innerOps []int, reads txn.ReadSet) int {
	dir := n.Directory()
	if dir.Lanes() <= 1 {
		return 0
	}
	lane, bestW := 0, -1.0
	for _, opID := range innerOps {
		if opID < 0 || opID >= len(proc.Ops) {
			continue
		}
		op := &proc.Ops[opID]
		key, ok := op.Key(args, reads)
		if !ok {
			continue
		}
		rid := storage.RID{Table: op.Table, Key: key}
		if w := dir.HotWeight(rid); w > bestW {
			bestW = w
			lane = dir.Lane(rid)
		}
	}
	return lane
}

// execInnerOnLane executes and unilaterally commits an inner region on
// this node: the whole region — lock, execute, commit, stream — runs on
// the serial executor of the lane owning its hottest record, modelling
// the paper's single-threaded execution engines (one per core, several
// per node): inner regions competing for the same hot record never abort
// each other, regions on distinct lanes proceed in parallel, and the
// replication stream leaves each lane in commit order.
//
// Execution acquires bucket locks even inside the inner region (the
// paper's "general execution model", end of §3.3): static analysis alone
// cannot guarantee that no other transaction touches these records in an
// outer region, and the lock cost is negligible next to a message delay.
// The inner region's locks are tracked privately (never in the node's
// participant-state map), so committing the inner region cannot release
// outer locks the coordinator may hold on this same node under the same
// transaction id.
//
// The region works on the coordinator's own scratch: s.Reads (the outer
// region's values on entry) is extended in place with the inner reads,
// and on success — txn.AbortNone — s.TS and s.ack carry the commit
// timestamp and the replica-ack waiter.
func (s *scratch) execInnerOnLane(n *server.Node, proc *txn.Procedure, args txn.Args, innerOps []int) txn.AbortReason {
	var reason txn.AbortReason
	var durable wal.Ticket
	n.WithLaneSerial(innerLane(n, proc, args, innerOps, s.Reads), func() {
		reason, durable = s.execInner(n, proc, args, innerOps)
	})
	// Durability wait off the lane, on the coordinator's goroutine: the
	// lane is free to run the next inner region while this commit's
	// group flush lands, and the coordinator cannot acknowledge (or
	// build outer writes on) the region before it is durable.
	if err := durable.Wait(); err != nil {
		panic(fmt.Sprintf("core: inner commit %d not durable: %v", s.ID, err))
	}
	return reason
}

// innerLockRef is one bucket lock held by an in-flight inner region.
// Inner regions keep their lock set in the scratch instead of the
// node's participant-state map: they never outlive the call (commit or
// abort happens before returning, on the owning lane), so the map
// bookkeeping, its locking, and the per-op LockResponse allocations of
// the general path are pure overhead here — and on the coordinator hot
// path that overhead dominated the profile.
type innerLockRef struct {
	b    *storage.Bucket
	mode storage.LockMode
}

// execInner runs the inner region on the current goroutine (the owning
// lane's executor): the inner region's policy over cc.Txn takes each
// op's bucket lock on this lane, reads under it, and gives the op its
// meaning at once. The buffered writes are reset on entry (the lock refs
// when the region lets go of them), so a re-requested region starts
// clean. The second return is the durability ticket of the unilateral
// commit — zero when nothing needs flushing — which the caller must wait
// out off-lane before building on the region.
func (s *scratch) execInner(n *server.Node, proc *txn.Procedure, args txn.Args, innerOps []int) (txn.AbortReason, wal.Ticket) {
	s.Unbuffer() // a failed earlier attempt's values must not linger
	txnID, reads := s.ID, s.Reads
	// The partition whose replicas receive this region's stream. Every
	// inner op targets the one inner partition; it is resolved here from
	// the first op's record, under the directory as it is now, rather
	// than taken from the coordinator's decision: a hot-record migration
	// that re-homed the record since then must abort the region (the pin
	// below fails), not let it commit into the copy left behind.
	var innerPID cluster.PartitionID
	// entered tracks the partition pin taken at innerPID resolution; the
	// pin holds the handoff fence open (DrainPartition waits it out), so
	// a mid-flight partition move can never flip routing under a region
	// that is about to unilaterally commit here.
	entered := false

	release := func() {
		for _, l := range s.locks {
			l.b.Lock.Unlock(l.mode)
		}
		clear(s.locks) // the pooled scratch pins no bucket
		s.locks = s.locks[:0]
		if entered {
			n.LeavePartition(innerPID)
		}
	}
	abort := func(reason txn.AbortReason) (txn.AbortReason, wal.Ticket) {
		release()
		return reason, wal.Ticket{}
	}
	// lock acquires b in the requested mode, deduplicating against locks
	// this inner region already holds (same semantics as the participant
	// state's hasLock: shared is covered by exclusive, shared→exclusive
	// upgrades in place). The lock word still arbitrates against outer
	// regions and remote coordinators.
	lock := func(b *storage.Bucket, mode storage.LockMode) bool {
		for i := range s.locks {
			if s.locks[i].b != b {
				continue
			}
			if s.locks[i].mode == storage.LockExclusive || mode == storage.LockShared {
				return true
			}
			if !b.Lock.Upgrade() {
				return false
			}
			s.locks[i].mode = storage.LockExclusive
			return true
		}
		if b.Lock.TryLock(mode) {
			s.locks = append(s.locks, innerLockRef{b: b, mode: mode})
			return true
		}
		// Conflict — possibly with OURSELVES: an inner record may share
		// a bucket with a record the same transaction's outer region has
		// already locked on this node (records are disjoint, buckets are
		// hashed), and NO_WAIT against our own outer lock would
		// self-abort the transaction on every retry, forever. Borrow the
		// outer hold instead: a sufficient mode is free; held-shared
		// upgrades in place with the participant state's bookkeeping
		// updated so the outer release matches. Borrowed buckets are not
		// tracked in s.locks — they stay locked until the outer region
		// commits or aborts, which is exactly the span the colliding
		// outer record needs anyway. The check runs only on conflict, so
		// the common no-collision path costs nothing.
		heldMode, held := n.HeldLockMode(txnID, b)
		if !held {
			return false
		}
		if heldMode == storage.LockExclusive || mode == storage.LockShared {
			return true
		}
		if !b.Lock.Upgrade() {
			return false
		}
		n.PromoteHeldLock(txnID, b)
		return true
	}

	for _, opID := range innerOps {
		if opID < 0 || opID >= len(proc.Ops) {
			return abort(txn.AbortInternal)
		}
		op := &proc.Ops[opID]
		key, ok := op.Key(args, reads)
		if !ok {
			return abort(txn.AbortInternal)
		}
		tbl := n.Store().Table(op.Table)
		if tbl == nil {
			return abort(txn.AbortInternal)
		}
		if !entered {
			innerPID = n.Directory().Partition(storage.RID{Table: op.Table, Key: key})
			// Fenced (mid-handoff) or no longer primary: the region must
			// re-route. AbortMoved is retryable at the client, and the
			// retry re-reads the directory, landing on the new primary.
			if !n.EnterPartition(innerPID) {
				return abort(txn.AbortMoved)
			}
			entered = true
		}
		// The entry says what the lock word and the store owe this op: a
		// record the region has already written is neither read nor
		// required to exist (the own-write index is its current value).
		le := s.Entry(op, key)
		b := tbl.Bucket(key)
		if !lock(b, le.Mode) {
			return abort(txn.AbortLockConflict)
		}
		if le.MustExist {
			v, _, err := b.Get(key)
			if err != nil {
				return abort(txn.AbortNotFound)
			}
			if le.Read {
				reads[opID] = v
			}
		}
		if reason := s.Step(op, args, key, innerPID, false); reason != txn.AbortNone {
			return abort(reason)
		}
	}
	writes := s.WriteSets()[innerPID]

	// Unilateral commit: stream to the replicas, apply the writes, and
	// release the inner locks. From the apply onward the transaction is
	// committed (§3.3 step 4); the outer region can no longer abort it.
	if n.FaultInjector != nil {
		if err := n.FaultInjector(server.VerbCommit, txnID); err != nil {
			return abort(txn.AbortInternal)
		}
	}

	// Reserve the transaction's commit timestamp here — under the inner
	// region's bucket locks, past the last abortable check — so per-key
	// timestamp order equals lock order on the hot records. The stamp
	// covers the inner stream, the local apply, and (through s.ts) every
	// outer apply; the coordinator releases it at the end of its commit
	// tail. The re-request ladder cannot double-reserve: a lock conflict
	// aborts before this point, and a committed region ends the ladder.
	// The two failure paths below release immediately — they apply nothing
	// anywhere.
	var ts uint64
	clock := n.Clock()
	if clock != nil {
		ts = clock.Reserve()
	}

	// Stream the new values to this partition's replicas without
	// waiting; replicas acknowledge to this node, the coordinator
	// (Figure 6). The stream is enqueued *before* the local apply and
	// before the bucket locks release, for two load-bearing reasons: (a)
	// conflicting inner regions (on other lanes, or outer regions of other
	// transactions) are serialized only by these locks, so sending under
	// them keeps stream order equal to commit order for every record
	// (per-link FIFO delivery and per-lane replica apply do the rest); and
	// (b) the send is the last step that can fail (fabric closing,
	// partition window) — failing it before anything is applied lets the
	// inner region abort cleanly instead of stranding a half-applied
	// transaction that the coordinator reports as aborted. The send is a
	// local enqueue and never waits on the network.
	// Capture the stream targets once, while the bucket locks (and the
	// partition pin) are held: the same snapshot sizes the ack wait —
	// registered before the first send, so no ack can race past it — and
	// receives the sends, so a warming replica added mid-handoff is either
	// in both or in neither. A region with no writes streams nothing and
	// its waiter is born fired.
	var targets []transport.NodeID
	if len(writes) > 0 {
		targets = n.Directory().Topology().StreamTargets(innerPID)
	}
	ack := n.ExpectInnerAcks(txnID, len(targets))
	fail := func() (txn.AbortReason, wal.Ticket) {
		n.CancelInnerAcks(txnID)
		n.ReleaseInnerWaiter(ack)
		if clock != nil {
			clock.Release(ts)
		}
		return abort(txn.AbortInternal)
	}
	if sent, err := n.StreamInnerRepl(targets, n.ID(), txnID, ts, writes); err != nil {
		if sent > 0 {
			// A partially-sent stream means some replica will apply a
			// write set this abort disowns; no compensation exists, so
			// surface the invariant violation (only reachable by a
			// blunt-mode partition or a mid-traffic fabric Close —
			// every fault plan protects the stream).
			panic(fmt.Sprintf("core: inner replication stream partially sent (%d replicas) then failed (txn %d): %v", sent, txnID, err))
		}
		return fail()
	}
	// The values are the ones this region's mutators just built: the
	// store takes them as they are (txn.MutateFunc's ownership rule).
	if err := server.ApplyWrites(n.Store(), ts, writes, true); err != nil {
		// A write to a locked, verified record cannot legitimately fail;
		// engine invariant violation.
		return fail()
	}
	// Append to the lane's WAL while the bucket locks are still held —
	// log order must equal commit order — then release. The ticket is
	// returned to the caller: the coordinator must not build on (or
	// acknowledge) the region before the record is durable, but the wait
	// must happen OFF this lane's executor (blocking it would cap the
	// lane at one inner region per flush; see execInnerOnLane).
	durable := n.LogWrites(txnID, ts, writes)
	release()
	// Applied, streamed and logged: the tail must not commit them again.
	// Their values stay in the own-write index for the outer ops.
	s.DropWrites()
	s.TS, s.ack = ts, ack
	return txn.AbortNone, durable
}
