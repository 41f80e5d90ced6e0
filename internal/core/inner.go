package core

import (
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

// innerRequest is the RPC the coordinator sends to the inner host
// (step 4 of §3.3): "all information needed to execute and commit the
// transaction (transaction ID, all remaining operation IDs, input
// parameters, etc.)".
type innerRequest struct {
	TxnID    uint64
	Coord    transport.NodeID
	Proc     string
	Args     txn.Args
	InnerOps []int
	Reads    txn.ReadSet // outer-region values the inner ops may need
}

func (r *innerRequest) encode() []byte {
	w := wire.NewWriter(128)
	w.Uint64(r.TxnID)
	w.Uint32(uint32(r.Coord))
	w.String(r.Proc)
	w.Int64s(r.Args)
	w.Ints(r.InnerOps)
	r.Reads.Encode(w)
	return w.Bytes()
}

func decodeInnerRequest(p []byte) (*innerRequest, error) {
	r := wire.NewReader(p)
	req := &innerRequest{}
	req.TxnID = r.Uint64()
	req.Coord = transport.NodeID(r.Uint32())
	req.Proc = r.String()
	req.Args = r.Int64s()
	req.InnerOps = r.Ints()
	req.Reads = txn.DecodeReadSet(r, nil)
	return req, r.Err()
}

// innerResponse reports the inner host's unilateral decision plus the
// values it read (the coordinator needs them to materialize outer writes
// with v-deps on the inner region — e.g. Figure 4's cost value flowing
// back to the customer-balance update).
type innerResponse struct {
	OK     bool
	Reason txn.AbortReason
	Reads  txn.ReadSet
	// TS is the commit timestamp the inner host reserved at its
	// unilateral commit point (zero when MVCC is off). The coordinator
	// stamps every outer apply with it and releases it once the commit
	// wave has landed cluster-wide.
	TS uint64
	// Streamed is how many replication-stream messages the inner host
	// sent for this region — the number of acks the coordinator must
	// wait out. It is a count the host alone knows: the stream targets
	// are captured from the host's topology snapshot, which can include
	// a warming replica mid-handoff that the coordinator's view lacks.
	Streamed int
	// detail is coordinator-local failure context (transport errors on
	// the delegation RPC); it never travels on the wire.
	detail string
}

func (r *innerResponse) encode() []byte {
	w := wire.NewWriter(64)
	w.Bool(r.OK)
	w.Uint8(uint8(r.Reason))
	w.Uint64(r.TS)
	w.Uint32(uint32(r.Streamed))
	r.Reads.Encode(w)
	return w.Bytes()
}

func decodeInnerResponse(p []byte) (*innerResponse, error) {
	r := wire.NewReader(p)
	resp := &innerResponse{}
	resp.OK = r.Bool()
	resp.Reason = txn.AbortReason(r.Uint8())
	resp.TS = r.Uint64()
	resp.Streamed = int(r.Uint32())
	resp.Reads = txn.DecodeReadSet(r, nil)
	return resp, r.Err()
}

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
// (§4.2's transaction placement). ok=false means routing could not be
// attempted and the caller should coordinate locally.
func (e *Engine) route(host transport.NodeID, req *txn.Request) (txn.Result, bool) {
	start := time.Now()
	raw, err := e.node.Endpoint().Call(host, server.VerbTxnRoute, encodeRouteRequest(req))
	e.node.VerbMetrics().Observe(server.KindRoute, time.Since(start))
	if err != nil {
		return txn.Result{}, false
	}
	res, derr := decodeRouteResult(raw)
	if derr != nil {
		return txn.Result{Reason: txn.AbortInternal}, true
	}
	return res, true
}

// RegisterVerbs installs the inner-region execution handler on a node.
// Every node that can host an inner region needs it.
func RegisterVerbs(n *server.Node) {
	n.Endpoint().HandleAsync(server.VerbInnerExec, func(_ transport.NodeID, raw []byte, reply func([]byte, error)) {
		// Inner execution is the heaviest handler in the system, so
		// neither it nor its request decode may run inline on the
		// fabric's dispatcher. On a single-lane node the lane is known
		// without decoding, so the whole request (decode included)
		// ships straight to lane 0; on a multi-lane node a fresh
		// goroutine decodes and decides the lane, then submits the
		// region to the owning lane's serial executor with the reply
		// firing from the lane (pre-submission order is irrelevant —
		// same-lane order is established by the submission itself).
		// Ordering of the replication stream is guaranteed per lane
		// (commit order == stream order on a lane; cross-lane conflicts
		// are ordered by the bucket locks held across the stream send),
		// not by delivery order.
		serve := func(raw []byte) {
			req, err := decodeInnerRequest(raw)
			if err != nil {
				reply(nil, err)
				return
			}
			proc := n.Registry().Lookup(req.Proc)
			if proc == nil {
				reply((&innerResponse{Reason: txn.AbortInternal}).encode(), nil)
				return
			}
			// req.Reads was freshly decoded, so the inner region
			// extends it in place; collect gathers the inner reads for
			// the response.
			collect := make(txn.ReadSet, len(req.InnerOps))
			exec := func() {
				sc := newScratch()
				resp, wait := sc.execInner(n, req.TxnID, req.Coord, proc, req.Args, req.InnerOps, req.Reads, collect)
				sc.release()
				if wait == nil {
					reply(resp.encode(), nil)
					return
				}
				// The reply is the region's commit acknowledgement:
				// hold it until the WAL flush lands, but on a fresh
				// goroutine so the lane executor moves on to the next
				// inner region while this one's fsync batch is pending.
				go func() {
					if err := wait(); err != nil {
						panic(fmt.Sprintf("core: inner commit %d not durable: %v", req.TxnID, err))
					}
					reply(resp.encode(), nil)
				}()
			}
			if n.NumLanes() <= 1 {
				exec() // already on lane 0
				return
			}
			n.SubmitLane(innerLane(n, proc, req.Args, req.InnerOps, req.Reads), exec)
		}
		if n.NumLanes() <= 1 {
			n.SubmitLane(0, func() { serve(raw) })
			return
		}
		go serve(raw)
	})
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

// execInner delegates the inner region: a direct call when the inner host
// is this node (the common case after contention-aware partitioning — the
// coordinator was placed with the hot data), an RPC otherwise. On the
// direct path the region borrows the coordinator's scratch, the
// coordinator's read set is extended in place and the response carries
// no separate read set.
func (e *Engine) execInner(s *scratch, innerNode transport.NodeID, proc *txn.Procedure, req *innerRequest) innerResponse {
	if innerNode == e.node.ID() {
		return s.execInnerOnLane(e.node, req.TxnID, req.Coord, proc, req.Args, req.InnerOps, req.Reads, nil)
	}
	start := time.Now()
	raw, err := e.node.Endpoint().Call(innerNode, server.VerbInnerExec, req.encode())
	e.node.VerbMetrics().Observe(server.KindInnerExec, time.Since(start))
	if err != nil {
		return innerResponse{
			Reason: server.TransportAbortReason(err),
			detail: fmt.Sprintf("inner exec at node %d: %v", innerNode, err),
		}
	}
	resp, derr := decodeInnerResponse(raw)
	if derr != nil {
		return innerResponse{Reason: txn.AbortInternal, detail: fmt.Sprintf("inner exec at node %d: %v", innerNode, derr)}
	}
	return *resp
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
// reads is the working read set (the outer region's values on entry); it
// is extended IN PLACE with the inner region's reads, which lets a
// co-located coordinator hand over its own read set and skip both the
// defensive copy and the merge. The returned response's Reads aliases
// collect when non-nil (the RPC path's response set) and is nil
// otherwise.
func (s *scratch) execInnerOnLane(n *server.Node, txnID uint64, coord transport.NodeID, proc *txn.Procedure, args txn.Args, innerOps []int, reads txn.ReadSet, collect txn.ReadSet) innerResponse {
	var resp innerResponse
	var wait func() error
	n.WithLaneSerial(innerLane(n, proc, args, innerOps, reads), func() {
		resp, wait = s.execInner(n, txnID, coord, proc, args, innerOps, reads, collect)
	})
	// Durability wait off the lane, on the coordinator's goroutine: the
	// lane is free to run the next inner region while this commit's
	// group flush lands, and the coordinator cannot acknowledge (or
	// build outer writes on) the region before it is durable.
	if wait != nil {
		if err := wait(); err != nil {
			panic(fmt.Sprintf("core: inner commit %d not durable: %v", txnID, err))
		}
	}
	return resp
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
// lane's executor), buffering its writes and lock refs in s; both are
// reset on entry, so a re-requested region starts clean. The second
// return is the durability wait for the unilateral commit — nil when
// nothing needs flushing — which the caller must complete off-lane
// before acknowledging the region.
func (s *scratch) execInner(n *server.Node, txnID uint64, coord transport.NodeID, proc *txn.Procedure, args txn.Args, innerOps []int, reads txn.ReadSet, collect txn.ReadSet) (innerResponse, func() error) {
	clear(s.writes) // a failed earlier attempt's values must not linger
	s.writes, s.locks = s.writes[:0], s.locks[:0]
	// The partition whose replicas receive this region's stream. Every
	// inner op targets the single delegated partition; resolve it from
	// the first op's record rather than this node's identity, which
	// diverge after a replica promotion (the new primary executes inner
	// regions for the adopted partition). Falls back to the node's own
	// partition for a region with no ops.
	innerPID := n.Partition()
	innerPIDSet := false
	// entered tracks the partition pin taken at innerPID resolution; the
	// pin holds the handoff fence open (DrainPartition waits it out), so
	// a mid-flight partition move can never flip routing under a region
	// that is about to unilaterally commit here.
	entered := false

	release := func() {
		for _, l := range s.locks {
			l.b.Lock.Unlock(l.mode)
		}
		if entered {
			n.LeavePartition(innerPID)
			entered = false
		}
	}
	abort := func(reason txn.AbortReason) (innerResponse, func() error) {
		release()
		return innerResponse{Reason: reason}, nil
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
		if !innerPIDSet {
			innerPID = n.Directory().Partition(storage.RID{Table: op.Table, Key: key})
			innerPIDSet = true
			// Fenced (mid-handoff) or no longer primary: the region must
			// re-route. AbortMoved is retryable at the client, and the
			// retry re-reads the directory, landing on the new primary.
			if !n.EnterPartition(innerPID) {
				return abort(txn.AbortMoved)
			}
			entered = true
		}
		b := tbl.Bucket(key)
		if !lock(b, op.Type.LockMode()) {
			return abort(txn.AbortLockConflict)
		}

		read := op.Type == txn.OpRead || op.Type == txn.OpUpdate
		if read || op.Type != txn.OpInsert {
			// Read your own writes: the region's latest buffered write
			// to the record, if any, is its current value. The write
			// list is the index: a region is a few dozen ops at most.
			var v []byte
			own := false
			for i := len(s.writes) - 1; i >= 0 && !own; i-- {
				if w := &s.writes[i]; w.Key == key && w.Table == op.Table {
					v, own = w.Value, true
				}
			}
			if !own {
				var err error
				v, _, err = b.Get(key)
				if err != nil {
					if op.Type != txn.OpInsert {
						return abort(txn.AbortNotFound)
					}
					v = nil
				}
			}
			if read {
				reads[opID] = v
				if collect != nil {
					collect[opID] = v
				}
			}
		}
		if op.Check != nil {
			if err := op.Check(reads[opID], args, reads); err != nil {
				return abort(txn.AbortConstraint)
			}
		}
		if op.Type.IsWrite() {
			var newVal []byte
			if op.Type != txn.OpDelete {
				var old []byte
				if op.Type == txn.OpUpdate {
					old = reads[opID]
				}
				nv, err := op.Mutate(old, args, reads)
				if err != nil {
					return abort(txn.AbortConstraint)
				}
				newVal = nv
			}
			s.writes = append(s.writes, server.WriteOp{
				Table: op.Table, Key: key, Type: op.Type, Value: newVal,
			})
		}
	}
	writes := s.writes

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
	// covers the inner stream, the local apply, and (carried back in the
	// response) every outer apply; the coordinator releases it at the end
	// of its commit tail. The re-request ladder cannot double-reserve: a
	// lock conflict aborts before this point, and a committed region
	// (reserved) answers OK, which ends the ladder. The two failure paths
	// below release immediately — they apply nothing anywhere.
	var ts uint64
	clock := n.Clock()
	if clock != nil {
		ts = clock.Reserve()
	}

	// Stream the new values to this partition's replicas without
	// waiting; replicas acknowledge to the coordinator (Figure 6). The
	// stream is enqueued *before* the local apply and before the bucket
	// locks release, for two load-bearing reasons: (a) conflicting inner
	// regions (on other lanes, or outer regions of other transactions)
	// are serialized only by these locks, so sending under them keeps
	// stream order equal to commit order for every record (per-link FIFO
	// delivery and per-lane replica apply do the rest); and (b) the send
	// is the last step that can fail (fabric closing, partition window) —
	// failing it before anything is applied lets the inner region abort
	// cleanly instead of stranding a half-applied transaction that the
	// coordinator reports as aborted. The send is a local enqueue and
	// never waits on the network.
	// Capture the stream targets once, while the bucket locks (and the
	// partition pin) are held: the same snapshot sizes the coordinator's
	// ack wait (Streamed, below) and receives the sends, so a warming
	// replica added mid-handoff is either in both or in neither.
	targets := n.Directory().Topology().StreamTargets(innerPID)
	streamed := 0
	if len(writes) > 0 {
		sent, err := n.StreamInnerRepl(targets, txnID, ts, coord, writes)
		if err != nil {
			if sent > 0 {
				// A partially-sent stream means some replica will apply a
				// write set this abort disowns; no compensation exists, so
				// surface the invariant violation (only reachable by a
				// blunt-mode partition or a mid-traffic fabric Close —
				// every fault plan protects the stream).
				panic(fmt.Sprintf("core: inner replication stream partially sent (%d replicas) then failed (txn %d): %v", sent, txnID, err))
			}
			if clock != nil {
				clock.Release(ts)
			}
			return abort(txn.AbortInternal)
		}
		streamed = sent
	}
	// The values are the ones this region's mutators just built: the
	// store takes them as they are (txn.MutateFunc's ownership rule).
	if err := server.ApplyWrites(n.Store(), ts, writes, true); err != nil {
		// A write to a locked, verified record cannot legitimately fail;
		// engine invariant violation.
		if clock != nil {
			clock.Release(ts)
		}
		return abort(txn.AbortInternal)
	}
	// Append to the lane's WAL while the bucket locks are still held —
	// log order must equal commit order — then release. The flush wait
	// is returned to the caller: the inner region's reply is its commit
	// acknowledgement, so the reply must not leave the node before the
	// record is durable, but the wait must happen OFF this lane's
	// executor (blocking it would cap the lane at one inner region per
	// fsync batch; see execInnerOnLane and RegisterVerbs).
	wait := n.LogWrites(txnID, ts, writes)
	release()
	// A region with no writes streamed nothing; Streamed = 0 resolves the
	// coordinator's pending ack wait immediately (no self-ack loop — the
	// coordinator no longer guesses the replica count from its own
	// topology view).
	return innerResponse{OK: true, Reads: collect, TS: ts, Streamed: streamed}, wait
}
