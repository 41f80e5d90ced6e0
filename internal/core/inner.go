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

// execInnerOnLane executes and unilaterally commits an inner region on
// this node: the whole region — lock, execute, stream, apply — runs on
// the serial executor of lane (the lane owning its hottest record), modelling
// the paper's single-threaded execution engines (one per core, several
// per node): inner regions competing for the same hot record never abort
// each other, regions on distinct lanes proceed in parallel, and the
// replication stream leaves each lane in commit order.
//
// Execution acquires bucket locks even inside the inner region (the
// paper's "general execution model", end of §3.3): static analysis alone
// cannot guarantee that no other transaction touches these records in an
// outer region, and the lock cost is negligible next to a message delay.
// The region is one lock step on the transaction's participant state
// here (server.Region): it shares the outer region's holds, and
// committing it releases only the locks it took.
//
// The region works on the coordinator's own scratch: s.Reads (the outer
// region's values on entry) is extended in place with the inner reads,
// and on success — txn.AbortNone — s.TS and s.ack carry the commit
// timestamp and the replica-ack waiter.
func (s *scratch) execInnerOnLane(n *server.Node, lane int, proc *txn.Procedure, args txn.Args, innerOps, outerOps []int) txn.AbortReason {
	var reason txn.AbortReason
	var durable wal.Ticket
	n.WithLaneSerial(lane, func() {
		reason, durable = s.execInner(n, proc, args, innerOps, outerOps)
	})
	// Durability wait off the lane, on the coordinator's goroutine: the
	// lane is free to run the next inner region while this commit's
	// group flush lands, and the coordinator cannot acknowledge the region
	// before it is durable.
	if err := durable.Wait(); err != nil {
		panic(fmt.Sprintf("core: inner commit %d not durable: %v", s.ID, err))
	}
	return reason
}

// execInner runs the inner region on the current goroutine (the owning
// lane's executor) as one lock step: the inner region's policy over
// cc.Txn takes each op's bucket lock, reads under it, and gives the op
// its meaning at once; then the outer ops get theirs. The buffered writes
// are reset on entry, so a re-requested region starts clean. The second
// return is the durability ticket of the unilateral commit — zero when
// nothing needs flushing — which the caller must wait out off-lane.
func (s *scratch) execInner(n *server.Node, proc *txn.Procedure, args txn.Args, innerOps, outerOps []int) (txn.AbortReason, wal.Ticket) {
	s.Unbuffer() // a failed earlier attempt's values must not linger
	r := n.BeginRegion(s.ID)
	defer r.End()
	// The partition whose replicas receive this region's stream. Every
	// inner op targets the one inner partition; it is resolved here from
	// the first op's record, under the directory as it is now, rather
	// than taken from the coordinator's decision: a hot-record migration
	// that re-homed the record since then must abort the region (its
	// first lock there fails the primary check), not let it commit into
	// the copy left behind. The pin that lock takes holds the handoff
	// fence open (DrainPartition waits it out), so a partition move can
	// never flip routing under a region about to commit here.
	var innerPID cluster.PartitionID
	for i, opID := range innerOps {
		if opID < 0 || opID >= len(proc.Ops) {
			return txn.AbortInternal, wal.Ticket{}
		}
		op := &proc.Ops[opID]
		key, ok := op.Key(args, s.Reads)
		if !ok {
			return txn.AbortInternal, wal.Ticket{}
		}
		if i == 0 {
			innerPID = n.Directory().Partition(storage.RID{Table: op.Table, Key: key})
		}
		// The entry says what the lock word and the store owe this op: a
		// record the region has already written is neither read nor
		// required to exist (the own-write index is its current value).
		if reason := r.LockRead(s.Entry(op, key), innerPID, s.Reads, &s.Buf); reason != txn.AbortNone {
			return reason, wal.Ticket{}
		}
		if reason := s.Step(op, args, key, innerPID, false); reason != txn.AbortNone {
			return reason, wal.Ticket{}
		}
	}
	// The outer ops' deferred half, in op order (their mutators may
	// consume inner reads), still ahead of the commit point: a failing
	// mutator or Check aborts with nothing committed. An op an earlier op
	// wrote to is observed again — its read-set entry becomes that write's
	// value, as history's replay needs. The writes buffer for the tail,
	// behind the inner ops' writes, which lead the inner partition's group.
	inner := len(s.Writes(innerPID))
	for _, opID := range outerOps {
		op := &proc.Ops[opID]
		key, ok := op.Key(args, s.Reads) // resolved once already, in lockOuter
		if !ok {
			return txn.AbortInternal, wal.Ticket{}
		}
		pid := n.Directory().Partition(storage.RID{Table: op.Table, Key: key})
		if reason := s.Step(op, args, key, pid, true); reason != txn.AbortNone {
			return reason, wal.Ticket{}
		}
	}
	// Unilateral commit (§3.3 step 4). Reserve the commit timestamp here —
	// under the hot records' locks, past the last abortable check — so
	// per-key timestamp order equals lock order. It stamps the inner stream
	// and apply and (through s.TS) every outer apply; the coordinator
	// releases it at the end of its tail. Every abort — a re-requested
	// region's lock conflict included — comes before this point but a
	// failed send's, which releases it.
	var ts uint64
	clock := n.Clock()
	if clock != nil {
		ts = clock.Reserve()
	}
	// Stream, apply and log the inner writes, as a participant's [replicate,
	// commit] frames do; a failed first send applied nothing anywhere. The
	// durability wait happens off this lane (see execInnerOnLane), after
	// End has released the region's locks.
	ack, durable, err := n.CommitInner(innerPID, s.ID, ts, s.Writes(innerPID)[:inner])
	if err != nil {
		if clock != nil {
			clock.Release(ts)
		}
		s.Detail = "inner commit: " + err.Error()
		return txn.AbortInternal, wal.Ticket{}
	}
	// Applied, streamed and logged: the tail must not commit them again.
	// Their values stay in the own-write index.
	s.DropWrites(innerPID, inner)
	s.TS, s.ack = ts, ack
	return txn.AbortNone, durable
}
