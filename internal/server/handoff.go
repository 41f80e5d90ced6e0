package server

import (
	"errors"
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

// Live partition handoff (docs/ELASTICITY.md). The protocol moves a
// partition's primary role to another node — a joiner taking over
// capacity, or a survivor absorbing a departing node's partitions —
// without a global quiesce:
//
//  1. AddWarming: the target starts receiving every commit on the
//     primary's §5 replication streams (it is a stream target from the
//     snapshot's publication on).
//  2. Backfill: the primary walks its buckets under shared lock words
//     and streams the partition's existing records to the target over
//     the SAME per-link FIFO streams the commits ride, so a backfilled
//     value can never overtake the commit that superseded it.
//  3. Fence + drain: new lock acquisitions and inner regions for the
//     partition abort with AbortMoved (retryable); transactions already
//     pinned run to completion. NO_WAIT locking bounds the drain.
//  4. Flush: a VerbHandoffFlush round trip to each stream target,
//     ordered behind all earlier stream sends by per-link FIFO; the
//     target replies after a lane barrier, certifying every queued
//     apply landed.
//  5. Flip: CommitWarming + Promote swap the layout atomically; the
//     fence lifts; aborted-moved retries re-route to the new primary.
//     The demoted primary stays on as a synced replica.
//
// Writers never stop cluster-wide: only the partition being moved
// rejects new work, and only for the fence→flip window (microseconds of
// drain, one flush round trip).

// backfillBit namespaces backfill stream ids away from transaction ids
// and their outer-ack keys (outerAckBit), so all three ack kinds share
// the node's ack table without collisions.
const backfillBit = uint64(1) << 62

// handoffDrainTimeout bounds the fence→drain wait; NO_WAIT locking
// finishes pinned transactions in microseconds, so hitting this means a
// wedged coordinator and the handoff aborts rather than forcing a flip.
const handoffDrainTimeout = 10 * time.Second

// PeerDirectory is the optional fabric interface for transports that
// address peers by explicit endpoint addresses (tcpnet). Fabrics with
// implicit addressing (simnet) do not implement it and need no address
// exchange during membership changes.
type PeerDirectory interface {
	SetPeers(map[transport.NodeID]string)
	Peers() map[transport.NodeID]string
}

// BackfillPartition streams every record of partition pid this node
// holds to the warming target over the §5 replication stream verb,
// returning once the target acknowledged every message. Writers keep
// committing throughout: each bucket is captured under a shared lock
// word (concurrent exclusive holders briefly NO_WAIT-abort and retry),
// and because backfill messages and commit streams share one per-link
// FIFO, the target applies them in an order consistent with commit
// order. Duplicate applies (a record both backfilled and streamed by a
// racing commit) are idempotent at equal timestamps.
func (n *Node) BackfillPartition(pid cluster.PartitionID, to transport.NodeID) error {
	fid := n.NextTxnID() | backfillBit
	ack := n.ExpectPendingAcks(fid)
	sent, target := 0, []transport.NodeID{to}
	var serr error
	for _, tid := range n.store.Tables() {
		tbl := n.store.Table(tid)
		if tbl == nil || serr != nil {
			continue
		}
		for i := 0; i < tbl.NumBuckets(); i++ {
			b := tbl.BucketAt(i)
			// Spin for the shared grant: NO_WAIT writers hold the word
			// only across a lock wave plus commit, so the wait is short.
			for !b.Lock.TryLock(storage.LockShared) {
				time.Sleep(2 * time.Microsecond)
			}
			recs := b.SnapshotTS()
			// One message per distinct commit timestamp: the stream
			// payload carries a single ts, and a stamped (MVCC) apply
			// must preserve each record's position in version order.
			byTS := make(map[uint64][]WriteOp)
			for _, r := range recs {
				rid := storage.RID{Table: tbl.ID(), Key: r.Key}
				if n.dir.Partition(rid) != pid {
					continue
				}
				byTS[r.TS] = append(byTS[r.TS], WriteOp{Table: tbl.ID(), Key: r.Key, Type: txn.OpInsert, Value: r.Value})
			}
			for ts, ws := range byTS {
				s, err := n.StreamInnerRepl(target, n.ID(), fid, ts, ws)
				if sent += s; err != nil {
					serr = fmt.Errorf("server: backfill of partition %d: %w", pid, err)
					break
				}
			}
			b.Lock.Unlock(storage.LockShared)
			if serr != nil {
				break
			}
		}
	}
	if serr != nil {
		n.CancelInnerAcks(fid)
		n.ReleaseInnerWaiter(ack)
		return serr
	}
	n.ResolveInnerAcks(fid, sent)
	return n.AwaitAcks(fid, ack)
}

// HandoffPartition runs the full handoff protocol above, moving the
// primary role for pid from this node to `to`. When `to` is already a
// synced replica (a departing node handing its partition to a survivor)
// the backfill is skipped — the streams kept it current all along. On
// return the local topology names `to` primary and this node a replica;
// multi-process deployments broadcast the new layout afterwards (see
// RunHandoff).
func (n *Node) HandoffPartition(pid cluster.PartitionID, to transport.NodeID) error {
	topo := n.dir.Topology()
	if topo.Primary(pid) != n.ID() {
		return fmt.Errorf("server: node %d is not primary of partition %d (primary is %d)", n.ID(), pid, topo.Primary(pid))
	}
	if to == n.ID() {
		return nil
	}
	warming := true
	for _, r := range topo.Replicas(pid) {
		if r == to {
			warming = false
			break
		}
	}
	abort := func(err error) error {
		if warming {
			topo.RemoveWarming(pid, to)
		}
		return err
	}
	if warming {
		if err := topo.AddWarming(pid, to); err != nil {
			return err
		}
		if err := n.BackfillPartition(pid, to); err != nil {
			return abort(err)
		}
	}
	// Cutover. Pinned transactions keep committing here through the
	// fence (it closes only the front door), and their stream messages
	// are ordered before the flush marker on every link.
	n.Fence(pid)
	if err := n.DrainPartition(pid, handoffDrainTimeout); err != nil {
		n.Unfence(pid)
		return abort(err)
	}
	if err := n.FlushStreams(pid, to, warming); err != nil {
		n.Unfence(pid)
		return abort(err)
	}
	if warming {
		if err := topo.CommitWarming(pid, to); err != nil {
			n.Unfence(pid)
			return abort(err)
		}
	}
	if err := topo.Promote(pid, to); err != nil {
		n.Unfence(pid)
		return abort(err)
	}
	n.Unfence(pid)
	return nil
}

// FlushStreams round-trips VerbHandoffFlush to every stream target of
// pid. Per-link FIFO orders each request behind all earlier stream
// sends on that link; the reply certifies the target's lanes applied
// them — what any layout change needs before it reads a record whose
// locks it holds. The warming target (a handoff's; pass false without
// one) additionally raises its MVCC watermark (its version history
// below the backfill horizon does not exist).
func (n *Node) FlushStreams(pid cluster.PartitionID, warmingNode transport.NodeID, warming bool) error {
	targets := n.dir.Topology().StreamTargets(pid)
	type flushCall struct {
		call   transport.Call
		target transport.NodeID
	}
	var calls []flushCall
	var errs []error
	for _, t := range targets {
		c, err := n.ep.Go(t, VerbHandoffFlush, EncodeHandoffFlush(pid, warming && t == warmingNode))
		if err != nil {
			errs = append(errs, fmt.Errorf("server: handoff flush at node %d: %w", t, err))
			continue
		}
		calls = append(calls, flushCall{call: c, target: t})
	}
	for _, c := range calls {
		if _, err := c.call.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("server: handoff flush at node %d: %w", c.target, err))
		}
	}
	return errors.Join(errs...)
}

// RunHandoff executes HandoffPartition and then broadcasts the new
// layout to every known peer — the joiner first, so it names itself
// primary before any re-routed lock read reaches it — returning the
// encoded topology payload (layout + peer address book). In-process
// clusters share one Topology and skip the broadcast naturally (the
// fabric has no peer directory).
func (n *Node) RunHandoff(pid cluster.PartitionID, to transport.NodeID) ([]byte, error) {
	if err := n.HandoffPartition(pid, to); err != nil {
		return nil, err
	}
	payload := n.EncodeTopoPayload()
	if pd, ok := n.ep.(PeerDirectory); ok {
		if _, err := n.ep.Call(to, VerbTopoSet, payload); err != nil {
			return payload, fmt.Errorf("server: topology broadcast to joiner %d: %w", to, err)
		}
		for id := range pd.Peers() {
			if id == n.ID() || id == to {
				continue
			}
			if _, err := n.ep.Call(id, VerbTopoSet, payload); err != nil {
				return payload, fmt.Errorf("server: topology broadcast to node %d: %w", id, err)
			}
		}
	}
	return payload, nil
}

// --- Verb handlers ---

func (n *Node) registerHandoffVerbs(ep transport.Endpoint) {
	ep.Handle(VerbTopoGet, n.handleTopoGet)
	ep.Handle(VerbTopoSet, n.handleTopoSet)
	ep.HandleAsync(VerbHandoffFlush, n.handleHandoffFlush)
	ep.HandleAsync(VerbHandoff, n.handleHandoff)
}

// handleHandoffFlush is dispatched in per-link arrival order, so every
// stream message sent before the flush call has already been handed to
// applyByLane; the barrier (off the dispatcher — it must not block
// message delivery) waits those applies out before replying.
func (n *Node) handleHandoffFlush(_ transport.NodeID, req []byte, reply func([]byte, error)) {
	_, warming, err := DecodeHandoffFlush(req)
	if err != nil {
		reply(nil, err)
		return
	}
	go func() {
		n.LaneBarrier()
		if warming && n.clock != nil && n.store.MVCCEnabled() {
			// The handed-off range's version history below the backfill
			// horizon does not exist on this store: snapshot reads below
			// it must stale-abort (and retry at a fresher snapshot)
			// rather than return ghosts.
			n.store.SetWatermark(n.clock.Stable())
		}
		reply(nil, nil)
	}()
}

func (n *Node) handleTopoGet(_ transport.NodeID, _ []byte) ([]byte, error) {
	return n.EncodeTopoPayload(), nil
}

func (n *Node) handleTopoSet(_ transport.NodeID, req []byte) ([]byte, error) {
	parts, addrs, err := DecodeTopoPayload(req)
	if err != nil {
		return nil, err
	}
	// Merge addresses before installing the layout, so routing to a
	// node the new layout introduces never misses its address.
	if pd, ok := n.ep.(PeerDirectory); ok && len(addrs) > 0 {
		pd.SetPeers(addrs)
	}
	n.dir.Topology().Install(parts)
	return nil, nil
}

// handleHandoff serves a joiner's VerbHandoff: learn the joiner's
// address, run the handoff, broadcast the new layout. The work runs off
// the dispatcher (a backfill plus a drain must not stall delivery).
func (n *Node) handleHandoff(_ transport.NodeID, req []byte, reply func([]byte, error)) {
	pid, newNode, addr, err := DecodeHandoffReq(req)
	if err != nil {
		reply(nil, err)
		return
	}
	go func() {
		if addr != "" {
			if pd, ok := n.ep.(PeerDirectory); ok {
				pd.SetPeers(map[transport.NodeID]string{newNode: addr})
			}
		}
		reply(n.RunHandoff(pid, newNode))
	}()
}

// EncodeTopoPayload serializes this node's current layout plus its peer
// address book (empty on fabrics without explicit addressing).
func (n *Node) EncodeTopoPayload() []byte {
	w := wire.NewWriter(256)
	cluster.EncodeTopologyTo(w, n.dir.Topology())
	var addrs map[transport.NodeID]string
	if pd, ok := n.ep.(PeerDirectory); ok {
		addrs = pd.Peers()
	}
	w.Uint32(uint32(len(addrs)))
	for id, a := range addrs {
		w.Uint32(uint32(id))
		w.String(a)
	}
	return w.Bytes()
}

// DecodeTopoPayload parses a topology payload (VerbTopoGet response,
// VerbTopoSet request, VerbHandoff response).
func DecodeTopoPayload(p []byte) ([]cluster.PartitionInfo, map[transport.NodeID]string, error) {
	r := wire.NewReader(p)
	parts, err := cluster.DecodeTopologyFrom(r)
	if err != nil {
		return nil, nil, err
	}
	na := r.Uint32()
	addrs := make(map[transport.NodeID]string, na)
	for i := uint32(0); i < na; i++ {
		id := transport.NodeID(r.Uint32())
		addrs[id] = r.String()
	}
	return parts, addrs, r.Err()
}

// EncodeHandoffFlush builds the VerbHandoffFlush payload.
func EncodeHandoffFlush(pid cluster.PartitionID, warming bool) []byte {
	w := wire.NewWriter(8)
	w.Uint32(uint32(pid))
	w.Bool(warming)
	return w.Bytes()
}

// DecodeHandoffFlush parses the VerbHandoffFlush payload.
func DecodeHandoffFlush(p []byte) (cluster.PartitionID, bool, error) {
	r := wire.NewReader(p)
	pid := cluster.PartitionID(r.Uint32())
	warming := r.Bool()
	return pid, warming, r.Err()
}

// EncodeHandoffReq builds the VerbHandoff payload: which partition, the
// requesting node's id, and its dial address (empty on fabrics with
// implicit addressing).
func EncodeHandoffReq(pid cluster.PartitionID, newNode transport.NodeID, addr string) []byte {
	w := wire.NewWriter(16 + len(addr))
	w.Uint32(uint32(pid))
	w.Uint32(uint32(newNode))
	w.String(addr)
	return w.Bytes()
}

// DecodeHandoffReq parses the VerbHandoff payload.
func DecodeHandoffReq(p []byte) (cluster.PartitionID, transport.NodeID, string, error) {
	r := wire.NewReader(p)
	pid := cluster.PartitionID(r.Uint32())
	node := transport.NodeID(r.Uint32())
	addr := r.String()
	return pid, node, addr, r.Err()
}
