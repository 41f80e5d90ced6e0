package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
)

// Coordinator-side helpers. Every engine (2PL/2PC, OCC, Chiller) drives
// participants through these; a participant that happens to be the local
// node is short-circuited to a direct call, modelling the co-located
// compute/storage fast path of the NAM-DB architecture. Remote verbs are
// timed into the node's VerbMetrics. The scalar helpers ship one RPC per
// verb; the batched fan-out (CommitAll with batched set) packs every
// verb bound for one node into a single doorbell — see doorbell.go.

// LockRead locks and reads entries at the target node.
func (n *Node) LockRead(target transport.NodeID, txnID uint64, entries []LockEntry) (*LockResponse, error) {
	return n.LockReadAsync(target, txnID, entries).Wait()
}

// PendingLock is an in-flight lock-and-read request started by
// LockReadAsync. Wait gathers the response.
type PendingLock struct {
	resp  *LockResponse
	err   error
	call  transport.Call
	start time.Time
	vm    *VerbMetrics
}

// LockReadAsync starts a lock-and-read against target without blocking on
// the network, so a coordinator can fan out one batch per participant and
// gather the responses in a single round trip. A local target is served
// immediately by a direct call (the co-located fast path has no network
// wait to overlap); issue remote batches first to keep them in flight
// while the local one executes.
func (n *Node) LockReadAsync(target transport.NodeID, txnID uint64, entries []LockEntry) *PendingLock {
	if target == n.ID() {
		return &PendingLock{resp: n.LockReadLocal(txnID, entries)}
	}
	c, err := n.ep.Go(target, VerbLockRead, EncodeLockRequest(txnID, entries))
	if err != nil {
		return &PendingLock{err: err}
	}
	return &PendingLock{call: c, start: time.Now(), vm: n.vm}
}

// Wait blocks until the lock-and-read response arrives. It is idempotent.
func (p *PendingLock) Wait() (*LockResponse, error) {
	if p.call != nil {
		raw, err := p.call.Wait()
		p.call = nil
		p.vm.Observe(KindLockRead, time.Since(p.start))
		if err != nil {
			p.err = err
		} else {
			p.resp, p.err = DecodeLockResponse(raw)
		}
	}
	return p.resp, p.err
}

// CommitAt applies writes and releases locks at the target participant.
func (n *Node) CommitAt(target transport.NodeID, txnID, ts uint64, writes []WriteOp) error {
	return n.CommitAsync(target, txnID, ts, writes).Wait()
}

// PendingCommit is an in-flight commit started by CommitAsync (used to
// fan out the second phase of 2PC). Its error carries the destination
// node id. Pendings are pooled: Wait recycles the value, so call it
// exactly once and do not touch the pending afterwards.
type PendingCommit struct {
	call   transport.Call
	target transport.NodeID
	start  time.Time
	vm     *VerbMetrics
	err    error
}

var pendingCommitPool = sync.Pool{New: func() any { return new(PendingCommit) }}

// CommitAsync starts a commit without waiting. A local target commits
// synchronously before returning (its Wait just reports the outcome).
func (n *Node) CommitAsync(target transport.NodeID, txnID, ts uint64, writes []WriteOp) *PendingCommit {
	p := pendingCommitPool.Get().(*PendingCommit)
	p.target = target
	if target == n.ID() {
		if err := n.CommitLocal(txnID, ts, writes); err != nil {
			p.err = fmt.Errorf("server: commit at node %d: %w", target, err)
		}
		return p
	}
	c, err := n.ep.Go(target, VerbCommit, EncodeWrites(txnID, ts, writes))
	if err != nil {
		p.err = fmt.Errorf("server: commit at node %d: %w", target, err)
		return p
	}
	p.call, p.start, p.vm = c, time.Now(), n.vm
	return p
}

// Wait blocks until the commit response arrives and recycles the
// pending.
func (p *PendingCommit) Wait() error {
	if p.call != nil {
		_, err := p.call.Wait()
		p.vm.Observe(KindCommit, time.Since(p.start))
		if err != nil {
			p.err = fmt.Errorf("server: commit at node %d: %w", p.target, err)
		}
	}
	err := p.err
	*p = PendingCommit{}
	pendingCommitPool.Put(p)
	return err
}

// AbortAt rolls a participant back. Abort is best-effort fire-and-forget
// from the protocol's perspective, but we wait for the response so tests
// observe a quiesced cluster.
func (n *Node) AbortAt(target transport.NodeID, txnID uint64) {
	if target == n.ID() {
		n.AbortLocal(txnID)
		return
	}
	start := time.Now()
	_, _ = n.ep.Call(target, VerbAbort, EncodeAbort(txnID))
	n.vm.Observe(KindAbort, time.Since(start))
}

// AbortAll rolls back every participant in the set.
func (n *Node) AbortAll(participants map[transport.NodeID]bool, txnID uint64) {
	for p := range participants {
		n.AbortAt(p, txnID)
	}
}

// Replicate synchronously replicates a partition's write set: the write
// set is forwarded to the partition's primary, which relays it onto its
// per-link FIFO replication streams (see Node.handleReplForward — one
// replication pipe per record, so replica apply order always equals
// bucket-lock order), and Replicate returns once every replica acked.
// Callers hold the records' locks across this call (replication
// strictly precedes the commit wave), which is what orders the relay
// against the partition's inner-region streams.
func (n *Node) Replicate(pid cluster.PartitionID, txnID, ts uint64, writes []WriteOp) error {
	if len(writes) == 0 {
		return nil
	}
	pr := &PendingReplication{vm: n.vm}
	n.forwardTo(pr, pid, txnID, ts, writes)
	return pr.Wait()
}

// replCall is one in-flight replication forward RPC.
type replCall struct {
	call   transport.Call
	target transport.NodeID
	start  time.Time
}

// localFwd is an in-flight relay on this node (the coordinator is the
// partition's primary — the common case). start brackets the relay's
// stream→apply→ack round trip for the KindReplApply latency histogram,
// which would otherwise only see the rare remote-forward leg.
type localFwd struct {
	ch     chan error
	target transport.NodeID
	start  time.Time
}

// PendingReplication is an in-flight replication fan-out started by
// Replicate or ReplicateAsync. Wait gathers every replica
// acknowledgement.
type PendingReplication struct {
	vm     *VerbMetrics
	calls  []replCall
	locals []localFwd
	errs   []error
}

// forwardTo starts one partition's replication relay: a direct local
// relay when this node is the partition's primary, a forward RPC to the
// primary otherwise.
func (n *Node) forwardTo(pr *PendingReplication, pid cluster.PartitionID, txnID, ts uint64, ws []WriteOp) {
	if len(ws) == 0 || len(n.dir.Topology().StreamTargets(pid)) == 0 {
		return
	}
	primary := n.dir.Topology().Primary(pid)
	if primary == n.ID() {
		lf := localFwd{ch: make(chan error, 1), target: primary, start: time.Now()}
		n.ForwardRepl(pid, ts, ws, func(err error) { lf.ch <- err })
		pr.locals = append(pr.locals, lf)
		return
	}
	c, err := n.ep.Go(primary, VerbReplForward, EncodeWrites(txnID, ts, ws))
	if err != nil {
		pr.errs = append(pr.errs, fmt.Errorf("server: replicate to node %d: %w", primary, err))
		return
	}
	pr.calls = append(pr.calls, replCall{call: c, target: primary, start: time.Now()})
}

// ReplicateAsync starts every partition's replication relay in one
// scatter, without waiting for acknowledgements. The caller overlaps
// the replica round trip with other work (Chiller's coordinator runs it
// under the inner-replica-ack wait) and joins the acks with Wait before
// releasing any lock. Batched-transport engines use it too: a relay
// completes only when the replicas ack back to the primary, and doorbell
// frames are serviced synchronously at ring time, so parking a ring on a
// replica round trip would forfeit exactly the overlap the scatter buys.
func (n *Node) ReplicateAsync(txnID, ts uint64, writes map[cluster.PartitionID][]WriteOp) *PendingReplication {
	pr := &PendingReplication{vm: n.vm}
	for pid, ws := range writes {
		n.forwardTo(pr, pid, txnID, ts, ws)
	}
	return pr
}

// Empty reports whether the fan-out has nothing in flight and no errors.
func (pr *PendingReplication) Empty() bool {
	return len(pr.calls) == 0 && len(pr.locals) == 0 && len(pr.errs) == 0
}

// Wait drains every outstanding replica acknowledgement and returns the
// join of all errors (not just the first), so a multi-replica failure is
// reported in full. Every error names the relaying primary; when a
// specific replica failed, the wrapped cause names that replica too
// (StreamInnerRepl's errors carry the replica node).
func (pr *PendingReplication) Wait() error {
	for _, c := range pr.calls {
		_, err := c.call.Wait()
		pr.vm.Observe(KindReplApply, time.Since(c.start))
		if err != nil {
			pr.errs = append(pr.errs, fmt.Errorf("server: replication relay via node %d: %w", c.target, err))
		}
	}
	pr.calls = nil
	for _, lf := range pr.locals {
		err := <-lf.ch
		pr.vm.Observe(KindReplApply, time.Since(lf.start))
		if err != nil {
			pr.errs = append(pr.errs, fmt.Errorf("server: replication relay via node %d: %w", lf.target, err))
		}
	}
	pr.locals = nil
	return errors.Join(pr.errs...)
}

// CommitTarget names one participant of a commit wave.
type CommitTarget struct {
	Node transport.NodeID
	PID  cluster.PartitionID
}

// CommitAll runs the commit phase at every participant as one parallel
// wave: remote commits fan out (as async RPCs, or as one doorbell per
// destination when batched is set), the local participant (if any)
// applies while they are in flight, and every completion is gathered,
// joining all errors. Every error names the participant node it came
// from.
//
// Each participant applies the concatenation of every partition it is
// currently primary for — one partition almost always, several right
// after a replica promotion (the targets' PID labels record only the
// first partition that routed to each node, so keying the write set by
// that single PID would drop the adopted partition's writes).
func (n *Node) CommitAll(txnID, ts uint64, targets []CommitTarget, writes map[cluster.PartitionID][]WriteOp, batched bool) error {
	byNode := make(map[transport.NodeID][]WriteOp, len(targets))
	for pid, ws := range writes {
		t := n.dir.Topology().Primary(pid)
		byNode[t] = append(byNode[t], ws...)
	}
	var pending []*PendingCommit
	var doorbells []*PendingDoorbell
	var errs []error
	local := false
	for _, t := range targets {
		if t.Node == n.ID() {
			local = true
			continue
		}
		if batched {
			d := n.NewDoorbell(t.Node)
			d.PostCommit(txnID, ts, byNode[t.Node])
			doorbells = append(doorbells, d.Ring())
			continue
		}
		c, err := n.ep.Go(t.Node, VerbCommit, EncodeWrites(txnID, ts, byNode[t.Node]))
		if err != nil {
			errs = append(errs, fmt.Errorf("server: commit at node %d: %w", t.Node, err))
			continue
		}
		p := pendingCommitPool.Get().(*PendingCommit)
		p.call, p.target, p.start, p.vm = c, t.Node, time.Now(), n.vm
		pending = append(pending, p)
	}
	if local {
		if err := n.CommitLocal(txnID, ts, byNode[n.ID()]); err != nil {
			errs = append(errs, fmt.Errorf("server: commit at node %d: %w", n.ID(), err))
		}
	}
	for _, p := range pending {
		if err := p.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, pd := range doorbells {
		// Presumed commit: the locks released when the doorbell rang and
		// no second-phase ack gates anything, so collect the results
		// without sleeping out the round trip the caller doesn't observe.
		results, err := pd.Reap()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, fr := range results {
			if ferr := pd.Err(fr); ferr != nil {
				errs = append(errs, fmt.Errorf("server: commit: %w", ferr))
			}
		}
		pd.Release()
	}
	return errors.Join(errs...)
}

// StreamInnerRepl sends the inner-region write set to each stream target
// of the inner partition as a one-way message and returns immediately:
// per §5 the inner primary "moves on to the next transaction" without
// waiting. The targets will ack to the coordinator, not to us. This
// stream is the one path that must stay two-sided: it relies on per-link
// FIFO delivery for the §5 in-order-apply property, which the one-sided
// doorbell path does not provide.
//
// The caller captures targets (Topology.StreamTargets) in the same
// snapshot it sizes its ack wait with — passing them explicitly keeps
// the count and the sends agreeing even while a handoff mutates the
// topology concurrently.
//
// On failure, sent reports how many sends had already gone out: callers
// abort cleanly only when sent == 0 (nothing reached any replica); a
// partial stream has no compensation path and is an engine invariant
// violation.
func (n *Node) StreamInnerRepl(targets []transport.NodeID, txnID, ts uint64, coordinator transport.NodeID, writes []WriteOp) (sent int, err error) {
	if len(targets) == 0 {
		return 0, nil
	}
	payload := EncodeInnerRepl(txnID, ts, coordinator, writes)
	for _, r := range targets {
		if err := n.ep.Send(r, VerbInnerRepl, payload); err != nil {
			return sent, fmt.Errorf("server: inner repl to node %d: %w", r, err)
		}
		sent++
		n.vm.Add(KindInnerRepl)
	}
	return sent, nil
}

// SampleCommit reports a committed transaction's access sets to the
// statistics observer, if one is installed.
func (n *Node) SampleCommit(reads, writes []storage.RID) {
	if n.sampler == nil {
		return
	}
	n.sampler.ObserveTxn(reads, writes)
}
