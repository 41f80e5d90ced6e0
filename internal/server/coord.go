package server

import (
	"errors"
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
)

// Coordinator-side helpers. Every engine (2PL/2PC, OCC, Chiller) reaches
// participants through a Wave (wave.go): one doorbell per remote
// destination, a direct call for the coordinator's own node. The helpers
// here are the waves every engine shares — a single lock-read, the abort
// wave, the commit wave — plus the replication relay, which stays
// two-sided because it rides the primaries' per-link FIFO streams.

// LockRead locks and reads entries at the target node: a one-frame wave.
func (n *Node) LockRead(target transport.NodeID, txnID uint64, entries []LockEntry) (*LockResponse, error) {
	w := n.NewWave()
	f := w.LockRead(target, txnID, entries, nil)
	w.Wait()
	resp, err := w.LockResponse(f)
	w.Release()
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// AbortAt rolls one participant back: a one-frame AbortAll.
func (n *Node) AbortAt(target transport.NodeID, txnID uint64) {
	n.AbortAll([]transport.NodeID{target}, txnID)
}

// AbortAll rolls back every listed participant in one wave — one round
// trip however many there are. Abort is best-effort from the protocol's
// perspective, but the wave waits out the round trip so tests observe a
// quiesced cluster.
func (n *Node) AbortAll(participants []transport.NodeID, txnID uint64) {
	if len(participants) == 0 {
		return
	}
	w := n.NewWave()
	for _, p := range participants {
		w.Abort(p, txnID)
	}
	w.Wait()
	w.Release()
}

// CommitAll posts the commit phase at every participant as one wave and
// returns it un-rung: the caller gathers with Wait (2PL's and OCC's
// synchronous second phase) or Reap (Chiller's presumed-commit tail,
// where the locks release at ring time and no second-phase ack gates
// anything), reads the joined outcome from Errs — every error names the
// participant it came from — and Releases.
//
// Each participant applies the concatenation of every partition it is
// currently primary for — one partition almost always, several right
// after a replica promotion (keying the write set by the one partition
// that first routed to a node would drop the adopted partition's
// writes). A participant with no writes still gets its commit frame:
// that is what releases its read locks.
func (n *Node) CommitAll(txnID, ts uint64, participants []transport.NodeID, writes map[cluster.PartitionID][]WriteOp) *Wave {
	topo := n.dir.Topology()
	w := n.NewWave()
	for _, p := range participants {
		var ws []WriteOp
		for pid, pw := range writes {
			if topo.Primary(pid) != p {
				continue
			}
			if ws == nil {
				ws = pw // the one-partition case shares the caller's slice
			} else {
				ws = append(ws[:len(ws):len(ws)], pw...) // copies: never grows into pw's neighbours
			}
		}
		w.Commit(p, txnID, ts, ws)
	}
	return w
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
// ReplicateAsync. Wait gathers every replica acknowledgement.
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
// releasing any lock. The relay is not a doorbell verb: it completes
// only when the replicas ack back to the primary, and doorbell frames
// are serviced synchronously at ring time, so parking a ring on a
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

// StreamInnerRepl sends a write set to each stream target of its
// partition as a one-way message and returns immediately: per §5 the
// primary "moves on to the next transaction" without waiting. The
// targets ack to this node — the transaction's coordinator for an inner
// region, the relaying primary for forwarded outer replication — under
// txnID. This stream is the one path that must stay two-sided: it relies
// on per-link FIFO delivery for the §5 in-order-apply property, which
// the one-sided doorbell path does not provide.
//
// The caller captures targets (Topology.StreamTargets) in the same
// snapshot it sizes its ack wait with (ExpectInnerAcks, before calling) —
// passing them explicitly keeps the count and the sends agreeing even
// while a handoff mutates the topology concurrently.
//
// On failure, sent reports how many sends had already gone out: callers
// abort cleanly only when sent == 0 (nothing reached any replica); a
// partial stream has no compensation path and is an engine invariant
// violation.
func (n *Node) StreamInnerRepl(targets []transport.NodeID, txnID, ts uint64, writes []WriteOp) (sent int, err error) {
	if len(targets) == 0 {
		return 0, nil
	}
	payload := EncodeInnerRepl(txnID, ts, n.ID(), writes)
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
