package server

import (
	"errors"
	"fmt"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/wal"
)

// Coordinator-side helpers. Every engine (2PL/2PC, OCC, Chiller) reaches
// participants through a Wave (wave.go): one doorbell per remote
// destination, a direct call for the coordinator's own node. The helpers
// here are the waves every engine shares — a single lock-read, the abort,
// replicate and commit waves — and what a replicate frame does at the
// primary: the §5 stream, two-sided because it rides per-link FIFO.

// LockRead locks and reads entries at the target node: a one-frame wave.
func (n *Node) LockRead(target transport.NodeID, txnID uint64, entries []LockEntry) (*LockResponse, error) {
	w := n.NewWave()
	f := w.LockRead(target, txnID, entries, nil, nil)
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

// participantWrites returns the write set participant p applies — every
// partition it is currently primary for: one almost always, several right
// after a replica promotion (keying the set by the partition that first
// routed to a node would drop an adopted partition's writes) — and
// whether any of them has a stream target.
func participantWrites(topo *cluster.Topology, p transport.NodeID, writes map[cluster.PartitionID][]WriteOp) (ws []WriteOp, replicated bool) {
	for pid, pw := range writes {
		if len(pw) == 0 || topo.Primary(pid) != p {
			continue
		}
		replicated = replicated || len(topo.StreamTargets(pid)) > 0
		if ws == nil {
			ws = pw // the one-partition case shares the caller's slice
		} else {
			ws = append(ws[:len(ws):len(ws)], pw...) // copies: never grows into pw's neighbours
		}
	}
	return ws, replicated
}

// ReplicateAll posts a replicate frame (see Node.replicateLocal) at every
// participant with writes to replicate — ahead of its commit frame, so it
// streams under the transaction's locks — and reports whether it posted
// any. A participant with no stream target here (replication degree 1)
// gets none: a presence test made under the locks — the backfill of a
// target added later waits for those — never a count.
func (w *Wave) ReplicateAll(ts uint64, participants []transport.NodeID, writes map[cluster.PartitionID][]WriteOp) bool {
	topo := w.n.dir.Topology()
	for _, p := range participants {
		ws, replicated := participantWrites(topo, p, writes)
		if !replicated {
			continue
		}
		if w.ack == nil {
			w.ack = w.n.OpenAcks()
		}
		f := w.open(p, vReplicate)
		f.id, f.ts, f.writes = w.ack.id, ts, ws
		w.post(f)
	}
	return w.ack != nil
}

// CommitAll posts the commit phase (apply writes, release locks) at every
// participant — one with no writes too: that releases its read locks.
// The caller gathers with Wait — 2PL's and OCC's synchronous second
// phase, or Chiller's presumed-commit tail, where the locks release at
// ring time and the wait runs off the client's path — and reads Errs.
// Behind ReplicateAll on one wave, a participant streams and releases in
// a single ring.
func (w *Wave) CommitAll(txnID, ts uint64, participants []transport.NodeID, writes map[cluster.PartitionID][]WriteOp) {
	topo := w.n.dir.Topology()
	for _, p := range participants {
		ws, _ := participantWrites(topo, p, writes)
		w.Commit(p, txnID, ts, ws)
	}
}

// Replicate is the replication phase of the lock-holding baselines (2PL,
// OCC): a replicate wave, then the join of every replica ack, before the
// caller's commit wave may release a lock. An error means nothing reached
// any replica — the caller aborts cleanly — or fabric teardown cut the
// join short (transport.ErrClosed). A failure after one partition's
// stream went out cannot be compensated — some replica applies a write
// set whose transaction aborts — and is an invariant violation.
func (n *Node) Replicate(txnID, ts uint64, participants []transport.NodeID, writes map[cluster.PartitionID][]WriteOp) error {
	w := n.NewWave()
	defer w.Release()
	if !w.ReplicateAll(ts, participants, writes) {
		return nil
	}
	w.Wait()
	err := w.Errs()
	if err != nil && w.streamed > 0 {
		panic(fmt.Sprintf("server: node %d: txn %d replicated to %d replica(s), then failed: %v", n.ID(), txnID, w.streamed, err))
	}
	return errors.Join(err, w.JoinReplicas()) // after a clean failure there is nothing to wait for
}

// replicateLocal serves a replicate frame: it streams writes — records of
// partitions this node is primary for — to each partition's stream
// targets, which ack to ackTo under ackID, and returns the sends made.
// It runs at ring time, under the bucket locks the transaction holds
// here (its commit frame is posted behind it), so stream order at the
// replicas equals lock order at the primary for every write of a record,
// inner or outer. Each run of one partition's writes is one message; the
// count sizes the coordinator's wait, which so follows a handoff's targets.
func (n *Node) replicateLocal(ackTo transport.NodeID, ackID, ts uint64, writes []WriteOp) (sent int, err error) {
	if n.FaultInjector != nil {
		if err := n.FaultInjector(VerbReplicate, ackID); err != nil {
			return 0, err
		}
	}
	partition := func(w *WriteOp) cluster.PartitionID {
		return n.dir.Partition(storage.RID{Table: w.Table, Key: w.Key})
	}
	topo := n.dir.Topology()
	for len(writes) > 0 && err == nil {
		pid, run := partition(&writes[0]), 1
		for run < len(writes) && partition(&writes[run]) == pid {
			run++
		}
		s, serr := n.stream(topo.StreamTargets(pid), ackTo, ackID, ts, writes[:run])
		sent, writes, err = sent+s, writes[run:], serr
	}
	return sent, err
}

// CommitInner is an inner region's unilateral commit (§3.3 step 4) at
// pid's primary, under the region's locks, by the steps of a
// participant's [replicate, commit] frames: stream to pid's targets, which
// ack to this node, the coordinator (Figure 6); apply; log. The caller
// releases its locks, waits on the ticket and awaits the waiter — nil when
// nothing was streamed. Streaming first keeps stream order equal to commit
// order and makes the send the last step that can fail: a failed first
// send leaves nothing applied anywhere. A failure after one send cannot
// be compensated and panics.
func (n *Node) CommitInner(pid cluster.PartitionID, txnID, ts uint64, writes []WriteOp) (*Acks, wal.Ticket, error) {
	var acks *Acks
	if targets := n.dir.Topology().StreamTargets(pid); len(writes) > 0 && len(targets) > 0 {
		acks = n.OpenAcks()
		sent, err := n.stream(targets, n.ID(), acks.id, ts, writes)
		if err != nil {
			if sent > 0 {
				panic(fmt.Sprintf("server: node %d: inner region of txn %d streamed to %d replica(s), then failed: %v", n.ID(), txnID, sent, err))
			}
			acks.Cancel()
			return nil, wal.Ticket{}, err
		}
		acks.Resolve(sent)
	}
	tk, err := n.applyLog(txnID, ts, writes)
	if err != nil {
		acks.Cancel()
		return nil, tk, err
	}
	return acks, tk, nil
}

// stream is the one sender onto the §5 replication stream: a one-way
// message to each of targets, which ack to ackTo under ackID (an Acks
// opened there); per §5 the primary "moves on" without waiting. It stays
// two-sided: in-order apply relies on per-link FIFO, which doorbells do
// not provide. On failure, sent counts the sends already out: callers
// abort cleanly only when it is 0; a partial stream is an invariant
// violation.
func (n *Node) stream(targets []transport.NodeID, ackTo transport.NodeID, ackID, ts uint64, writes []WriteOp) (sent int, err error) {
	if len(targets) == 0 {
		return 0, nil
	}
	payload := EncodeInnerRepl(ackID, ts, ackTo, writes)
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
