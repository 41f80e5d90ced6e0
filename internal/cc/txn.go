package cc

import (
	"context"
	"fmt"
	"sync"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// Txn is one transaction's coordinator context, and the only interpreter
// of a stored-procedure op. 2PL, OCC, Chiller's outer and inner regions
// and MVCC snapshot reads are lock/validate policies over it: a policy
// decides when an op's record is locked, read and validated; Entry,
// Observe and Step decide what the op means (docs/ARCHITECTURE.md, "What
// an op means"), so a procedure means one thing under every engine.
//
// A Txn is pooled: NewTxn takes one, its last reader Releases it, once.
// It allocates what the transaction hands on — the read set, the values
// its mutators build — and recycles the rest. A policy with working
// memory of its own embeds the *Txn in its own pooled scratch.
type Txn struct {
	// ID is the transaction id, TS its commit timestamp once reserved —
	// a snapshot read's, its snapshot timestamp (zero when MVCC is off).
	ID, TS uint64
	// Reads is the transaction's result: referenced here, never recycled.
	Reads txn.ReadSet
	// Detail carries failure context for internal/unreachable aborts
	// (which verb failed, at which node).
	Detail string
	// Parts lists the nodes taking part, deduplicated: a handful, so
	// every lookup is a linear scan.
	Parts []Participant
	// Batches is the lock wave being built (BatchFor, then LockWave);
	// Failed lists the ops of its conflict-refused batches after LockWave.
	Batches []Batch
	Failed  []int
	// round is the current dependency round's ops (Rounds), in op order;
	// served holds, per node, the reads Rounds made there.
	round  []roundOp
	served []served
	// writes is the buffered write set, one group per partition (a
	// handful), each in Step order; the groups' arrays are recycled in
	// place. byPID is the same set as the map the server's waves take.
	writes []writeGroup
	byPID  map[cluster.PartitionID][]server.WriteOp

	owns    []ownWrite
	nodeBuf []transport.NodeID // backs Locked()
	// sample gates access-set collection: the RID slices are only needed
	// when a statistics observer is installed.
	sample    bool
	readRIDs  []storage.RID
	writeRIDs []storage.RID
}

// Participant is one node the coordinator has contacted.
type Participant struct {
	Node transport.NodeID
	// PID is the partition that first routed here.
	PID cluster.PartitionID
	// Locked marks the node as known to hold locks for this transaction
	// (a batch succeeded there, or failed in a way that may have left
	// state behind); only such nodes get abort and commit frames.
	Locked bool
}

// Batch is one frame of a lock wave: the entries bound for one lane of
// one node.
type Batch struct {
	Target  transport.NodeID
	Lane    int
	Entries []server.LockEntry
}

// roundOp is one op of the current round: its entry and where it routes.
type roundOp struct {
	le     server.LockEntry
	pid    cluster.PartitionID
	target transport.NodeID
}

// served is one node's share of the reads Rounds made: their entries in
// op order, the versions an unlocked read saw (OCC validates them), how
// many went out in earlier rounds, and the frame of the wave in flight.
type served struct {
	target      transport.NodeID
	entries     []server.LockEntry
	versions    []uint64
	sent, frame int
}

// writeGroup is the buffered writes of one partition.
type writeGroup struct {
	pid cluster.PartitionID
	ws  []server.WriteOp
}

// ownWrite is one entry of the own-write index: op writes rid. Entry
// announces it; Step fills in the value once the mutator has run.
type ownWrite struct {
	rid storage.RID
	op  int
	val []byte
	set bool
}

var txnPool = sync.Pool{New: func() any {
	return &Txn{byPID: make(map[cluster.PartitionID][]server.WriteOp, 2)}
}}

// Begin resolves req's procedure and runs the preamble every engine
// shares: with MVCC on, a read-only procedure runs the snapshot policy
// (snapshot.go) instead of the engine's — lock-free,
// conflict-abort-free, zero verbs for the partitions this node holds.
// ok=false means res is the transaction's outcome.
func Begin(ctx context.Context, n *server.Node, req *txn.Request) (proc *txn.Procedure, res txn.Result, ok bool) {
	proc = n.Registry().Lookup(req.Proc)
	if proc == nil {
		return nil, txn.Result{Reason: txn.AbortInternal}, false
	}
	if proc.ReadOnly && n.Clock() != nil {
		return nil, runSnapshot(ctx, n, req, proc), false
	}
	return proc, txn.Result{}, true
}

// NewTxn takes a context from the pool for one execution of req.
func NewTxn(n *server.Node, req *txn.Request, proc *txn.Procedure) *Txn {
	t := txnPool.Get().(*Txn)
	t.ID = req.ID
	if t.ID == 0 {
		t.ID = n.NextTxnID()
	}
	t.Reads = make(txn.ReadSet, len(proc.Ops))
	t.sample = n.Sampler() != nil
	return t
}

// Release clears the context, value pointers included — the pool pins no
// record and nothing leaks into the next transaction — and pools it.
func (t *Txn) Release() {
	t.DropWrites()
	clear(t.owns)
	*t = Txn{
		Parts: t.Parts[:0], Batches: t.Batches[:0], Failed: t.Failed[:0], round: t.round[:0], served: t.served[:0],
		writes: t.writes, byPID: t.byPID, owns: t.owns[:0], nodeBuf: t.nodeBuf[:0],
		readRIDs: t.readRIDs[:0], writeRIDs: t.writeRIDs[:0],
	}
	txnPool.Put(t)
}

// Participant records a contacted node, deduplicating by node id.
func (t *Txn) Participant(node transport.NodeID, pid cluster.PartitionID) *Participant {
	for i := range t.Parts {
		if t.Parts[i].Node == node {
			return &t.Parts[i]
		}
	}
	t.Parts = append(t.Parts, Participant{Node: node, PID: pid})
	return &t.Parts[len(t.Parts)-1]
}

// Locked lists the participants known to hold locks. The result is
// valid until the next call.
func (t *Txn) Locked() []transport.NodeID {
	t.nodeBuf = t.nodeBuf[:0]
	for _, p := range t.Parts {
		if p.Locked {
			t.nodeBuf = append(t.nodeBuf, p.Node)
		}
	}
	return t.nodeBuf
}

// Distributed reports whether more than one node takes part.
func (t *Txn) Distributed() bool { return len(t.Parts) > 1 }

// BatchFor returns the wave's batch for (target, lane), opening one over
// a recycled entry array if there is none yet (a handful of batches: a
// linear scan beats a map). Valid until the next call.
func (t *Txn) BatchFor(target transport.NodeID, lane int) *Batch {
	for i := range t.Batches {
		if b := &t.Batches[i]; b.Target == target && b.Lane == lane {
			return b
		}
	}
	if len(t.Batches) < cap(t.Batches) {
		t.Batches = t.Batches[:len(t.Batches)+1]
	} else {
		t.Batches = append(t.Batches, Batch{})
	}
	b := &t.Batches[len(t.Batches)-1]
	b.Target, b.Lane, b.Entries = target, lane, b.Entries[:0]
	return b
}

// servedBy returns target's share of the reads, opening one over
// recycled arrays if there is none yet, as BatchFor does.
func (t *Txn) servedBy(target transport.NodeID) *served {
	for i := range t.served {
		if s := &t.served[i]; s.target == target {
			return s
		}
	}
	if len(t.served) < cap(t.served) {
		t.served = t.served[:len(t.served)+1]
	} else {
		t.served = append(t.served, served{})
	}
	s := &t.served[len(t.served)-1]
	s.target, s.entries, s.versions, s.sent = target, s.entries[:0], s.versions[:0], 0
	return s
}

// own finds, among the transaction's writes to rid, the latest one by an
// op before op and op's own.
func (t *Txn) own(rid storage.RID, op int) (before, mine *ownWrite) {
	for i := range t.owns {
		switch o := &t.owns[i]; {
		case o.rid != rid:
		case o.op == op:
			mine = o
		case o.op < op && (before == nil || o.op > before.op):
			before = o
		}
	}
	return before, mine
}

// Entry builds op's lock entry and, for a write, announces it in the
// own-write index (a policy that locks ahead — a 2PL batch, Chiller's
// outer waves — announces writes whose values come later). An op on a
// record an earlier op of the transaction writes sees that write, not
// the store: its entry takes the lock but neither reads nor requires the
// record to exist.
func (t *Txn) Entry(op *txn.OpSpec, key storage.Key) server.LockEntry {
	rid := storage.RID{Table: op.Table, Key: key}
	before, mine := t.own(rid, op.ID)
	if op.Type.IsWrite() && mine == nil {
		t.owns = append(t.owns, ownWrite{rid: rid, op: op.ID})
	}
	stored := before == nil
	return server.LockEntry{
		OpID:      op.ID,
		Table:     op.Table,
		Key:       key,
		Mode:      op.Type.LockMode(),
		Read:      stored && (op.Type == txn.OpRead || op.Type == txn.OpUpdate),
		MustExist: stored && op.Type != txn.OpInsert,
	}
}

// LockWave posts the batches as one server.Wave — one ring per
// destination node however many batches it gets — and gathers every
// batch's reads straight into Reads. On failure every frame is still
// gathered (its target may hold locks only the caller's Abort releases),
// the reason is the first refusal's — a transport failure's, if any —
// and Failed lists the ops of conflict-refused batches, for a policy
// that re-requests them. Successful sibling batches keep their locks
// and reads either way.
func (t *Txn) LockWave(n *server.Node) (txn.AbortReason, bool) {
	w := n.NewWave()
	for i := range t.Batches {
		b := &t.Batches[i]
		w.LockRead(b.Target, t.ID, b.Entries, t.Reads)
	}
	w.Wait()
	t.Failed = t.Failed[:0]
	reason, failed := txn.AbortNone, false
	for i := range t.Batches {
		b := &t.Batches[i]
		resp, err := w.LockResponse(i)
		switch {
		case err != nil:
			// Transport failure: assume the worst (locks may be held) —
			// the abort wave still runs there — and classify the reason:
			// injected faults are transient (retryable after the abort),
			// everything else is internal.
			t.Participant(b.Target, 0).Locked = true
			reason, failed = server.TransportAbortReason(err), true
			t.Detail = fmt.Sprintf("lock-read at node %d: %v", b.Target, err)
			t.Failed = t.Failed[:0]
		case !resp.OK:
			// A refused batch rolled itself back; the node holds locks
			// only if an earlier wave succeeded there (flag already set).
			if !failed {
				reason, failed = resp.Reason, true
			}
			if reason == txn.AbortLockConflict {
				for _, le := range b.Entries {
					t.Failed = append(t.Failed, le.OpID)
				}
			}
		default:
			t.Participant(b.Target, 0).Locked = true
		}
	}
	w.Release() // the gathered reads alias the response buffers, not the wave
	return reason, !failed
}

// Rounds is the execution phase of the policies that read before they
// lock, if they lock at all: OCC's, whose reads (kind server.KindRead)
// are unlocked and see the records' current versions, and the snapshot
// policy's, whose reads (server.KindSnapRead) are at snapshot timestamp
// TS and served here for every partition this node holds (primary or
// replica: replica chains carry the same stamps). It runs proc's ops in
// dependency rounds. A round is the run of ops not yet stepped, in
// procedure order, up to the first whose key does not resolve yet (2PL's
// batching rule without its one-partition limit): the round's reads go
// out as one wave, and then its ops are stepped in op order — so an
// earlier op's own write is announced before a later op's Entry, and a
// Check sees every earlier op's value. A procedure without pk-deps, the
// common shape, is one round. A write op's lock entry joins Batches, for
// the caller's LockWave.
func (t *Txn) Rounds(ctx context.Context, n *server.Node, proc *txn.Procedure, args txn.Args, kind string) txn.AbortReason {
	dir := n.Directory()
	for next := 0; next < len(proc.Ops); {
		if reason, done := Cancelled(ctx); done {
			return reason
		}
		t.round = t.round[:0]
		for ; next < len(proc.Ops); next++ {
			op := &proc.Ops[next]
			key, ok := op.Key(args, t.Reads)
			if !ok {
				break
			}
			pid := dir.Partition(storage.RID{Table: op.Table, Key: key})
			target := dir.Topology().Primary(pid)
			if kind == server.KindSnapRead && n.HoldsPartition(pid) {
				target = n.ID()
			}
			t.Participant(target, pid)
			le := t.Entry(op, key)
			if le.MustExist {
				// The op depends on the stored record — its value, or just
				// its existence: read it.
				s := t.servedBy(target)
				s.entries = append(s.entries, le)
			}
			t.round = append(t.round, roundOp{le: le, pid: pid, target: target})
		}
		if len(t.round) == 0 {
			t.Detail = fmt.Sprintf("op %d key unresolvable in procedure order", next)
			return txn.AbortInternal
		}
		if reason := t.servedWave(n, kind); reason != txn.AbortNone {
			return reason
		}
		for _, r := range t.round {
			op := &proc.Ops[r.le.OpID]
			if reason := t.Step(op, args, r.le.Key, r.pid, false); reason != txn.AbortNone {
				return reason
			}
			if op.Type.IsWrite() {
				// Locking needs no read: what the write depends on was read
				// in its round.
				le := r.le
				le.Read, le.MustExist = false, false
				b := t.BatchFor(r.target, 0)
				b.Entries = append(b.Entries, le)
			}
		}
	}
	return txn.AbortNone
}

// ValidateWave is OCC's phase 2, under phase 1's write locks: one
// validate frame per node that served reads, all on one wave, re-checks
// the versions Rounds saw there (server.Node.validateLocal).
func (t *Txn) ValidateWave(n *server.Node) txn.AbortReason {
	return t.servedWave(n, server.KindValidate)
}

// servedWave posts one frame of the given kind per node in served as one
// server.Wave — a read carries the entries of the current round, a
// validation all of them — gathers a read's values straight into Reads
// and its versions beside its entries, and returns the first refusal's
// reason, a transport failure's if any (a lost ring is AbortUnreachable,
// which the caller's retry loop re-runs).
func (t *Txn) servedWave(n *server.Node, kind string) txn.AbortReason {
	w := n.NewWave()
	for i := range t.served {
		s := &t.served[i]
		s.frame = -1
		switch fresh := s.entries[s.sent:]; {
		case kind == server.KindValidate:
			s.frame = w.Validate(s.target, t.ID, s.entries, s.versions)
		case len(fresh) == 0:
		case kind == server.KindSnapRead:
			s.frame = w.SnapshotRead(s.target, t.TS, fresh, t.Reads)
		default:
			s.frame = w.Read(s.target, fresh, t.Reads, s.versions)
		}
	}
	w.Wait()
	reason := txn.AbortNone
	for i := range t.served {
		s := &t.served[i]
		if s.frame < 0 {
			continue
		}
		s.sent = len(s.entries)
		resp, err := w.LockResponse(s.frame)
		switch {
		case err != nil:
			reason = server.TransportAbortReason(err)
			t.Detail = fmt.Sprintf("%s at node %d: %v", kind, s.target, err)
		case !resp.OK:
			if reason == txn.AbortNone {
				reason = resp.Reason
			}
		case kind == server.KindRead:
			s.versions = resp.Versions
		}
	}
	w.Release() // the gathered reads alias the response buffers, not the wave
	return reason
}

// Observe is the first half of an op's meaning: the value it sees — the
// transaction's own latest write to the record if there is one, else the
// stored value the policy's lock-read put in Reads — and its Check. An
// own write that is announced but not yet computed defers both to Step.
// Chiller's outer region, which locks long before it may write, calls it
// when a wave's reads are in; the other policies only Step.
func (t *Txn) Observe(op *txn.OpSpec, args txn.Args, key storage.Key) txn.AbortReason {
	before, _ := t.own(storage.RID{Table: op.Table, Key: key}, op.ID)
	return t.observe(op, args, before)
}

func (t *Txn) observe(op *txn.OpSpec, args txn.Args, before *ownWrite) txn.AbortReason {
	if before != nil {
		if !before.set {
			return txn.AbortNone
		}
		if op.Type == txn.OpRead || op.Type == txn.OpUpdate {
			t.Reads[op.ID] = before.val // nil after the transaction's own delete: no abort
		}
	}
	if op.Check != nil {
		if err := op.Check(t.Reads[op.ID], args, t.Reads); err != nil {
			return txn.AbortConstraint
		}
	}
	return txn.AbortNone
}

// Step gives op its meaning, ops in procedure order: observe it (see
// Observe), then — for a write — run its mutator on the observed value
// and buffer the result under pid. observed says Observe already ran on
// the stored value (Chiller's outer region, at lock time): then only a
// value of the transaction's own, computed since, is observed again.
func (t *Txn) Step(op *txn.OpSpec, args txn.Args, key storage.Key, pid cluster.PartitionID, observed bool) txn.AbortReason {
	rid := storage.RID{Table: op.Table, Key: key}
	before, mine := t.own(rid, op.ID)
	if !observed || before != nil {
		if reason := t.observe(op, args, before); reason != txn.AbortNone {
			return reason
		}
	}
	if !op.Type.IsWrite() {
		if t.sample {
			t.readRIDs = append(t.readRIDs, rid)
		}
		return txn.AbortNone
	}
	var val []byte
	if op.Type != txn.OpDelete {
		var old []byte
		if op.Type == txn.OpUpdate {
			old = t.Reads[op.ID]
		}
		v, err := op.Mutate(old, args, t.Reads)
		if err != nil {
			return txn.AbortConstraint
		}
		val = v
	}
	if mine == nil {
		t.owns = append(t.owns, ownWrite{rid: rid, op: op.ID})
		mine = &t.owns[len(t.owns)-1]
	}
	mine.val, mine.set = val, true
	g := t.group(pid)
	g.ws = append(g.ws, server.WriteOp{Table: op.Table, Key: key, Type: op.Type, Value: val})
	if t.sample {
		t.writeRIDs = append(t.writeRIDs, rid)
	}
	return txn.AbortNone
}

// group returns pid's write group, opening one over a recycled array if
// there is none yet.
func (t *Txn) group(pid cluster.PartitionID) *writeGroup {
	for i := range t.writes {
		if t.writes[i].pid == pid {
			return &t.writes[i]
		}
	}
	if len(t.writes) < cap(t.writes) {
		t.writes = t.writes[:len(t.writes)+1]
	} else {
		t.writes = append(t.writes, writeGroup{})
	}
	g := &t.writes[len(t.writes)-1]
	g.pid, g.ws = pid, g.ws[:0]
	return g
}

// WriteSets returns the buffered write set by partition, as the
// server's replicate and commit waves take it. Valid until the next
// Step, DropWrites or call.
func (t *Txn) WriteSets() map[cluster.PartitionID][]server.WriteOp {
	clear(t.byPID)
	for _, g := range t.writes {
		t.byPID[g.pid] = g.ws
	}
	return t.byPID
}

// DropWrites empties the buffered write set, keeping the own-write
// index: Chiller's inner region has applied its writes itself, and what
// the outer region buffers afterwards is all the commit tail may apply.
// The groups' keys go with it: the pool is process-wide, and a partition
// id means nothing to the next deployment.
func (t *Txn) DropWrites() {
	for i := range t.writes {
		clear(t.writes[i].ws)
	}
	t.writes = t.writes[:0]
	clear(t.byPID)
}

// Unbuffer forgets every value the transaction has computed — the
// buffered writes and their index entries — keeping what is merely
// announced: a re-requested inner region starts clean.
func (t *Txn) Unbuffer() {
	t.DropWrites()
	kept := t.owns[:0]
	for _, o := range t.owns {
		if !o.set {
			kept = append(kept, o)
		}
	}
	clear(t.owns[len(kept):])
	t.owns = kept
}

// Abort rolls back every participant that may hold locks and reports
// the abort.
func (t *Txn) Abort(n *server.Node, reason txn.AbortReason) txn.Result {
	n.AbortAll(t.Locked(), t.ID)
	return txn.Result{Reason: reason, Detail: t.Detail, Distributed: t.Distributed()}
}

// Commit is the synchronous tail of the lock-holding baselines, entered
// with every lock held and TS reserved: replicate the write sets (one
// replicate wave, every replica ack joined), then run the commit phase
// as one wave and wait it out — the client sees applied writes. A
// replication error means no replica received anything (a partly
// streamed fan-out is Node.Replicate's to surface), so that abort is
// clean and retryable.
func (t *Txn) Commit(n *server.Node) txn.Result {
	writes := t.WriteSets()
	if err := n.Replicate(t.ID, t.TS, t.Locked(), writes); err != nil {
		t.Detail = err.Error()
		return t.Abort(n, server.TransportAbortReason(err))
	}
	w := n.NewWave()
	w.CommitAll(t.ID, t.TS, t.Locked(), writes)
	w.Wait()
	err := w.Errs()
	w.Release()
	if err != nil {
		// Post-prepare commit delivery failed: participants that did not
		// hear the commit keep their locks; surface as internal (never
		// retryable — the transaction's locks may be wedged).
		return txn.Result{Reason: txn.AbortInternal, Detail: err.Error(), Distributed: t.Distributed()}
	}
	t.SampleCommit(n)
	return txn.Result{Committed: true, Reads: t.Reads, Distributed: t.Distributed()}
}

// SampleCommit reports the committed transaction's access sets to the
// node's statistics observer, if one is installed.
func (t *Txn) SampleCommit(n *server.Node) { n.SampleCommit(t.readRIDs, t.writeRIDs) }
