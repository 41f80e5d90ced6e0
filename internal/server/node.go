// Package server implements a Chiller cluster node: the partition-local
// storage engine plus the RPC verbs that every execution engine
// (2PL/2PC, OCC, and Chiller's two-region engine) builds on.
//
// A node is both a participant (it serves lock/commit/abort verbs against
// its partition) and a potential coordinator (client goroutines on the
// node run engine code that fans out to other participants). Per the
// NAM-DB architecture (§6), compute and storage are logically decoupled
// but co-located here: a coordinator accesses its own partition through
// direct function calls and remote partitions through the fabric.
package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
	"github.com/chillerdb/chiller/internal/wire"
)

// AccessObserver receives sampled transaction access sets; the statistics
// service (§4.1) implements it. May be nil.
type AccessObserver interface {
	ObserveTxn(reads, writes []storage.RID)
}

// Node is one machine in the cluster.
type Node struct {
	ep       transport.Endpoint
	store    *storage.Store
	registry *txn.Registry
	dir      *cluster.Directory

	txnSeq atomic.Uint64

	// Participant transaction state: one per transaction holding locks
	// here, for remote coordinators and the local one alike, its inner
	// region included. stMu guards the map, the fences and the pins —
	// never a state's locks (partState.mu does): fencing and pinning must
	// be one critical section, or a drain could miss a transaction that
	// passed the fence check but had not yet made its pin visible.
	stMu  sync.Mutex
	state map[uint64]*partState
	// fenced marks partitions mid-handoff on this node: a transaction's
	// first lock in one aborts with AbortMoved while transactions that
	// already pinned it run to completion (no global quiesce).
	fenced map[cluster.PartitionID]bool
	// partPins counts, per partition, the transactions whose state here
	// pins it: a transaction pins a partition at its first lock there and
	// lets go when its state retires. A handoff drains a partition by
	// fencing it and waiting for its pins to reach zero.
	partPins map[cluster.PartitionID]int
	// statePool recycles this node's retired states. Per node: one
	// transaction holds states on several nodes under one id, so a state
	// recycled across nodes could pass a stale fetch's id check on the
	// wrong node.
	statePool sync.Pool

	// Pending replica acks awaited here (see Acks): ack id → waiter. Ids
	// come from ackSeq, so every sender's acks share one namespace.
	ackMu   sync.Mutex
	ackSeq  uint64
	acks    map[uint64]*Acks
	sampler AccessObserver

	// lanes are the node's single-threaded execution lanes (see
	// lanes.go), modelling the paper's one-execution-engine-per-core
	// deployment (§2, §5): inner regions and replica applies on the
	// same lane never race each other's hot locks and the replication
	// stream leaves each lane in commit order, while independent lanes
	// run in parallel. The count comes from the directory (fixed at
	// deployment, identical cluster-wide).
	lanes     []*laneExec
	laneWG    sync.WaitGroup
	closeOnce sync.Once

	// FaultInjector, when non-nil, is consulted before commit frames (with
	// the transaction's id) and replicate frames (with the id the stream
	// acks under); tests use it to simulate participant failures.
	FaultInjector func(verb string, id uint64) error

	// wal, when non-nil, is the node's write-ahead log: commit-point
	// applies append to it before acknowledging (see durability.go).
	wal     *wal.Log
	snapErr atomic.Value // last background snapshot error

	// vm collects per-verb counts and round-trip latency histograms for
	// this node's coordinator activity (see metrics.go).
	vm *VerbMetrics

	// clock, when non-nil, is the cluster-shared commit-timestamp oracle
	// (MVCC deployments only). Engines Reserve from it at their commit
	// points and read-only transactions snapshot at its Stable watermark.
	clock *storage.Clock
}

// partState is one transaction's lock list on this participant: the
// locks of its lock-read batches and of its inner region, and the
// partitions they pin. Pooled: a retired state, its arrays included, is
// the node's next transaction's.
type partState struct {
	// mu serializes the transaction's lock steps here (Region) and guards
	// everything below. With lane-aware fan-out a coordinator may issue
	// several per-lane batches of ONE wave to the same node concurrently;
	// a step's rollback — the suffix of locks it took — is only correct
	// while a single step mutates the list at a time. Different
	// transactions' steps still run fully in parallel, and same-transaction
	// batches on one node are a handful of local lock words, so the
	// serialization is invisible next to a network round trip.
	mu    sync.Mutex
	txnID uint64
	locks []lockRef
	pins  []cluster.PartitionID
	// retired marks a state out of the node's map. Whoever fetched the
	// pointer before that — a step of the same transaction queueing on
	// mu — finds it retired, or recycled under another id, and must fetch
	// a live state, or its locks would be orphaned. States recycle only
	// within their node, so a matching id is this node's live state.
	retired bool
}

type lockRef struct {
	bucket *storage.Bucket
	mode   storage.LockMode
}

// New creates a node bound to an endpoint, owning the primary store for
// partition part, and registers the common verbs. The node starts one
// execution lane per directory lane (Directory.SetLanes must have been
// called before node construction); callers that are done with a node
// should Close it to stop the lane goroutines.
func New(ep transport.Endpoint, st *storage.Store, reg *txn.Registry, dir *cluster.Directory, part cluster.PartitionID) *Node {
	n := &Node{
		ep:       ep,
		store:    st,
		registry: reg,
		dir:      dir,
		state:    make(map[uint64]*partState),
		fenced:   make(map[cluster.PartitionID]bool),
		partPins: make(map[cluster.PartitionID]int),
		acks:     make(map[uint64]*Acks),
		vm:       NewVerbMetrics(),
	}
	n.statePool.New = func() any { return new(partState) }
	nLanes := dir.Lanes()
	if nLanes < 1 {
		nLanes = 1
	}
	n.lanes = make([]*laneExec, nLanes)
	for i := range n.lanes {
		n.lanes[i] = newLaneExec()
		n.laneWG.Add(1)
		go n.lanes[i].run(&n.laneWG)
	}
	// Two-sided verbs are the ones that need a serial executor or per-link
	// FIFO: each replication-stream message applies whole on its link's
	// lane, in arrival order (see applyStream); acks count down inline.
	ep.HandleAsync(VerbInnerRepl, n.handleInnerRepl)
	ep.Handle(VerbInnerAck, n.handleInnerAck)
	ep.Handle(VerbPing, func(transport.NodeID, []byte) ([]byte, error) { return nil, nil })
	// Elasticity verbs: stream-flush marker, topology exchange, and the
	// joiner-driven handoff trigger (see handoff.go).
	n.registerHandoffVerbs(ep)
	// The five participant verbs — lock-read, replicate, commit, abort,
	// snapshot-read — have no two-sided handler: coordinators post them
	// as doorbell frames (wave.go) and the envelope is serviced on the
	// one-sided path, bypassing the dispatcher and lanes entirely.
	// Lock-wave rings and commit-tail rings are distinct verb names (so
	// fault injection can target one without the other) served by the
	// same handler.
	ep.HandleOneSided(VerbDoorbell, n.handleDoorbell)
	ep.HandleOneSided(VerbDoorbellTail, n.handleDoorbell)
	return n
}

// VerbMetrics returns the node's per-verb metrics collector.
func (n *Node) VerbMetrics() *VerbMetrics { return n.vm }

// ID returns the node's fabric identity.
func (n *Node) ID() transport.NodeID { return n.ep.ID() }

// Endpoint returns the node's fabric endpoint.
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// Store returns the node's storage engine.
func (n *Node) Store() *storage.Store { return n.store }

// Registry returns the shared stored-procedure registry.
func (n *Node) Registry() *txn.Registry { return n.registry }

// Directory returns the routing directory.
func (n *Node) Directory() *cluster.Directory { return n.dir }

// SetClock installs the cluster-shared commit clock and enables version
// retention on the node's store. Call at deployment time, before traffic.
func (n *Node) SetClock(c *storage.Clock) {
	n.clock = c
	if c != nil {
		n.store.EnableMVCC()
	}
}

// Clock returns the commit clock, or nil when MVCC is off.
func (n *Node) Clock() *storage.Clock { return n.clock }

// SetSampler installs the statistics observer (may be nil).
func (n *Node) SetSampler(s AccessObserver) { n.sampler = s }

// Sampler returns the installed observer, or nil.
func (n *Node) Sampler() AccessObserver { return n.sampler }

// NextTxnID mints a cluster-unique transaction id: node id in the high
// bits, a local sequence below.
func (n *Node) NextTxnID() uint64 {
	return uint64(n.ep.ID())<<40 | n.txnSeq.Add(1)
}

// LastIDs reports the sequences behind the last transaction id and the
// last ack id this node minted.
func (n *Node) LastIDs() (txnSeq, ackSeq uint64) {
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	return n.txnSeq.Load(), n.ackSeq
}

// ContinueIDs makes the node mint past the given sequences: a node
// restarted on an endpoint continues its predecessor's (LastIDs), so no
// id it mints names a transaction a participant may still hold state
// under, or a wait a replica may still ack. Call before it serves.
func (n *Node) ContinueIDs(txnSeq, ackSeq uint64) {
	n.txnSeq.Store(txnSeq)
	n.ackMu.Lock()
	n.ackSeq = ackSeq
	n.ackMu.Unlock()
}

// ActiveTxns reports how many transactions currently hold participant
// state here (diagnostics; the harness asserts it drains to zero).
func (n *Node) ActiveTxns() int {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	return len(n.state)
}

// Region is one lock step of a transaction at this node — a lock-read
// batch, or an inner region (§3.3 step 4) — over the transaction's one
// lock list here: BeginRegion, LockRead per record, then End or Keep.
// A step dedupes and upgrades against every lock the transaction holds
// on this node, whichever step took it, so an inner record hashed into
// an outer record's bucket shares that hold instead of NO_WAIT-aborting
// its own transaction. Steps of one transaction are serialized; the
// caller must not keep a Region past End or Keep.
type Region struct {
	n     *Node
	st    *partState
	start int // st.locks[start:] are this step's
}

// BeginRegion opens a lock step for txnID, creating its state here if it
// holds none.
func (n *Node) BeginRegion(txnID uint64) Region {
	st := n.lockState(txnID, true)
	return Region{n: n, st: st, start: len(st.locks)}
}

// lockState returns txnID's state here with its mu held — nil if there is
// none and create is false.
func (n *Node) lockState(txnID uint64, create bool) *partState {
	for {
		n.stMu.Lock()
		st := n.state[txnID]
		if st == nil {
			if create {
				st = n.statePool.Get().(*partState)
				st.mu.Lock() // only a stale fetch can hold it, and it lets go
				st.txnID, st.retired = txnID, false
				n.state[txnID] = st
			}
			n.stMu.Unlock()
			return st
		}
		n.stMu.Unlock()
		st.mu.Lock()
		if st.txnID == txnID && !st.retired {
			return st
		}
		st.mu.Unlock() // retired since the lookup: fetch again
	}
}

// LockRead locks e's bucket in e's mode, NO_WAIT, and reads the record
// under it: its value, copied into buf, into reads[e.OpID] when e.Read
// (nil for an absent record), its existence checked when e.MustExist. pid is the partition
// the caller routed the record to: the transaction's first lock in it is
// refused with AbortMoved when pid is fenced or no longer primaried here,
// and otherwise pins it until the state retires, so a drain waits the
// transaction out. A refused record leaves what the step took so far;
// End releases it.
func (r *Region) LockRead(e LockEntry, pid cluster.PartitionID, reads txn.ReadSet, buf *storage.Buf) txn.AbortReason {
	st, n := r.st, r.n
	tbl := n.store.Table(e.Table)
	if tbl == nil {
		return txn.AbortInternal
	}
	if !slices.Contains(st.pins, pid) {
		n.stMu.Lock()
		moved := n.fenced[pid] || n.dir.Topology().Primary(pid) != n.ID()
		if !moved {
			n.partPins[pid]++
		}
		n.stMu.Unlock()
		if moved {
			return txn.AbortMoved
		}
		st.pins = append(st.pins, pid)
	}
	b := tbl.Bucket(e.Key)
	switch i := st.find(b); {
	case i < 0:
		if !b.Lock.TryLock(e.Mode) {
			return txn.AbortLockConflict
		}
		st.locks = append(st.locks, lockRef{bucket: b, mode: e.Mode})
	case st.locks[i].mode < e.Mode: // held shared, exclusive requested
		if !b.Lock.Upgrade() {
			return txn.AbortLockConflict
		}
		st.locks[i].mode = storage.LockExclusive
	}
	if e.Read || e.MustExist {
		v, _, err := b.GetInto(e.Key, buf)
		if err != nil && e.MustExist {
			return txn.AbortNotFound
		}
		if e.Read {
			reads[e.OpID] = v
		}
	}
	return txn.AbortNone
}

// End closes the step, releasing exactly the locks it took — an upgrade
// of an earlier step's lock stays until the transaction's commit or
// abort. A state left holding nothing retires: a transaction that holds
// nothing here needs no abort round trip, so a coordinator can skip the
// cleanup frame on the NO_WAIT retry path.
func (r *Region) End() {
	st := r.st
	for _, l := range st.locks[r.start:] {
		l.bucket.Lock.Unlock(l.mode)
	}
	clear(st.locks[r.start:]) // the state pins no bucket it let go of
	st.locks = st.locks[:r.start]
	if len(st.locks) > 0 {
		st.mu.Unlock()
		return
	}
	r.n.retire(st)
}

// Keep closes the step keeping its locks: they release with the
// transaction's commit or abort.
func (r *Region) Keep() { r.st.mu.Unlock() }

// find returns the index of the lock the state holds on b, or -1.
func (st *partState) find(b *storage.Bucket) int {
	for i := range st.locks {
		if st.locks[i].bucket == b {
			return i
		}
	}
	return -1
}

// retire takes st, its locks released and its mu held, out of the map,
// lets go of its pins, unlocks it and pools it.
func (n *Node) retire(st *partState) {
	n.stMu.Lock()
	delete(n.state, st.txnID)
	for _, pid := range st.pins {
		n.partPins[pid]--
	}
	n.stMu.Unlock()
	st.pins = st.pins[:0]
	st.retired = true
	st.mu.Unlock()
	n.statePool.Put(st)
}

// LockReadLocal is the participant lock-and-read step as a direct call;
// a lock-read frame, local or off a doorbell, takes the same step
// (lockRead) through Node.serve. On failure everything this call
// acquired is rolled back, but locks from earlier calls for the same txn
// remain until an explicit AbortLocal (the coordinator owns cleanup).
func (n *Node) LockReadLocal(txnID uint64, entries []LockEntry) *LockResponse {
	resp := &LockResponse{}
	n.lockRead(txnID, entries, resp)
	return resp
}

// lockRead is LockReadLocal into a caller-held response: one lock step
// over the batch. The reads go into resp.Reads when the caller preset it
// (a coordinator's own-node batches write straight into the
// transaction's read set), else into a set built on the first read,
// their bytes into resp.buf; a failed batch takes its reads back out.
func (n *Node) lockRead(txnID uint64, entries []LockEntry, resp *LockResponse) {
	r := n.BeginRegion(txnID)
	for i, e := range entries {
		if e.Read && resp.Reads == nil { // lazily built: many batches are write-only
			resp.Reads = make(txn.ReadSet, len(entries))
		}
		// Resolved here, not taken from the coordinator: it routed against
		// a layout a live handoff or hot-record migration may since have
		// replaced.
		pid := n.dir.Partition(storage.RID{Table: e.Table, Key: e.Key})
		if reason := r.LockRead(e, pid, resp.Reads, resp.buf); reason != txn.AbortNone {
			r.End()
			for _, e := range entries[:i] {
				if e.Read {
					delete(resp.Reads, e.OpID)
				}
			}
			resp.OK, resp.Reason = false, reason
			return
		}
	}
	r.Keep()
	resp.OK = true
}

// CommitLocal applies the write set and releases the transaction's locks
// on this participant. With a WAL attached, the write set is appended to
// the log before the locks release (so the log's order of each record's
// writes equals commit order) and the call returns only once the record's group-commit flush
// has landed: a CommitLocal acknowledgement implies durability. The
// store copies the values, so a commit frame's may alias the doorbell
// buffer.
func (n *Node) CommitLocal(txnID, ts uint64, writes []WriteOp) error {
	if n.FaultInjector != nil {
		if err := n.FaultInjector(VerbCommit, txnID); err != nil {
			return err
		}
	}
	tk, err := n.applyLog(txnID, ts, writes)
	n.releaseAll(txnID)
	if err != nil {
		return err
	}
	if ferr := tk.Wait(); ferr != nil {
		// The writes are applied and the locks are gone; a failed
		// flush cannot be unwound and every later commit shares the
		// broken disk. Same invariant class as a failed post-commit
		// apply.
		panic(fmt.Sprintf("server: node %d: commit %d not durable: %v", n.ID(), txnID, ferr))
	}
	return nil
}

// AbortLocal releases the transaction's locks without applying writes.
func (n *Node) AbortLocal(txnID uint64) {
	n.releaseAll(txnID)
}

// releaseAll releases the transaction's locks here and retires its
// state: End of a step over its whole list.
func (n *Node) releaseAll(txnID uint64) {
	if st := n.lockState(txnID, false); st != nil {
		r := Region{n: n, st: st}
		r.End()
	}
}

// --- Handoff cutover state (fence, pin, drain; see handoff.go) ---

// Fence closes partition pid on this node to new transactions: a
// transaction's first lock in it aborts with AbortMoved (retryable — the
// retry re-reads the directory) while transactions that already pinned it
// run to completion. Commits of pinned transactions still apply
// here; the fence only closes the front door.
func (n *Node) Fence(pid cluster.PartitionID) {
	n.stMu.Lock()
	n.fenced[pid] = true
	n.stMu.Unlock()
}

// Unfence reopens a fenced partition (after the cutover installed the
// new layout, or when a handoff aborts).
func (n *Node) Unfence(pid cluster.PartitionID) {
	n.stMu.Lock()
	delete(n.fenced, pid)
	n.stMu.Unlock()
}

// DrainPartition waits until no in-flight transaction pins pid on this
// node. Call after Fence: with the front door closed, NO_WAIT locking
// guarantees every pinned transaction finishes (commits or aborts) in
// bounded time. The timeout guards against a wedged coordinator; a
// non-nil error means the handoff must be aborted, not forced.
func (n *Node) DrainPartition(pid cluster.PartitionID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n.stMu.Lock()
		pins := n.partPins[pid]
		n.stMu.Unlock()
		if pins == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server: node %d: partition %d did not drain within %v (%d pins)", n.ID(), pid, timeout, pins)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// applyLog is a write set's commit point at its primary — a commit
// frame's, an inner region's: apply, then log. Call it under the
// transaction's locks (log order must equal commit order); release them,
// then wait on the ticket. An apply error is an engine invariant
// violation: a write to a locked, verified record cannot fail.
func (n *Node) applyLog(txnID, ts uint64, writes []WriteOp) (wal.Ticket, error) {
	if err := applyWrites(n.store, ts, writes, false); err != nil {
		return wal.Ticket{}, fmt.Errorf("server: commit apply: %w", err)
	}
	return n.logWrites(txnID, ts, writes), nil
}

// applyWrites applies a write set to a store through its one record
// write, storage.Table.Write, stamped with the transaction's commit
// timestamp ts (0 without a commit clock); the store decides whether
// the overwritten values are retained. Inserts that find the key
// already present degrade to updates, which makes application
// idempotent, and a delete of a missing key is a no-op.
//
// tolerant is for replicas and WAL replay: an update of a key the
// store does not hold yet lands as an insert (a warming node's backfill
// may not have copied it, a replayed key's insert may live in a
// snapshot the crash predates) and a missing table is created. A
// primary applies strictly: there the record is locked and verified.
//
// The store copies every value into its chunks, so a decoded write set
// may alias its receive buffer.
func applyWrites(st *storage.Store, ts uint64, writes []WriteOp, tolerant bool) error {
	for i := range writes {
		w := &writes[i]
		tbl := st.Table(w.Table)
		if tbl == nil && tolerant {
			tbl = st.CreateTable(w.Table, 0)
		}
		if tbl == nil {
			return fmt.Errorf("server: no table %d", w.Table)
		}
		var mode storage.WriteMode
		switch {
		case w.Type == txn.OpUpdate && !tolerant:
			mode = storage.WriteUpdate
		case w.Type == txn.OpUpdate, w.Type == txn.OpInsert:
			mode = storage.WriteUpsert
		case w.Type == txn.OpDelete:
			mode = storage.WriteDelete
		default:
			return fmt.Errorf("server: bad write type %v", w.Type)
		}
		err := tbl.Write(w.Key, w.Value, ts, mode)
		if err != nil && (mode != storage.WriteDelete || err != storage.ErrNotFound) {
			return fmt.Errorf("server: %v %v/%d: %w", w.Type, w.Table, w.Key, err)
		}
	}
	return nil
}

// --- The replication stream (§5, Figure 6) ---

// EncodeInnerRepl builds the one-way primary→replica message: a write
// set, then the node to ack to.
func EncodeInnerRepl(txnID, ts uint64, coordinator transport.NodeID, writes []WriteOp) []byte {
	w := wire.NewWriter(writesSize(writes) + 4)
	EncodeWritesTo(w, txnID, ts, writes)
	w.Uint32(uint32(coordinator))
	return w.Bytes()
}

// DecodeInnerRepl parses the primary→replica message.
func DecodeInnerRepl(p []byte) (txnID, ts uint64, coordinator transport.NodeID, writes []WriteOp, err error) {
	r := wire.NewReader(p)
	txnID, ts, writes = decodeWrites(r)
	coordinator = transport.NodeID(r.Uint32())
	return txnID, ts, coordinator, writes, r.Err()
}

// handleInnerRepl runs on a replica: apply the streamed write set as
// one job on the lane of the link it arrived on, so the link's messages
// apply in arrival order (see applyStream) — then ack to the node the
// message names: the transaction's coordinator (the primary that streamed has
// already moved on, Fig 6), or the primary itself for a backfill.
//
// A replica that cannot apply must not go silent: the stream is one-way,
// so a swallowed error would leave the waiter counting acks forever.
// Apply failures on a locked, already-committed write set are engine
// invariant violations — same class as a failed post-commit apply at a
// primary — so they surface loudly instead.
func (n *Node) handleInnerRepl(from transport.NodeID, req []byte, reply func([]byte, error)) {
	txnID, ts, coord, writes, err := DecodeInnerRepl(req)
	if err != nil {
		panic(fmt.Sprintf("server: replica %d: undecodable replication stream message: %v", n.ID(), err))
	}
	n.applyStream(from, txnID, ts, writes, func(aerr error) {
		if aerr != nil {
			panic(fmt.Sprintf("server: replica %d: apply of committed write set failed: %v", n.ID(), aerr))
		}
		n.ackCoordinator(from, coord, txnID)
		reply(nil, nil)
	})
}

// ackCoordinator sends a replica's ack for a write set via streamed
// here. A coordinator-only client (deploy.Client) joins no layout, so no
// address book names it: a replica without a route to it hands the ack
// to via, which the client dialed to ring the replicate frame.
//
// An undelivered ack leaves the waiter counting forever, and acks ride
// the protected control plane under every fault plan: a failed send
// (outside fabric teardown) to a member of the layout is an invariant
// violation. A client that left took its waiter with it.
func (n *Node) ackCoordinator(via, coord transport.NodeID, id uint64) {
	n.vm.Add(KindInnerAck)
	err := n.ep.Send(coord, VerbInnerAck, EncodeAbort(id))
	if errors.Is(err, transport.ErrNoSuchNode) && via != n.ID() {
		w := wire.NewWriter(12)
		w.Uint64(id)
		w.Uint32(uint32(coord))
		err = n.ep.Send(via, VerbInnerAck, w.Bytes())
	}
	if err != nil && !errors.Is(err, transport.ErrClosed) && n.dir.Topology().HasNode(coord) {
		panic(fmt.Sprintf("server: replica %d: ack to node %d undeliverable: %v", n.ID(), coord, err))
	}
}

// handleInnerAck runs on the coordinator: count down the waiter. An ack
// naming another node is one its replica could not address: pass it on.
func (n *Node) handleInnerAck(_ transport.NodeID, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	txnID := r.Uint64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(req) > 8 {
		if coord := transport.NodeID(r.Uint32()); r.Err() == nil && coord != n.ID() {
			return nil, n.ep.Send(coord, VerbInnerAck, req[:8])
		}
	}
	n.countDown(txnID, 1)
	return nil, nil
}

// countDown takes by off the waiter registered under id, firing it at zero.
func (n *Node) countDown(id uint64, by int) {
	n.ackMu.Lock()
	if a, ok := n.acks[id]; ok {
		if a.remaining -= by; a.remaining <= 0 {
			delete(n.acks, id)
			a.ch <- struct{}{} // cap 1, single signaller: never blocks
		}
	}
	n.ackMu.Unlock()
}

// Acks is one wait for replica acks on the §5 replication stream — an
// inner region's, a wave's replicate frames', a backfill's — used the
// same way by every sender: OpenAcks before the first send, so no ack can
// race past it; Resolve with the sends made, or Cancel; Await. Pooled:
// per-transaction waiters were measurable allocation churn.
type Acks struct {
	n         *Node
	id        uint64 // the stream messages carry it; replicas ack under it
	remaining int
	ch        chan struct{} // buffered(1): signalled when remaining hits 0
}

var ackPool = sync.Pool{
	New: func() any { return &Acks{ch: make(chan struct{}, 1)} },
}

// pendingAcks is the count a waiter opens with: far above any real
// replica count, so early acks count down but cannot fire it; Resolve
// subtracts it back out, race-free for every interleaving.
const pendingAcks = 1 << 50

// OpenAcks registers a pending wait under a fresh id.
func (n *Node) OpenAcks() *Acks {
	a := ackPool.Get().(*Acks)
	a.n, a.remaining = n, pendingAcks
	n.ackMu.Lock()
	n.ackSeq++
	a.id = n.ackSeq
	n.acks[a.id] = a
	n.ackMu.Unlock()
	return a
}

// Resolve fixes the wait at sent acks, the stream messages actually sent.
// If every ack already arrived — or sent is zero — the waiter fires now.
func (a *Acks) Resolve(sent int) { a.n.countDown(a.id, pendingAcks-sent) }

// Cancel discards the wait (nothing to join: the send failed, or the
// joiner gave up) and recycles the waiter; a late ack is ignored. A nil
// waiter is a no-op.
func (a *Acks) Cancel() {
	if a == nil {
		return
	}
	a.n.ackMu.Lock()
	delete(a.n.acks, a.id)
	a.n.ackMu.Unlock()
	select {
	case <-a.ch: // fired before the cancel: drain, so the waiter is reusable
	default:
	}
	a.n = nil
	ackPool.Put(a)
}

// Await blocks until every resolved ack has arrived and recycles the
// waiter. Fabric teardown (acks die silently with the dispatcher)
// cancels it and returns transport.ErrClosed instead. A nil waiter —
// nothing was streamed for — returns at once.
func (a *Acks) Await() error {
	if a == nil {
		return nil
	}
	select {
	case <-a.ch:
		a.n = nil
		ackPool.Put(a)
		return nil
	case <-a.n.ep.Closed():
		a.Cancel()
		return transport.ErrClosed
	}
}
