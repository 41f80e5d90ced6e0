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

	// Participant transaction state (locks held on behalf of remote
	// coordinators, and by local coordinators for uniformity). stMu also
	// guards the handoff cutover state below: fencing and pinning must
	// be one critical section, or a drain could miss a transaction that
	// passed the fence check but had not yet made its pin visible.
	stMu  sync.Mutex
	state map[uint64]*partState
	// fenced marks partitions mid-handoff on this node: new lock
	// acquisitions and inner regions abort with AbortMoved while
	// transactions already pinned run to completion (no global quiesce).
	fenced map[cluster.PartitionID]bool
	// partPins counts in-flight local work per partition — one pin per
	// held bucket lock plus one per executing inner region. A handoff
	// drains a partition by fencing it and waiting for its pins to
	// reach zero.
	partPins map[cluster.PartitionID]int

	// Pending replica acks awaited by local coordinators (a transaction's
	// inner acks, its outer acks, a backfill's): ack id → countdown.
	ackMu   sync.Mutex
	acks    map[uint64]*AckWaiter
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

	// FaultInjector, when non-nil, is consulted before commits and
	// replicate frames; tests use it to simulate participant failures.
	FaultInjector func(verb string, txnID uint64) error

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

// AckWaiter tracks one transaction's pending inner-replica acks. Waiters
// are pooled: at benchmark rates the per-transaction waiter+channel pair
// was measurable allocation churn.
type AckWaiter struct {
	remaining int
	ch        chan struct{} // buffered(1): signalled when remaining hits 0
}

// Done returns the channel that receives exactly one token when every
// expected ack has arrived.
func (w *AckWaiter) Done() <-chan struct{} { return w.ch }

var ackPool = sync.Pool{
	New: func() any { return &AckWaiter{ch: make(chan struct{}, 1)} },
}

// partState tracks one transaction's footprint on this participant.
type partState struct {
	// mu serializes LockReadLocal calls for this transaction on this
	// participant. With lane-aware fan-out a coordinator may issue
	// several per-lane batches of ONE wave to the same node
	// concurrently; the suffix-based rollback below is only correct
	// while a single batch mutates locks at a time. Different
	// transactions' batches still run fully in parallel — that is where
	// lanes earn their throughput — and same-transaction batches on one
	// node are a handful of local lock words, so the serialization is
	// invisible next to a network round trip.
	mu    sync.Mutex
	locks []lockRef
	// dropped marks a state the empty-fail fast path removed from the
	// node's map while another same-transaction batch was already
	// holding the pointer and queueing on mu; the late batch must
	// re-fetch a live state or its locks would be orphaned.
	dropped bool
}

type lockRef struct {
	bucket *storage.Bucket
	mode   storage.LockMode
	// pid is the partition the record routed to at acquisition time;
	// the release path unpins it.
	pid cluster.PartitionID
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
		acks:     make(map[uint64]*AckWaiter),
		vm:       NewVerbMetrics(),
	}
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
	// FIFO: the replication stream's applies run on the owning record's
	// lane (see applyByLane), acks count down inline.
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

func (n *Node) getState(txnID uint64, create bool) *partState {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	st, ok := n.state[txnID]
	if !ok && create {
		st = &partState{}
		n.state[txnID] = st
	}
	return st
}

func (n *Node) dropState(txnID uint64) *partState {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	st := n.state[txnID]
	delete(n.state, txnID)
	return st
}

// ActiveTxns reports how many transactions currently hold participant
// state here (diagnostics; the harness asserts it drains to zero).
func (n *Node) ActiveTxns() int {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	return len(n.state)
}

// hasLock reports whether the state already covers bucket b with a mode
// at least as strong as mode.
func (st *partState) hasLock(b *storage.Bucket, mode storage.LockMode) (held bool, idx int) {
	for i, l := range st.locks {
		if l.bucket == b {
			if l.mode == storage.LockExclusive || mode == storage.LockShared {
				return true, i
			}
			return false, i // held shared, need exclusive → upgrade
		}
	}
	return false, -1
}

// LockReadLocal is the participant lock-and-read step, called directly
// by a local coordinator's wave or by a VerbLockRead doorbell frame. On
// failure everything this call acquired is rolled back, but locks from
// earlier calls for the same txn remain until an explicit AbortLocal
// (the coordinator owns cleanup).
func (n *Node) LockReadLocal(txnID uint64, entries []LockEntry) *LockResponse {
	resp := &LockResponse{}
	n.lockRead(txnID, entries, resp)
	return resp
}

// lockRead is LockReadLocal into a caller-held response. The reads go
// into resp.Reads when the caller preset it (a coordinator's own-node
// batches write straight into the transaction's read set), else into a
// set built on the first read; a failed batch takes its reads back out.
func (n *Node) lockRead(txnID uint64, entries []LockEntry, resp *LockResponse) {
	var st *partState
	for {
		st = n.getState(txnID, true)
		st.mu.Lock()
		if !st.dropped {
			break
		}
		st.mu.Unlock() // raced the empty-fail delete: fetch a live state
	}
	defer st.mu.Unlock()
	acquired := 0 // locks appended to st.locks by this call
	done := 0     // entries whose read may already be in resp.Reads
	fail := func(reason txn.AbortReason) {
		// Release and remove the suffix this call acquired.
		n.stMu.Lock()
		for _, l := range st.locks[len(st.locks)-acquired:] {
			l.bucket.Lock.Unlock(l.mode)
			n.partPins[l.pid]--
		}
		st.locks = st.locks[:len(st.locks)-acquired]
		// A transaction that holds nothing here needs no abort round
		// trip: drop the empty state now so the coordinator can skip the
		// cleanup RPC on the NO_WAIT retry path. Deleting only this
		// exact state (and flagging it) keeps a concurrent sibling
		// batch — queued on st.mu with the stale pointer — from
		// appending locks to an orphan.
		if len(st.locks) == 0 && n.state[txnID] == st {
			delete(n.state, txnID)
			st.dropped = true
		}
		n.stMu.Unlock()
		for _, e := range entries[:done] {
			delete(resp.Reads, e.OpID)
		}
		resp.OK, resp.Reason = false, reason
	}
	for i, e := range entries {
		tbl := n.store.Table(e.Table)
		if tbl == nil {
			fail(txn.AbortInternal)
			return
		}
		b := tbl.Bucket(e.Key)

		n.stMu.Lock()
		held, idx := st.hasLock(b, e.Mode)
		n.stMu.Unlock()
		switch {
		case held:
			// Already sufficiently locked by this txn.
		case idx >= 0:
			// Held shared, exclusive requested: try upgrade. No fence
			// check: the held lock already pins the partition, and a
			// drain waits for this transaction either way.
			if !b.Lock.Upgrade() {
				fail(txn.AbortLockConflict)
				return
			}
			n.stMu.Lock()
			st.locks[idx].mode = storage.LockExclusive
			n.stMu.Unlock()
		default:
			// Re-resolve the record's partition at acquisition time and
			// verify this node still primaries it: the coordinator routed
			// against a layout that a live handoff or hot-record migration
			// may since have replaced. Fence check and pin are one stMu
			// critical section, so a concurrent drain either sees the pin
			// or this call sees the fence — never neither.
			pid := n.dir.Partition(storage.RID{Table: e.Table, Key: e.Key})
			n.stMu.Lock()
			if n.fenced[pid] || n.dir.Topology().Primary(pid) != n.ID() {
				n.stMu.Unlock()
				fail(txn.AbortMoved)
				return
			}
			n.partPins[pid]++
			n.stMu.Unlock()
			if !b.Lock.TryLock(e.Mode) {
				n.stMu.Lock()
				n.partPins[pid]--
				n.stMu.Unlock()
				fail(txn.AbortLockConflict)
				return
			}
			n.stMu.Lock()
			if st.locks == nil {
				st.locks = make([]lockRef, 0, len(entries))
			}
			st.locks = append(st.locks, lockRef{bucket: b, mode: e.Mode, pid: pid})
			n.stMu.Unlock()
			acquired++
		}

		if e.Read || e.MustExist {
			v, _, err := b.Get(e.Key)
			if err != nil {
				if e.MustExist {
					fail(txn.AbortNotFound)
					return
				}
				v = nil
			}
			if e.Read {
				if resp.Reads == nil { // lazily built: many batches are write-only
					resp.Reads = make(txn.ReadSet, len(entries))
				}
				resp.Reads[e.OpID] = v
				done = i + 1
			}
		}
	}
	resp.OK = true
}

// CommitLocal applies the write set and releases the transaction's locks
// on this participant. With a WAL attached, the write set is appended to
// the log before the locks release (so per-lane log order equals commit
// order) and the call returns only once the record's group-commit flush
// has landed: a CommitLocal acknowledgement implies durability. The
// values are copied: a commit frame's alias the doorbell buffer.
func (n *Node) CommitLocal(txnID, ts uint64, writes []WriteOp) error {
	return n.commitLocal(txnID, ts, writes, false)
}

// commitLocal is CommitLocal with the values' ownership stated (see
// ApplyWrites): a wave passes owned for the coordinator's own node,
// where the values are the ones the transaction's mutators built.
func (n *Node) commitLocal(txnID, ts uint64, writes []WriteOp, owned bool) error {
	if n.FaultInjector != nil {
		if err := n.FaultInjector(VerbCommit, txnID); err != nil {
			return err
		}
	}
	if err := ApplyWrites(n.store, ts, writes, owned); err != nil {
		// A write to a locked, verified record cannot legitimately fail;
		// treat as an engine invariant violation.
		n.releaseAll(txnID)
		return fmt.Errorf("server: commit apply: %w", err)
	}
	tk := n.LogWrites(txnID, ts, writes)
	n.releaseAll(txnID)
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

func (n *Node) releaseAll(txnID uint64) {
	st := n.dropState(txnID)
	if st == nil {
		return
	}
	for _, l := range st.locks {
		l.bucket.Lock.Unlock(l.mode)
	}
	if len(st.locks) > 0 {
		n.stMu.Lock()
		for _, l := range st.locks {
			n.partPins[l.pid]--
		}
		n.stMu.Unlock()
	}
}

// --- Handoff cutover state (fence, pin, drain; see handoff.go) ---

// Fence blocks new lock acquisitions and inner regions for partition
// pid on this node: they abort with AbortMoved (retryable — the retry
// re-reads the directory) while transactions already holding locks or
// pins run to completion. Commits of pinned transactions still apply
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

// EnterPartition pins pid for an inner region (which acquires its hot
// locks outside LockReadLocal). It reports false when the partition is
// fenced or no longer primaried here — the engine aborts the region
// with AbortMoved. Every successful Enter must be paired with
// LeavePartition.
func (n *Node) EnterPartition(pid cluster.PartitionID) bool {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	if n.fenced[pid] || n.dir.Topology().Primary(pid) != n.ID() {
		return false
	}
	n.partPins[pid]++
	return true
}

// LeavePartition releases an EnterPartition pin.
func (n *Node) LeavePartition(pid cluster.PartitionID) {
	n.stMu.Lock()
	n.partPins[pid]--
	n.stMu.Unlock()
}

// ApplyWrites applies a write set to a store (used by participants at
// commit and by inner regions). Inserts that find the key already present
// degrade to updates, which makes application idempotent. ts is the
// transaction's commit timestamp; when the store retains versions
// (MVCC) the overwritten values go onto the version chains stamped with
// it, otherwise it is ignored.
//
// owned hands the value buffers to the store uncopied
// (storage.Bucket.PutOwned): only for values a transaction's mutators
// built on this node, which txn.MutateFunc's contract makes the
// engine's — an inner region's writes, a coordinator's own-node commit.
// A decoded write set aliases its receive buffer and must pass false.
// Stores that retain versions copy either way.
func ApplyWrites(st *storage.Store, ts uint64, writes []WriteOp, owned bool) error {
	mvcc := st.MVCCEnabled()
	for i := range writes {
		w := &writes[i]
		tbl := st.Table(w.Table)
		if tbl == nil {
			return fmt.Errorf("server: no table %d", w.Table)
		}
		var err error
		switch {
		case w.Type == txn.OpUpdate && mvcc:
			err = tbl.PutAt(w.Key, w.Value, ts)
		case w.Type == txn.OpUpdate && owned:
			err = tbl.Bucket(w.Key).PutOwned(w.Key, w.Value)
		case w.Type == txn.OpUpdate:
			err = tbl.Bucket(w.Key).Put(w.Key, w.Value)
		case w.Type == txn.OpInsert && mvcc:
			tbl.UpsertAt(w.Key, w.Value, ts)
		case w.Type == txn.OpInsert && owned:
			tbl.Bucket(w.Key).UpsertOwned(w.Key, w.Value)
		case w.Type == txn.OpInsert:
			tbl.Bucket(w.Key).Upsert(w.Key, w.Value)
		case w.Type == txn.OpDelete && mvcc:
			err = tbl.DeleteAt(w.Key, ts)
		case w.Type == txn.OpDelete:
			err = tbl.Bucket(w.Key).Delete(w.Key)
		default:
			return fmt.Errorf("server: bad write type %v", w.Type)
		}
		if err != nil && (w.Type != txn.OpDelete || err != storage.ErrNotFound) {
			return fmt.Errorf("server: %v %v/%d: %w", w.Type, w.Table, w.Key, err)
		}
	}
	return nil
}

// outerAckBit keys a transaction's outer replica acks apart from its
// inner region's, which arrive under the bare transaction id
// (node<<40|seq never sets the top bit): it can await both at once.
const outerAckBit = uint64(1) << 63

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

// handleInnerRepl runs on a replica: apply the streamed write set —
// each record on its owning lane, preserving the stream's per-record
// arrival order (see applyByLane) — then ack to the node the message
// names: the transaction's coordinator (the primary that streamed has
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
	n.applyByLane(txnID, ts, writes, func(aerr error) {
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
	if w, ok := n.acks[id]; ok {
		if w.remaining -= by; w.remaining <= 0 {
			delete(n.acks, id)
			w.ch <- struct{}{} // cap 1, single signaller: never blocks
		}
	}
	n.ackMu.Unlock()
}

// ExpectInnerAcks registers that the local coordinator will wait for
// `count` replica acks for txnID. It must be called *before* the stream
// is sent, so acks can never race past registration. The returned
// waiter's Done channel receives when all acks arrive (immediately if
// count <= 0). Hand the waiter back with ReleaseInnerWaiter when done.
func (n *Node) ExpectInnerAcks(txnID uint64, count int) *AckWaiter {
	w := ackPool.Get().(*AckWaiter)
	if count <= 0 {
		w.remaining = 0
		w.ch <- struct{}{}
		return w
	}
	w.remaining = count
	n.ackMu.Lock()
	n.acks[txnID] = w
	n.ackMu.Unlock()
	return w
}

// pendingAckSentinel is the provisional remaining-count a waiter is
// registered with before its sender knows how many acks to expect. It is
// far above any real replica count, so early acks can decrement but
// never fire the waiter; ResolveInnerAcks subtracts it back out once the
// true count is known — the countdown arithmetic of handleInnerAck,
// race-free for every interleaving of acks and resolution.
const pendingAckSentinel = 1 << 50

// ExpectPendingAcks registers a waiter for txnID before the number of
// expected acks is known (a wave's replicate frames are counted by the
// primaries serving them, a backfill by sending; a sender that knows its
// targets up front uses ExpectInnerAcks). Pair with ResolveInnerAcks
// (success) or CancelInnerAcks (abort).
func (n *Node) ExpectPendingAcks(txnID uint64) *AckWaiter {
	return n.ExpectInnerAcks(txnID, pendingAckSentinel)
}

// ResolveInnerAcks fixes a pending waiter's expected ack count to
// streamed (the number of stream messages actually sent). If every
// ack already arrived — or streamed is zero — the waiter fires now.
func (n *Node) ResolveInnerAcks(txnID uint64, streamed int) {
	n.countDown(txnID, pendingAckSentinel-streamed)
}

// CancelInnerAcks discards a registered waiter (inner region aborted, so
// no replication will happen).
func (n *Node) CancelInnerAcks(txnID uint64) {
	n.ackMu.Lock()
	delete(n.acks, txnID)
	n.ackMu.Unlock()
}

// ReleaseInnerWaiter returns a waiter to the pool. The caller must have
// either received from Done or cancelled the registration; any stale
// token is drained here so the waiter is reusable.
func (n *Node) ReleaseInnerWaiter(w *AckWaiter) {
	select {
	case <-w.ch:
	default:
	}
	ackPool.Put(w)
}

// AwaitAcks blocks until the waiter registered under id fires and hands it
// back to the pool. Fabric teardown (acks die silently with the dispatcher)
// cancels the registration and returns transport.ErrClosed instead.
func (n *Node) AwaitAcks(id uint64, w *AckWaiter) error {
	select {
	case <-w.Done():
		n.ReleaseInnerWaiter(w)
		return nil
	case <-n.ep.Closed():
		n.CancelInnerAcks(id)
		n.ReleaseInnerWaiter(w)
		return transport.ErrClosed
	}
}

// HeldLockMode reports whether txnID's participant state on this node
// already holds bucket b, and in which mode. The inner-region executor
// consults it to detect bucket sharing between a transaction's outer and
// inner regions: records are disjoint by construction, but bucket-level
// locking can hash an outer record and an inner record into one bucket,
// and NO_WAIT would otherwise self-abort the transaction forever.
func (n *Node) HeldLockMode(txnID uint64, b *storage.Bucket) (storage.LockMode, bool) {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	st := n.state[txnID]
	if st == nil {
		return 0, false
	}
	for _, l := range st.locks {
		if l.bucket == b {
			return l.mode, true
		}
	}
	return 0, false
}

// PromoteHeldLock records that bucket b's lock, held by txnID's
// participant state, was upgraded to exclusive (the lock word itself was
// already upgraded by the caller), so the eventual release matches the
// held mode.
func (n *Node) PromoteHeldLock(txnID uint64, b *storage.Bucket) {
	n.stMu.Lock()
	defer n.stMu.Unlock()
	st := n.state[txnID]
	if st == nil {
		return
	}
	for i := range st.locks {
		if st.locks[i].bucket == b {
			st.locks[i].mode = storage.LockExclusive
			return
		}
	}
}
