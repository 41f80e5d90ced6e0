// Package occ implements the optimistic concurrency control baseline the
// paper evaluates against (based on MaaT's role in §7.3: an efficient
// distributed OCC). Execution reads records without locks, buffering
// writes; a distributed validation phase then (1) write-locks the write
// set on every participant, (2) re-validates the versions of the read
// set, and only then (3) applies and commits. Any conflict discovered at
// validation wastes all the work performed — the effect that makes OCC
// degrade fastest under contention in Figures 9 and 10.
package occ

import (
	"context"
	"fmt"
	"slices"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

// RegisterVerbs installs the OCC-specific handlers on a node. It must be
// called on every node that can serve OCC transactions.
func RegisterVerbs(n *server.Node) {
	n.Endpoint().Handle(server.VerbOCCRead, func(_ transport.NodeID, req []byte) ([]byte, error) {
		return handleRead(n, req)
	})
	n.Endpoint().Handle(server.VerbOCCValid, func(_ transport.NodeID, req []byte) ([]byte, error) {
		return handleValidate(n, req)
	})
}

// --- wire formats ---

type readEntry struct {
	opID      int
	table     storage.TableID
	key       storage.Key
	mustExist bool
}

func encodeReadReq(entries []readEntry) []byte {
	w := wire.NewWriter(8 + len(entries)*20)
	w.Uint32(uint32(len(entries)))
	for _, e := range entries {
		w.Uint32(uint32(e.opID))
		w.Uint32(uint32(e.table))
		w.Uint64(uint64(e.key))
		w.Bool(e.mustExist)
	}
	return w.Bytes()
}

func decodeReadReq(p []byte) ([]readEntry, error) {
	r := wire.NewReader(p)
	n := r.Uint32()
	out := make([]readEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		e := readEntry{
			opID:  int(r.Uint32()),
			table: storage.TableID(r.Uint32()),
			key:   storage.Key(r.Uint64()),
		}
		e.mustExist = r.Bool()
		out = append(out, e)
	}
	return out, r.Err()
}

type readResp struct {
	ok       bool
	reason   txn.AbortReason
	reads    txn.ReadSet
	versions []uint64 // parallel to request entries
	// detail is coordinator-local failure context (never on the wire).
	detail string
}

func (rr *readResp) encode() []byte {
	w := wire.NewWriter(64)
	w.Bool(rr.ok)
	w.Uint8(uint8(rr.reason))
	rr.reads.Encode(w)
	w.Uint64s(rr.versions)
	return w.Bytes()
}

func decodeReadResp(p []byte) (*readResp, error) {
	r := wire.NewReader(p)
	rr := &readResp{}
	rr.ok = r.Bool()
	rr.reason = txn.AbortReason(r.Uint8())
	rr.reads = txn.DecodeReadSet(r, nil)
	rr.versions = r.Uint64s()
	return rr, r.Err()
}

// validate request: phase 1 locks the write set, phase 2 checks read
// versions. Both phases park their effects in the node's participant
// state so the shared commit/abort verbs finish the protocol.
const (
	phaseLock  uint8 = 1
	phaseCheck uint8 = 2
)

type validateReq struct {
	txnID uint64
	phase uint8
	// phase 1: write-set keys to lock.
	writeKeys []storage.RID
	// phase 2: read versions to check.
	readKeys []storage.RID
	versions []uint64
}

func (v *validateReq) encode() []byte {
	w := wire.NewWriter(64)
	w.Uint64(v.txnID)
	w.Uint8(v.phase)
	w.Uint32(uint32(len(v.writeKeys)))
	for _, k := range v.writeKeys {
		w.Uint32(uint32(k.Table))
		w.Uint64(uint64(k.Key))
	}
	w.Uint32(uint32(len(v.readKeys)))
	for i, k := range v.readKeys {
		w.Uint32(uint32(k.Table))
		w.Uint64(uint64(k.Key))
		w.Uint64(v.versions[i])
	}
	return w.Bytes()
}

func decodeValidateReq(p []byte) (*validateReq, error) {
	r := wire.NewReader(p)
	v := &validateReq{}
	v.txnID = r.Uint64()
	v.phase = r.Uint8()
	nw := r.Uint32()
	for i := uint32(0); i < nw; i++ {
		v.writeKeys = append(v.writeKeys, storage.RID{
			Table: storage.TableID(r.Uint32()),
			Key:   storage.Key(r.Uint64()),
		})
	}
	nr := r.Uint32()
	for i := uint32(0); i < nr; i++ {
		v.readKeys = append(v.readKeys, storage.RID{
			Table: storage.TableID(r.Uint32()),
			Key:   storage.Key(r.Uint64()),
		})
		v.versions = append(v.versions, r.Uint64())
	}
	return v, r.Err()
}

// --- participant handlers ---

func handleRead(n *server.Node, req []byte) ([]byte, error) {
	entries, err := decodeReadReq(req)
	if err != nil {
		return nil, err
	}
	resp := readLocal(n, entries)
	return resp.encode(), nil
}

func readLocal(n *server.Node, entries []readEntry) *readResp {
	resp := &readResp{ok: true, reads: make(txn.ReadSet), versions: make([]uint64, len(entries))}
	for i, e := range entries {
		tbl := n.Store().Table(e.table)
		if tbl == nil {
			return &readResp{reason: txn.AbortInternal}
		}
		v, ver, err := tbl.Bucket(e.key).Get(e.key)
		if err != nil {
			if e.mustExist {
				return &readResp{reason: txn.AbortNotFound}
			}
			ver = 0
			v = nil
		}
		resp.reads[e.opID] = v
		resp.versions[i] = ver
	}
	return resp
}

func handleValidate(n *server.Node, req []byte) ([]byte, error) {
	v, err := decodeValidateReq(req)
	if err != nil {
		return nil, err
	}
	ok, reason := validateLocal(n, v)
	w := wire.NewWriter(2)
	w.Bool(ok)
	// The failure reason rides along so the coordinator can distinguish a
	// retryable stale-layout abort (AbortMoved, a handoff flipped the
	// partition mid-validate) from a genuine validation conflict.
	w.Uint8(uint8(reason))
	return w.Bytes(), nil
}

func validateLocal(n *server.Node, v *validateReq) (bool, txn.AbortReason) {
	switch v.phase {
	case phaseLock:
		entries := make([]server.LockEntry, 0, len(v.writeKeys))
		for _, k := range v.writeKeys {
			entries = append(entries, server.LockEntry{
				Table: k.Table, Key: k.Key,
				Mode: storage.LockExclusive,
			})
		}
		resp := n.LockReadLocal(v.txnID, entries)
		if !resp.OK {
			return false, resp.Reason
		}
		return true, txn.AbortNone
	case phaseCheck:
		for i, k := range v.readKeys {
			tbl := n.Store().Table(k.Table)
			if tbl == nil {
				return false, txn.AbortValidation
			}
			b := tbl.Bucket(k.Key)
			cur, err := b.Version(k.Key)
			if err != nil {
				cur = 0
			}
			if cur != v.versions[i] {
				return false, txn.AbortValidation
			}
			// An unchanged version is not enough: a concurrent writer
			// past its lock phase (1) holds this bucket exclusively and
			// WILL install a new version whatever we observe now. With a
			// multi-partition writer applying partition by partition,
			// skipping this check admits read skew: the reader sees the
			// writer's value on one partition and validates the stale
			// version on another while its lock is still held (caught by
			// the serializability checker, internal/check). The read
			// validates only if no other transaction write-locks the
			// bucket; our own write lock (read ∩ write set) is fine.
			if _, held := n.HeldLockMode(v.txnID, b); held {
				continue
			}
			if !b.Lock.TryLock(storage.LockShared) {
				return false, txn.AbortValidation
			}
			b.Lock.Unlock(storage.LockShared)
		}
		return true, txn.AbortNone
	}
	return false, txn.AbortInternal
}

// --- coordinator engine ---

// Engine is an OCC coordinator bound to a node.
type Engine struct {
	node *server.Node
	// afterValidate, when set by a test, runs once phase-2 read
	// validation has succeeded — the point from which the transaction's
	// place in the serial order is fixed.
	afterValidate func()
}

// New creates an OCC engine; RegisterVerbs must have been called on every
// node in the cluster.
func New(n *server.Node) *Engine { return &Engine{node: n} }

// Name implements cc.Engine.
func (e *Engine) Name() string { return "OCC" }

// Run implements cc.Engine. Cancellation is honored during the
// execution phase and before each validation phase; once validation has
// succeeded the transaction commits regardless of ctx.
func (e *Engine) Run(ctx context.Context, req *txn.Request) txn.Result {
	n := e.node
	proc := n.Registry().Lookup(req.Proc)
	if proc == nil {
		return txn.Result{Reason: txn.AbortInternal}
	}
	if proc.ReadOnly && n.Clock() != nil {
		// MVCC snapshot path: lock-free, validation-free, zero verbs for
		// replica-local partitions.
		res, err := n.RunSnapshot(ctx, *req)
		if err != nil {
			return txn.Result{Reason: txn.AbortInternal, Detail: err.Error()}
		}
		return *res
	}
	txnID := req.ID
	if txnID == 0 {
		txnID = n.NextTxnID()
	}

	reads := make(txn.ReadSet, len(proc.Ops))
	pending := make(map[storage.RID][]byte)
	versions := make(map[storage.RID]uint64)
	writes := make(map[cluster.PartitionID][]server.WriteOp)
	readParts := make(map[cluster.PartitionID][]storage.RID)
	var readRIDs, writeRIDs []storage.RID
	partsTouched := make(map[cluster.PartitionID]bool)

	// --- execution phase: unlocked reads, buffered writes ---
	for i := range proc.Ops {
		if reason, done := cc.Cancelled(ctx); done {
			// Nothing locked yet: the execution phase holds no state on
			// any participant.
			return txn.Result{Reason: reason, Distributed: len(partsTouched) > 1}
		}
		op := &proc.Ops[i]
		key, ok := op.Key(req.Args, reads)
		if !ok {
			return txn.Result{Reason: txn.AbortInternal}
		}
		rid := storage.RID{Table: op.Table, Key: key}
		pid := n.Directory().Partition(rid)
		partsTouched[pid] = true
		target := n.Directory().Topology().Primary(pid)

		needsRead := op.Type == txn.OpRead || op.Type == txn.OpUpdate
		if needsRead {
			if pv, ok := pending[rid]; ok {
				reads[i] = pv
			} else {
				rr := e.readOne(target, i, rid, op.Type != txn.OpInsert)
				if !rr.ok {
					return txn.Result{Reason: rr.reason, Detail: rr.detail, Distributed: len(partsTouched) > 1}
				}
				reads[i] = rr.reads[i]
				versions[rid] = rr.versions[0]
				readParts[pid] = append(readParts[pid], rid)
				readRIDs = append(readRIDs, rid)
			}
		}
		if op.Check != nil {
			if err := op.Check(reads[i], req.Args, reads); err != nil {
				return txn.Result{Reason: txn.AbortConstraint, Distributed: len(partsTouched) > 1}
			}
		}
		if op.Type.IsWrite() {
			var old []byte
			if op.Type == txn.OpUpdate {
				old = reads[i]
			}
			var newVal []byte
			if op.Type != txn.OpDelete {
				nv, err := op.Mutate(old, req.Args, reads)
				if err != nil {
					return txn.Result{Reason: txn.AbortConstraint, Distributed: len(partsTouched) > 1}
				}
				newVal = nv
			}
			pending[rid] = newVal
			writes[pid] = append(writes[pid], server.WriteOp{
				Table: op.Table, Key: key, Type: op.Type, Value: newVal,
			})
			writeRIDs = append(writeRIDs, rid)
		}
	}

	distributed := len(partsTouched) > 1
	topo := n.Directory().Topology()

	// --- validation phase 1: write-lock every write set ---
	var lockedNodes []transport.NodeID // deduplicated
	for pid, ws := range writes {
		if reason, done := cc.Cancelled(ctx); done {
			n.AbortAll(lockedNodes, txnID)
			return txn.Result{Reason: reason, Distributed: distributed}
		}
		target := topo.Primary(pid)
		keys := make([]storage.RID, 0, len(ws))
		for _, w := range ws {
			keys = append(keys, storage.RID{Table: w.Table, Key: w.Key})
		}
		v := &validateReq{txnID: txnID, phase: phaseLock, writeKeys: keys}
		ok, reason, err := e.validateAt(target, v)
		if err != nil {
			n.AbortAll(lockedNodes, txnID)
			return txn.Result{
				Reason:      server.TransportAbortReason(err),
				Detail:      fmt.Sprintf("validate at node %d: %v", target, err),
				Distributed: distributed,
			}
		}
		if !slices.Contains(lockedNodes, target) {
			lockedNodes = append(lockedNodes, target)
		}
		if !ok {
			n.AbortAll(lockedNodes, txnID)
			if reason == txn.AbortNone {
				reason = txn.AbortValidation
			}
			return txn.Result{Reason: reason, Distributed: distributed}
		}
	}

	// Reserve the commit timestamp here — under the write locks and
	// BEFORE read validation. OCC holds no read locks, so the reserve is
	// the only thing ordering this transaction against a later writer of
	// a key it merely read: a validated read of k means every conflicting
	// writer of k locks k (and so reserves) after this point, which makes
	// timestamp order agree with serial order. Reserving after validation
	// let such a writer slip a smaller timestamp in between, and a
	// snapshot then saw its write without ours. Every apply below is
	// stamped with ts, and the deferred Release — after every participant
	// commit has gathered, or on any abort path, which applies nothing
	// anywhere — lets the stable watermark move past it.
	var ts uint64
	if c := n.Clock(); c != nil {
		ts = c.Reserve()
		defer c.Release(ts)
	}

	// --- validation phase 2: re-check read versions under write locks ---
	for pid, rids := range readParts {
		target := topo.Primary(pid)
		v := &validateReq{txnID: txnID, phase: phaseCheck, readKeys: rids}
		for _, rid := range rids {
			v.versions = append(v.versions, versions[rid])
		}
		ok, vreason, err := e.validateAt(target, v)
		if err != nil || !ok {
			n.AbortAll(lockedNodes, txnID)
			reason, detail := vreason, ""
			if reason == txn.AbortNone {
				reason = txn.AbortValidation
			}
			if err != nil {
				reason = server.TransportAbortReason(err)
				detail = fmt.Sprintf("validate at node %d: %v", target, err)
			}
			return txn.Result{Reason: reason, Detail: detail, Distributed: distributed}
		}
	}

	if e.afterValidate != nil {
		e.afterValidate()
	}

	// Last cancellation point: validation succeeded but nothing is
	// applied yet, so aborting here is still clean.
	if reason, done := cc.Cancelled(ctx); done {
		n.AbortAll(lockedNodes, txnID)
		return txn.Result{Reason: reason, Distributed: distributed}
	}

	// --- commit: replicate then apply+release at each write participant ---
	// One replicate wave (the primaries stream concurrently; every replica
	// ack is joined) — serializing the partitions would stretch the
	// validated-lock hold window by a round trip each. An error means no
	// replica received anything (a partly streamed fan-out is Node.Replicate's
	// to surface), so the abort is clean and retryable, as in twopl.
	if err := n.Replicate(txnID, ts, lockedNodes, writes); err != nil {
		n.AbortAll(lockedNodes, txnID)
		return txn.Result{Reason: server.TransportAbortReason(err), Detail: err.Error(), Distributed: distributed}
	}
	w := n.NewWave()
	w.CommitAll(txnID, ts, lockedNodes, writes)
	w.Wait() // synchronous second phase: the client sees applied writes
	err := w.Errs()
	w.Release()
	if err != nil {
		return txn.Result{Reason: txn.AbortInternal, Detail: err.Error(), Distributed: distributed}
	}
	n.SampleCommit(readRIDs, writeRIDs)
	return txn.Result{Committed: true, Reads: reads, Distributed: distributed}
}

func (e *Engine) readOne(target transport.NodeID, opID int, rid storage.RID, mustExist bool) *readResp {
	entries := []readEntry{{opID: opID, table: rid.Table, key: rid.Key, mustExist: mustExist}}
	if target == e.node.ID() {
		return readLocal(e.node, entries)
	}
	raw, err := e.node.Endpoint().Call(target, server.VerbOCCRead, encodeReadReq(entries))
	if err != nil {
		return &readResp{
			reason: server.TransportAbortReason(err),
			detail: fmt.Sprintf("read at node %d: %v", target, err),
		}
	}
	rr, derr := decodeReadResp(raw)
	if derr != nil {
		return &readResp{reason: txn.AbortInternal, detail: fmt.Sprintf("read at node %d: %v", target, derr)}
	}
	return rr
}

func (e *Engine) validateAt(target transport.NodeID, v *validateReq) (bool, txn.AbortReason, error) {
	if target == e.node.ID() {
		ok, reason := validateLocal(e.node, v)
		return ok, reason, nil
	}
	raw, err := e.node.Endpoint().Call(target, server.VerbOCCValid, v.encode())
	if err != nil {
		return false, txn.AbortNone, err
	}
	r := wire.NewReader(raw)
	ok := r.Bool()
	reason := txn.AbortReason(r.Uint8())
	return ok, reason, r.Err()
}
