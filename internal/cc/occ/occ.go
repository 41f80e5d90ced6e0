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
	"sync"

	"github.com/chillerdb/chiller/internal/cc"
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

// A validate request is phase 2 of validation: the versions the
// execution phase observed at one participant, re-checked under the
// write locks phase 1 took (phase 1 is a lock-read wave, cc.Txn.LockWave).
type validateReq struct {
	txnID    uint64
	readKeys []storage.RID
	versions []uint64
}

func (v *validateReq) encode() []byte {
	w := wire.NewWriter(16 + len(v.readKeys)*20)
	w.Uint64(v.txnID)
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

// observed is one unlocked read of the execution phase: the record, the
// version it had, and the node that served it and will re-check it.
type observed struct {
	node    transport.NodeID
	rid     storage.RID
	version uint64
}

// scratch is an OCC transaction's working memory, pooled: the shared
// context, the reads to validate, and phase 2's request, rebuilt per
// participant over the same arrays.
type scratch struct {
	*cc.Txn
	seen  []observed
	check validateReq
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) release() {
	s.Txn.Release()
	s.Txn, s.seen = nil, s.seen[:0]
	scratchPool.Put(s)
}

// Run implements cc.Engine. OCC's policy over cc.Txn: every op takes its
// meaning during an execution phase that reads without locks and only
// buffers; validation then write-locks the write set (phase 1, one
// lock-read wave) and re-checks the versions read (phase 2). Cancellation
// is honored during the execution phase and before each validation
// phase; once validation has succeeded the transaction commits
// regardless of ctx.
func (e *Engine) Run(ctx context.Context, req *txn.Request) txn.Result {
	n := e.node
	proc, res, ok := cc.Begin(ctx, n, req)
	if !ok {
		return res
	}
	s := scratchPool.Get().(*scratch)
	s.Txn = cc.NewTxn(n, req, proc)
	defer s.release()
	dir := n.Directory()

	// --- execution phase: unlocked reads, buffered writes ---
	// Nothing is locked yet, so an abort here leaves no state on any
	// participant.
	for i := range proc.Ops {
		if reason, done := cc.Cancelled(ctx); done {
			return s.Abort(n, reason)
		}
		op := &proc.Ops[i]
		key, ok := op.Key(req.Args, s.Reads)
		if !ok {
			return s.Abort(n, txn.AbortInternal)
		}
		rid := storage.RID{Table: op.Table, Key: key}
		pid := dir.Partition(rid)
		target := dir.Topology().Primary(pid)
		s.Participant(target, pid)
		le := s.Entry(op, key)
		if le.MustExist {
			// The op depends on the stored record — its value, or just
			// its existence: read it, and validate that version later.
			rr := e.readOne(target, le)
			if !rr.ok {
				s.Detail = rr.detail
				return s.Abort(n, rr.reason)
			}
			if le.Read {
				s.Reads[i] = rr.reads[i]
			}
			s.seen = append(s.seen, observed{node: target, rid: rid, version: rr.versions[0]})
		}
		if reason := s.Step(op, req.Args, key, pid, false); reason != txn.AbortNone {
			return s.Abort(n, reason)
		}
		if op.Type.IsWrite() {
			// Phase 1 only locks: what the write depends on was read
			// above and is validated in phase 2.
			le.Read, le.MustExist = false, false
			b := s.BatchFor(target, 0)
			b.Entries = append(b.Entries, le)
		}
	}

	// --- validation phase 1: write-lock every write set, in one wave ---
	if reason, done := cc.Cancelled(ctx); done {
		return s.Abort(n, reason)
	}
	if reason, ok := s.LockWave(n); !ok {
		return s.Abort(n, reason)
	}

	// Reserve the commit timestamp here — under the write locks and
	// BEFORE read validation. OCC holds no read locks, so the reserve is
	// the only thing ordering this transaction against a later writer of
	// a key it merely read: a validated read of k means every conflicting
	// writer of k locks k (and so reserves) after this point, which makes
	// timestamp order agree with serial order. Reserving after validation
	// let such a writer slip a smaller timestamp in between, and a
	// snapshot then saw its write without ours. Every apply of the tail is
	// stamped with it, and the deferred Release — after every participant
	// commit has gathered, or on any abort path, which applies nothing
	// anywhere — lets the stable watermark move past it.
	if c := n.Clock(); c != nil {
		s.TS = c.Reserve()
		defer c.Release(s.TS)
	}

	// --- validation phase 2: re-check read versions under write locks ---
	for i := range s.Parts {
		target := s.Parts[i].Node
		ok, reason, err := e.validateAt(target, s)
		if err != nil {
			s.Detail = fmt.Sprintf("validate at node %d: %v", target, err)
			return s.Abort(n, server.TransportAbortReason(err))
		}
		if !ok {
			if reason == txn.AbortNone {
				reason = txn.AbortValidation
			}
			return s.Abort(n, reason)
		}
	}

	if e.afterValidate != nil {
		e.afterValidate()
	}

	// Last cancellation point: validation succeeded but nothing is
	// applied yet, so aborting here is still clean.
	if reason, done := cc.Cancelled(ctx); done {
		return s.Abort(n, reason)
	}
	// Commit: the shared synchronous tail, over the write participants.
	// Its replicate wave streams from every primary concurrently —
	// serializing the partitions would stretch the validated-lock hold
	// window by a round trip each.
	return s.Commit(n)
}

// readOne reads the record le names at target, unlocked.
func (e *Engine) readOne(target transport.NodeID, le server.LockEntry) *readResp {
	entries := []readEntry{{opID: le.OpID, table: le.Table, key: le.Key, mustExist: le.MustExist}}
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

// validateAt runs phase 2 at target over the reads it served (a
// participant that served none validates trivially).
func (e *Engine) validateAt(target transport.NodeID, s *scratch) (bool, txn.AbortReason, error) {
	v := &s.check
	v.txnID, v.readKeys, v.versions = s.ID, v.readKeys[:0], v.versions[:0]
	for _, o := range s.seen {
		if o.node == target {
			v.readKeys, v.versions = append(v.readKeys, o.rid), append(v.versions, o.version)
		}
	}
	switch {
	case len(v.readKeys) == 0:
		return true, txn.AbortNone, nil
	case target == e.node.ID():
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
