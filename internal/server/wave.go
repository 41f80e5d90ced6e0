package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

// Wave is the one way a coordinator reaches participants: a
// scatter-gather of participant verbs (lock-read, read, validate,
// replicate, commit, abort, snapshot-read) that rings at most one
// doorbell per remote destination however many frames it carries there,
// and serves a frame addressed to the coordinator's own node by a direct
// call (the co-located fast path of the NAM-DB architecture) while the
// remote rings are in flight. Every engine's fan-outs — 2PL's and OCC's
// as much as Chiller's — are waves, so a verb has exactly one wire path
// and one participant entry point (applyVerb).
//
// Post frames with LockRead / Read / Validate / Commit / Abort /
// SnapshotRead, each of which returns a frame handle (ReplicateAll and
// CommitAll post a transaction's); gather once with Wait or Reap; read
// results per frame. Frames execute in posting order per
// destination and fail independently (see doorbell.go); a destination
// that fails as a unit (dropped ring, partition, dead peer) fails each
// of its frames with an error naming the node. A Wave is single-use and
// not safe for concurrent use; Release recycles it.
//
// A replicate frame makes its destination, a partition's primary, stream
// the write set to its replicas, which ack to this node (JoinReplicas).
// Engines differ only in what they compose: Chiller's tail posts
// [replicate, commit] per participant in one wave and joins after the
// locks are gone; 2PL and OCC replicate, join, then commit (Node.Replicate).
type Wave struct {
	n        *Node
	dests    []waveDest
	frames   []waveFrame
	destArr  [4]waveDest
	frameArr [6]waveFrame

	// ackID, set by a replicate frame, keys the replicas' acks: the gather
	// registers ack pending and resolves it with the sends the primaries report.
	ackID    uint64
	ack      *AckWaiter
	rung     time.Time
	streamed int
}

// waveDest is one destination node of a wave.
type waveDest struct {
	target  transport.NodeID
	bell    *Doorbell        // remote destination, until rung
	pd      *PendingDoorbell // remote destination, once rung
	results []wire.FrameResult
	err     error // the destination failed as a unit
}

// waveFrame is one posted verb. A remote frame is fully described by
// (dest, slot); a local frame keeps its arguments until the gather runs
// it and its outcome afterwards.
type waveFrame struct {
	dest int // index into Wave.dests
	slot int // frame index within the destination's doorbell

	kind      string // metric kind label, names the verb in errors
	txnID, ts uint64
	entries   []LockEntry
	versions  []uint64 // a validate frame's
	writes    []WriteOp
	// resp is a read frame's response: filled at the gather (local) or
	// at LockResponse (remote), into the Reads its poster preset, if any.
	resp     LockResponse
	decoded  bool
	streamed int // a replicate frame's send count
	err      error
}

var wavePool = sync.Pool{New: func() any { return new(Wave) }}

// NewWave starts an empty fan-out coordinated by this node.
func (n *Node) NewWave() *Wave {
	w := wavePool.Get().(*Wave)
	w.n = n
	w.dests, w.frames = w.destArr[:0], w.frameArr[:0]
	return w
}

// Release recycles the wave (and its doorbell pendings). Result
// payloads survive: they alias the response buffers, not the wave.
func (w *Wave) Release() {
	for i := range w.dests {
		if pd := w.dests[i].pd; pd != nil {
			pd.Release()
		}
	}
	// Zero what was used, not the whole inline storage.
	clear(w.dests)
	clear(w.frames)
	w.n, w.dests, w.frames = nil, nil, nil
	w.ackID, w.ack, w.streamed = 0, nil, 0
	wavePool.Put(w)
}

// post opens a frame against target, finding or adding the destination,
// and returns the frame plus the destination's doorbell (nil when the
// target is this node).
func (w *Wave) post(target transport.NodeID, kind string) (*waveFrame, *Doorbell) {
	di := -1
	for i := range w.dests {
		if w.dests[i].target == target {
			di = i
			break
		}
	}
	if di < 0 {
		d := waveDest{target: target}
		if target != w.n.ID() {
			d.bell = w.n.NewDoorbell(target)
		}
		w.dests = append(w.dests, d)
		di = len(w.dests) - 1
	}
	w.frames = append(w.frames, waveFrame{dest: di, kind: kind})
	return &w.frames[len(w.frames)-1], w.dests[di].bell
}

// LockRead posts a lock-and-read batch and returns its frame handle. Its
// reads are added to into when non-nil (a coordinator gathers every
// participant's reads into the transaction's one set), else returned in
// a set of their own.
func (w *Wave) LockRead(target transport.NodeID, txnID uint64, entries []LockEntry, into txn.ReadSet) int {
	return w.entries(KindLockRead, VerbLockRead, target, txnID, entries, nil, into)
}

// SnapshotRead posts an MVCC snapshot-read batch at timestamp ts and
// returns its frame handle; its reads are gathered like LockRead's.
func (w *Wave) SnapshotRead(target transport.NodeID, ts uint64, entries []LockEntry, into txn.ReadSet) int {
	return w.entries(KindSnapRead, VerbSnapshotRead, target, ts, entries, nil, into)
}

// Read posts an unlocked read batch (OCC's execution phase) and returns
// its frame handle: its reads are gathered like LockRead's, and each
// entry's version is appended to versions, in entry order, in the
// frame's LockResponse.Versions.
func (w *Wave) Read(target transport.NodeID, entries []LockEntry, into txn.ReadSet, versions []uint64) int {
	f := w.entries(KindRead, VerbRead, target, 0, entries, nil, into)
	w.frames[f].resp.Versions = versions
	return f
}

// Validate posts OCC's phase 2 at target: the versions entries were read
// at, re-checked under txnID's write locks (Node.validateLocal).
func (w *Wave) Validate(target transport.NodeID, txnID uint64, entries []LockEntry, versions []uint64) int {
	return w.entries(KindValidate, VerbValidate, target, txnID, entries, versions, nil)
}

// entries posts a frame in the lock-request encoding.
func (w *Wave) entries(kind, verb string, target transport.NodeID, id uint64, entries []LockEntry, versions []uint64, into txn.ReadSet) int {
	f, bell := w.post(target, kind)
	f.resp.Reads = into
	if bell != nil {
		f.slot = bell.postEntries(verb, id, entries, versions)
	} else {
		f.txnID, f.entries, f.versions = id, entries, versions
	}
	return len(w.frames) - 1
}

// Commit posts a commit (apply writes + release locks).
func (w *Wave) Commit(target transport.NodeID, txnID, ts uint64, writes []WriteOp) int {
	f, bell := w.post(target, KindCommit)
	if bell != nil {
		f.slot = bell.PostCommit(txnID, ts, writes)
	} else {
		f.txnID, f.ts, f.writes = txnID, ts, writes
	}
	return len(w.frames) - 1
}

// Abort posts a rollback (release locks, apply nothing).
func (w *Wave) Abort(target transport.NodeID, txnID uint64) int {
	f, bell := w.post(target, KindAbort)
	if bell != nil {
		f.slot = bell.PostAbort(txnID)
	} else {
		f.txnID = txnID
	}
	return len(w.frames) - 1
}

// Wait rings every remote destination's doorbell, runs the local frames
// while those round trips are in flight, and blocks until every
// completion has arrived — one round trip for the whole wave. Call
// exactly one of Wait or Reap, once.
func (w *Wave) Wait() { w.gather(false) }

// Reap is Wait without observing the round trips — for waves no protocol
// step is gated on (the presumed-commit tail: the frames executed at
// ring time and only invariant violations are checked). See
// PendingDoorbell.Reap. A wave that replicates observes them regardless:
// its caller waits out the longer replica-ack path anyway.
func (w *Wave) Reap() { w.gather(w.ackID == 0) }

func (w *Wave) gather(reap bool) {
	if w.ackID != 0 {
		// Before any ring, so no ack can race past the registration.
		w.ack, w.rung = w.n.ExpectPendingAcks(w.ackID), time.Now()
	}
	for i := range w.dests {
		if d := &w.dests[i]; d.bell != nil {
			d.pd, d.bell = d.bell.Ring(), nil
		}
	}
	n := w.n
	for i := range w.frames {
		f := &w.frames[i]
		if w.dests[f.dest].pd != nil {
			continue
		}
		switch f.kind {
		case KindLockRead:
			n.lockRead(f.txnID, f.entries, &f.resp)
		case KindReplicate:
			f.streamed, f.err = n.replicateLocal(n.ID(), w.ackID, f.ts, f.writes)
		case KindCommit:
			// The coordinator's own values: handed to the store, not
			// copied (see commitLocal).
			f.err = n.commitLocal(f.txnID, f.ts, f.writes, true)
		case KindAbort:
			n.AbortLocal(f.txnID)
		case KindSnapRead:
			n.SnapshotReadLocal(f.txnID, f.entries, &f.resp) // the timestamp, in the id slot
		case KindRead:
			n.readLocal(f.entries, &f.resp)
		case KindValidate:
			n.validateLocal(f.txnID, f.entries, f.versions, &f.resp)
		}
		f.decoded = true
	}
	for i := range w.dests {
		d := &w.dests[i]
		if d.pd == nil {
			continue
		}
		if reap {
			d.results, d.err = d.pd.Reap()
		} else {
			d.results, d.err = d.pd.Wait()
		}
	}
	if w.ack != nil {
		// A remote frame's send count arrives in its result, beside an error
		// too (Node.Replicate); a ring that failed as a unit sent nothing.
		for i := range w.frames {
			f := &w.frames[i]
			if d := &w.dests[f.dest]; f.kind == KindReplicate && d.pd != nil && d.err == nil {
				f.streamed = int(wire.NewReader(d.results[f.slot].Payload).Uint32())
			}
			w.streamed += f.streamed
		}
		n.ResolveInnerAcks(w.ackID, w.streamed)
	}
}

// JoinReplicas blocks until every replica streamed to has acked (at once
// without a replicate frame) and observes KindReplApply, ring → last ack;
// fabric teardown ends it with transport.ErrClosed. Call after the gather.
func (w *Wave) JoinReplicas() error {
	if w.ack == nil {
		return nil
	}
	err := w.n.AwaitAcks(w.ackID, w.ack)
	w.ack = nil
	if err == nil && w.streamed > 0 {
		w.n.vm.Observe(KindReplApply, time.Since(w.rung))
	}
	return err
}

// Err reports why a frame did not execute cleanly, naming its node: the
// destination's unit failure (the frame may or may not have executed —
// for a lock-read, assume the node holds locks), or the frame's own
// verb failure. A lock-read that executed and was refused is not an
// error; it travels inside the LockResponse.
func (w *Wave) Err(frame int) error {
	f := &w.frames[frame]
	d := &w.dests[f.dest]
	switch {
	case d.err != nil:
		return d.err
	case f.err != nil:
		return fmt.Errorf("server: %s at node %d: %w", f.kind, d.target, f.err)
	case d.pd != nil && d.results[f.slot].Err != "":
		return fmt.Errorf("server: %s at node %d: %s", f.kind, d.target, d.results[f.slot].Err)
	}
	return nil
}

// Errs joins every frame's error (not just the first), so a
// multi-participant failure is reported in full.
func (w *Wave) Errs() error {
	var errs []error
	for i := range w.frames {
		if err := w.Err(i); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// LockResponse returns the response of a frame in the lock-request
// encoding (lock-read, read, validate, snapshot-read), or the frame's
// error.
func (w *Wave) LockResponse(frame int) (LockResponse, error) {
	if err := w.Err(frame); err != nil {
		return LockResponse{}, err
	}
	f := &w.frames[frame]
	if !f.decoded {
		d := &w.dests[f.dest]
		if err := f.resp.decode(d.results[f.slot].Payload, f.kind == KindRead); err != nil {
			return LockResponse{}, fmt.Errorf("server: %s at node %d: %w", f.kind, d.target, err)
		}
		f.decoded = true
	}
	return f.resp, nil
}
