package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/storage"
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
// as much as Chiller's — are waves, so a verb has exactly one wire path,
// and one dispatch: a frame is served by Node.serve, at the destination
// once decoded off its doorbell, or on the coordinator's own node as
// posted.
//
// Post frames with LockRead / Read / Validate / Commit / Abort /
// SnapshotRead, each of which returns a frame handle (ReplicateAll and
// CommitAll post a transaction's); gather once with Wait; read results
// per frame. Frames execute in posting order per
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

	// ack, opened by the first replicate frame, is the replicas' acks: the
	// gather resolves it with the sends the primaries report.
	ack      *Acks
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

// waveFrame is one posted frame. A remote frame is encoded into its
// destination's doorbell at post and addressed by (dest, slot) once rung;
// a local frame is served from its arguments at the gather, which keeps
// its outcome.
type waveFrame struct {
	frame
	dest int // index into Wave.dests
	slot int // frame index within the destination's doorbell

	// resp is the response of a frame in the lock-request encoding:
	// filled at the gather (local) or at LockResponse (remote), into the
	// Reads its poster preset, if any.
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
	w.ack.Cancel() // never joined: nothing may wait on it any more
	w.n, w.dests, w.frames = nil, nil, nil
	w.ack, w.streamed = nil, 0
	wavePool.Put(w)
}

// open adds a frame of verb v against target, finding or adding the
// destination, for its poster to fill in place and hand to post.
func (w *Wave) open(target transport.NodeID, v verb) *waveFrame {
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
	w.frames = append(w.frames, waveFrame{frame: frame{verb: v}, dest: di})
	return &w.frames[len(w.frames)-1]
}

// post encodes the frame open returned into its destination's doorbell
// (a local frame waits for the gather) and returns its handle.
func (w *Wave) post(f *waveFrame) int {
	if bell := w.dests[f.dest].bell; bell != nil {
		f.slot = bell.post(&f.frame)
	}
	return len(w.frames) - 1
}

// LockRead posts a lock-and-read batch and returns its frame handle. Its
// reads are added to into when non-nil (a coordinator gathers every
// participant's reads into the transaction's one set), else returned in
// a set of their own. Served on the coordinator's own node, the frame
// copies the values it reads into buf (fresh memory when nil); a remote
// frame's alias its response.
func (w *Wave) LockRead(target transport.NodeID, txnID uint64, entries []LockEntry, into txn.ReadSet, buf *storage.Buf) int {
	f := w.open(target, vLockRead)
	f.id, f.entries, f.resp.Reads, f.resp.buf = txnID, entries, into, buf
	return w.post(f)
}

// SnapshotRead posts an MVCC snapshot-read batch at timestamp ts and
// returns its frame handle; its reads are gathered like LockRead's.
func (w *Wave) SnapshotRead(target transport.NodeID, ts uint64, entries []LockEntry, into txn.ReadSet, buf *storage.Buf) int {
	f := w.open(target, vSnapshotRead)
	f.id, f.entries, f.resp.Reads, f.resp.buf = ts, entries, into, buf
	return w.post(f)
}

// Read posts an unlocked read batch (OCC's execution phase) and returns
// its frame handle: its reads are gathered like LockRead's, and each
// entry's version is appended to versions, in entry order, in the
// frame's LockResponse.Versions.
func (w *Wave) Read(target transport.NodeID, entries []LockEntry, into txn.ReadSet, buf *storage.Buf, versions []uint64) int {
	f := w.open(target, vRead)
	f.entries, f.resp.Reads, f.resp.buf, f.resp.Versions = entries, into, buf, versions
	return w.post(f)
}

// Validate posts OCC's phase 2 at target: the versions entries were read
// at, re-checked under txnID's write locks (Node.validateLocal).
func (w *Wave) Validate(target transport.NodeID, txnID uint64, entries []LockEntry, versions []uint64) int {
	f := w.open(target, vValidate)
	f.id, f.entries, f.versions = txnID, entries, versions
	return w.post(f)
}

// Commit posts a commit (apply writes + release locks).
func (w *Wave) Commit(target transport.NodeID, txnID, ts uint64, writes []WriteOp) int {
	f := w.open(target, vCommit)
	f.id, f.ts, f.writes = txnID, ts, writes
	return w.post(f)
}

// Abort posts a rollback (release locks, apply nothing).
func (w *Wave) Abort(target transport.NodeID, txnID uint64) int {
	f := w.open(target, vAbort)
	f.id = txnID
	return w.post(f)
}

// Wait rings every remote destination's doorbell, serves the local
// frames while those round trips are in flight, and blocks until every
// completion has arrived — one round trip for the whole wave. Call it
// once.
func (w *Wave) Wait() {
	if w.ack != nil {
		w.rung = time.Now()
	}
	for i := range w.dests {
		if d := &w.dests[i]; d.bell != nil {
			d.pd, d.bell = d.bell.Ring(), nil
		}
	}
	n := w.n
	for i := range w.frames {
		if f := &w.frames[i]; w.dests[f.dest].pd == nil {
			f.streamed, f.err = n.serve(n.ID(), &f.frame, &f.resp)
			f.decoded = true
		}
	}
	for i := range w.dests {
		if d := &w.dests[i]; d.pd != nil {
			d.results, d.err = d.pd.Wait()
		}
	}
	if w.ack != nil {
		// A remote frame's send count arrives in its result, beside an error
		// too (Node.Replicate); a ring that failed as a unit sent nothing.
		for i := range w.frames {
			f := &w.frames[i]
			if d := &w.dests[f.dest]; f.verb == vReplicate && d.pd != nil && d.err == nil {
				f.streamed = int(wire.NewReader(d.results[f.slot].Payload).Uint32())
			}
			w.streamed += f.streamed
		}
		w.ack.Resolve(w.streamed)
	}
}

// JoinReplicas blocks until every replica streamed to has acked (at once
// without a replicate frame) and observes KindReplApply, ring → last ack;
// fabric teardown ends it with transport.ErrClosed. Call after the gather.
func (w *Wave) JoinReplicas() error {
	err := w.ack.Await()
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
func (w *Wave) Err(i int) error {
	f := &w.frames[i]
	d := &w.dests[f.dest]
	switch {
	case d.err != nil:
		return d.err
	case f.err != nil:
		return fmt.Errorf("server: %s at node %d: %w", verbs[f.verb].kind, d.target, f.err)
	case d.pd != nil && d.results[f.slot].Err != "":
		return fmt.Errorf("server: %s at node %d: %s", verbs[f.verb].kind, d.target, d.results[f.slot].Err)
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
func (w *Wave) LockResponse(i int) (LockResponse, error) {
	if err := w.Err(i); err != nil {
		return LockResponse{}, err
	}
	f := &w.frames[i]
	if !f.decoded {
		d := &w.dests[f.dest]
		if err := f.resp.decode(d.results[f.slot].Payload, f.verb == vRead); err != nil {
			return LockResponse{}, fmt.Errorf("server: %s at node %d: %w", verbs[f.verb].kind, d.target, err)
		}
		f.decoded = true
	}
	return f.resp, nil
}
