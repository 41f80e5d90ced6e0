package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/wire"
)

// Doorbells: every participant verb bound for one destination node is
// packed into a single envelope (wire.Frame) and shipped as one
// one-sided doorbell ring — one round trip and one pair of fabric
// messages for the whole batch, however many verbs it carries. The
// verbs are serviced on the one-sided path (transport.HandleOneSided):
// the destination's dispatcher and execution lanes are never involved,
// modelling NIC-executed RDMA verb processing (a lock-and-read is a CAS
// on the bucket lock word plus a record READ; the handler performs the
// pair as one atomic unit). Bucket lock words arbitrate all conflicts,
// between doorbell frames and against the lanes' inner regions alike.
//
// Frames execute in posting order and fail independently: a frame that
// aborts (e.g. a NO_WAIT lock conflict) rolls back only its own
// effects — LockReadLocal's all-or-nothing rollback applies per frame —
// and its siblings proceed. Chiller's engine posts one frame per
// (node, lane) lock batch, so a conflict costs exactly one lane batch.
//
// This file is the layer Wave (wave.go) is built on; coordinators post
// through a Wave, which adds the per-destination grouping and the local
// short-circuit. See docs/NETWORK.md for the full model.

// Doorbell accumulates verbs bound for one destination node, encoding
// the envelope incrementally into a pooled buffer (frame payloads are
// written in place — no per-frame allocation). Post frames with Post (or
// the typed helpers, which encode straight into the envelope), then Ring
// once. The zero Doorbell is not valid; use Node.NewDoorbell. Doorbells
// are pooled: Ring recycles the builder, so it must not be touched
// afterwards.
type Doorbell struct {
	n      *Node
	target transport.NodeID
	w      wire.Writer
	count  int
	kinds  [len(doorbellKinds)]uint32 // posted-frame count per metric kind
}

// doorbellKinds indexes the kind counters a doorbell tracks for metric
// attribution (the batchable verb set).
var doorbellKinds = [...]string{KindLockRead, KindCommit, KindAbort, KindSnapRead, KindReplicate, KindRead, KindValidate}

func doorbellKindIndex(verb string) int {
	switch verb {
	case VerbLockRead:
		return 0
	case VerbCommit:
		return 1
	case VerbAbort:
		return 2
	case VerbSnapshotRead:
		return 3
	case VerbReplicate:
		return 4
	case VerbRead:
		return 5
	case VerbValidate:
		return 6
	}
	return -1
}

var doorbellPool = sync.Pool{New: func() any { return new(Doorbell) }}

// NewDoorbell starts an empty batch against the target node.
func (n *Node) NewDoorbell(target transport.NodeID) *Doorbell {
	d := doorbellPool.Get().(*Doorbell)
	d.n, d.target = n, target
	d.w.Reset()
	d.w.Uint32(0) // frame-count prefix, backpatched at Ring
	return d
}

// begin opens a frame: verb name, then the caller writes the payload
// into the returned length region.
func (d *Doorbell) begin(verb string) int {
	d.w.String(verb)
	if i := doorbellKindIndex(verb); i >= 0 {
		d.kinds[i]++
	}
	d.count++
	return d.w.BeginBytes32()
}

// Post appends a verb frame with a pre-encoded payload and returns its
// index, which addresses the frame's result in the slice Wait returns.
func (d *Doorbell) Post(verb string, payload []byte) int {
	d.w.String(verb)
	d.w.Bytes32(payload)
	if i := doorbellKindIndex(verb); i >= 0 {
		d.kinds[i]++
	}
	d.count++
	return d.count - 1
}

// PostLockRead posts a lock-and-read batch.
func (d *Doorbell) PostLockRead(txnID uint64, entries []LockEntry) int {
	return d.postEntries(VerbLockRead, txnID, entries, nil)
}

// postEntries posts a frame in the lock-request encoding: a lock-read, a
// snapshot read, a read or a validate frame, the last followed by the
// versions to check. None of them has a kind counter among the
// post-commit tail kinds, so a ring of them alone stays on the droppable
// envelope, matching the verbs' droppable classification.
func (d *Doorbell) postEntries(verb string, id uint64, entries []LockEntry, versions []uint64) int {
	mark := d.begin(verb)
	EncodeLockRequestTo(&d.w, id, entries)
	if verb == VerbValidate {
		d.w.Uint64s(versions)
	}
	d.w.EndBytes32(mark)
	return d.count - 1
}

// PostCommit posts a commit (apply writes + release locks).
func (d *Doorbell) PostCommit(txnID, ts uint64, writes []WriteOp) int {
	mark := d.begin(VerbCommit)
	EncodeWritesTo(&d.w, txnID, ts, writes)
	d.w.EndBytes32(mark)
	return d.count - 1
}

// PostReplicate posts a replicate frame (see Node.replicateLocal); the
// replicas ack to this node under ackID.
func (d *Doorbell) PostReplicate(ackID, ts uint64, writes []WriteOp) int {
	mark := d.begin(VerbReplicate)
	EncodeWritesTo(&d.w, ackID, ts, writes)
	d.w.EndBytes32(mark)
	return d.count - 1
}

// PostAbort posts a rollback (release locks, apply nothing).
func (d *Doorbell) PostAbort(txnID uint64) int {
	mark := d.begin(VerbAbort)
	d.w.Uint64(txnID)
	d.w.EndBytes32(mark)
	return d.count - 1
}

// Ring ships the batch as one doorbell, recycles the builder, and
// returns the in-flight pending. An empty doorbell completes immediately
// with no results; a transport failure surfaces from Wait, attributed to
// the target node.
func (d *Doorbell) Ring() *PendingDoorbell {
	pd := pendingDoorbellPool.Get().(*PendingDoorbell)
	pd.target, pd.vm, pd.frames, pd.kinds = d.target, d.n.vm, d.count, d.kinds
	if d.count == 0 {
		d.release()
		pd.waited = true
		return pd
	}
	d.w.SetUint32(0, uint32(d.count))
	pd.start = time.Now()
	// A ring carrying any post-commit-point frame ships under the
	// protected tail verb; pure lock-wave rings are droppable by fault
	// plans (see VerbDoorbellTail).
	method := VerbDoorbell
	if d.kinds[1]+d.kinds[2]+d.kinds[4] > 0 { // commit, abort, replicate frames
		method = VerbDoorbellTail
	}
	// GoOneSided services the batch before returning (see its cost
	// model), so the envelope buffer can be recycled immediately.
	p, err := d.n.ep.GoOneSided(d.target, method, d.w.Bytes(), d.count)
	d.release()
	if err != nil {
		pd.waited = true
		pd.err = fmt.Errorf("server: doorbell to node %d: %w", pd.target, err)
		return pd
	}
	pd.pending = p
	return pd
}

// release recycles the builder (the envelope buffer keeps its capacity).
func (d *Doorbell) release() {
	d.count = 0
	d.kinds = [len(doorbellKinds)]uint32{}
	d.n = nil
	doorbellPool.Put(d)
}

// PendingDoorbell is an in-flight doorbell ring. Wait is idempotent, so
// several callers holding frame indices into the same batch may each
// Wait and read their own result.
type PendingDoorbell struct {
	pending transport.Pending
	target  transport.NodeID
	frames  int
	kinds   [len(doorbellKinds)]uint32
	start   time.Time
	vm      *VerbMetrics

	waited  bool
	results []wire.FrameResult
	resArr  [4]wire.FrameResult // inline storage: most batches are small
	err     error
}

var pendingDoorbellPool = sync.Pool{New: func() any { return new(PendingDoorbell) }}

// Release recycles the pending. Optional — call it once every frame's
// result has been consumed and the pending will not be touched again
// (the engine's fan-outs release after each gather). Result payloads
// survive: they alias the response buffer, not the pending.
func (pd *PendingDoorbell) Release() {
	*pd = PendingDoorbell{}
	pendingDoorbellPool.Put(pd)
}

// Wait blocks until the doorbell's completion arrives and returns one
// result per posted frame, in posting order. A non-nil error means the
// batch failed as a unit (transport failure or an undecodable envelope)
// and the caller must assume frames may have executed; per-frame verb
// failures are reported in the results' Err fields instead. Errors carry
// the destination node id.
func (pd *PendingDoorbell) Wait() ([]wire.FrameResult, error) {
	return pd.wait(false)
}

// Reap is Wait without the residual round-trip sleep — for completions
// no protocol step is gated on (the presumed-commit tail: the commit
// executed at ring time and only invariant violations are checked). It
// shares Wait's idempotence. Because the caller never observes a round
// trip, reaped doorbells record count-only metrics (like one-way
// sends) — a time.Since here would measure the caller's reap timing,
// not a transport property.
func (pd *PendingDoorbell) Reap() ([]wire.FrameResult, error) {
	return pd.wait(true)
}

func (pd *PendingDoorbell) wait(reap bool) ([]wire.FrameResult, error) {
	if pd.waited {
		return pd.results, pd.err
	}
	pd.waited = true
	var raw []byte
	var err error
	if reap {
		raw, err = pd.pending.Reap()
	} else {
		raw, err = pd.pending.Wait()
	}
	pd.pending = nil
	if pd.vm != nil {
		if reap {
			pd.vm.Add(KindDoorbell)
			for i, n := range pd.kinds {
				pd.vm.AddN(doorbellKinds[i], uint64(n))
			}
		} else {
			rtt := time.Since(pd.start)
			pd.vm.Observe(KindDoorbell, rtt)
			for i, n := range pd.kinds {
				pd.vm.ObserveN(doorbellKinds[i], rtt, uint64(n))
			}
		}
	}
	if err != nil {
		pd.err = fmt.Errorf("server: doorbell to node %d: %w", pd.target, err)
		return nil, pd.err
	}
	// Decode into the inline array (heap-free for typical batch sizes);
	// wire.DecodeFrameResults is the same format, for external callers.
	r := wire.NewReader(raw)
	n := int(r.Uint32())
	if r.Err() == nil && n != pd.frames {
		pd.err = fmt.Errorf("server: doorbell response from node %d: %d results for %d frames",
			pd.target, n, pd.frames)
		return nil, pd.err
	}
	results := pd.resArr[:0]
	if n > len(pd.resArr) {
		results = make([]wire.FrameResult, 0, n)
	}
	for i := 0; i < n; i++ {
		fr := wire.FrameResult{Err: r.String()}
		fr.Payload = r.Bytes32()
		results = append(results, fr)
	}
	if derr := r.Err(); derr != nil {
		pd.err = fmt.Errorf("server: doorbell response from node %d: %w", pd.target, derr)
		return nil, pd.err
	}
	pd.results = results
	return pd.results, nil
}

// Err returns the frame result's error as a typed error (nil when the
// frame succeeded), attributed to the doorbell's target node.
func (pd *PendingDoorbell) Err(fr wire.FrameResult) error {
	if fr.Err == "" {
		return nil
	}
	return fmt.Errorf("server: node %d: %s", pd.target, fr.Err)
}

// handleDoorbell services VerbDoorbell on the one-sided path: it runs on
// the caller's side of the wire, after the one-way latency, with the
// destination node's data structures synchronizing through their own
// locks (bucket lock words and bucket mutexes) — the destination's
// dispatcher and lanes never see the batch. Frames execute in posting
// order and fail independently. Request frames are decoded and response
// frames encoded in a single streaming pass over two buffers — the batch
// costs one response allocation however many verbs it carries.
func (n *Node) handleDoorbell(from transport.NodeID, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	count := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	w := wire.NewWriter(16 + len(req))
	w.Uint32(count)
	for i := uint32(0); i < count; i++ {
		f := r.Frame()
		if err := r.Err(); err != nil {
			return nil, err
		}
		n.applyVerb(w, from, f.Verb, f.Payload)
	}
	return w.Bytes(), nil
}

// errVerbNotBatchable rejects frames for verbs that need the
// destination's CPU (routing) or its per-link FIFO ordering (the
// replication stream itself) and therefore must stay on the two-sided
// path.
var errVerbNotBatchable = errors.New("server: verb cannot ride a doorbell")

// applyVerb is the one participant entry point for the seven coordinator
// verbs: it executes one frame from coordinator `from` synchronously
// against this node, with no lane dispatch (one-sided verbs synchronize
// through lock words, not lanes), and appends the frame's result (error
// string + response payload) to w.
func (n *Node) applyVerb(w *wire.Writer, from transport.NodeID, verb string, payload []byte) {
	switch verb {
	case VerbLockRead, VerbSnapshotRead, VerbRead, VerbValidate:
		// One request encoding: a snapshot read's timestamp rides in the
		// transaction id's slot, a validation's versions follow it.
		r := wire.NewReader(payload)
		id, entries := decodeLockRequest(r)
		var versions []uint64
		if verb == VerbValidate {
			versions = make([]uint64, r.Count(8)) // not r.Uint64s: r would escape
			for i := range versions {
				versions[i] = r.Uint64()
			}
		}
		if err := r.Err(); err != nil {
			writeFrameError(w, err)
			return
		}
		var resp LockResponse
		switch verb {
		case VerbLockRead:
			n.lockRead(id, entries, &resp)
		case VerbSnapshotRead:
			n.SnapshotReadLocal(id, entries, &resp)
		case VerbRead:
			n.readLocal(entries, &resp)
		default:
			n.validateLocal(id, entries, versions, &resp)
		}
		w.String("")
		mark := w.BeginBytes32()
		resp.EncodeTo(w)
		if verb == VerbRead {
			w.Uint64s(resp.Versions)
		}
		w.EndBytes32(mark)
	case VerbCommit:
		txnID, ts, writes, err := DecodeWrites(payload)
		if err == nil {
			err = n.CommitLocal(txnID, ts, writes)
		}
		writeFrameError(w, err)
	case VerbReplicate:
		ackID, ts, writes, err := DecodeWrites(payload)
		sent := 0
		if err == nil {
			sent, err = n.replicateLocal(from, ackID, ts, writes)
		}
		// The count travels beside a failure too (see Wave.gather).
		writeFrameErr(w, err)
		mark := w.BeginBytes32()
		w.Uint32(uint32(sent))
		w.EndBytes32(mark)
	case VerbAbort:
		txnID, err := DecodeAbort(payload)
		if err == nil {
			n.AbortLocal(txnID)
		}
		writeFrameError(w, err)
	default:
		writeFrameError(w, fmt.Errorf("%w: %q", errVerbNotBatchable, verb))
	}
}

// writeFrameError appends a payload-less frame result.
func writeFrameError(w *wire.Writer, err error) {
	writeFrameErr(w, err)
	w.Bytes32(nil)
}

// writeFrameErr appends a frame result's error string; its payload follows.
func writeFrameErr(w *wire.Writer, err error) {
	if err != nil {
		w.String(err.Error())
	} else {
		w.String("")
	}
}
