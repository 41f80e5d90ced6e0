package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/storage"
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
// through a Wave, which adds the per-destination grouping and serves a
// frame for the coordinator's own node through the same Node.serve,
// without a ring. See docs/NETWORK.md for the full model.

// Doorbell accumulates verbs bound for one destination node, encoding
// the envelope incrementally into a pooled buffer (frame payloads are
// written in place — no per-frame allocation). Post frames with Post or
// PostLockRead (a wave posts its frames straight into the envelope), then
// Ring once. The zero Doorbell is not valid; use Node.NewDoorbell. Doorbells
// are pooled: Ring recycles the builder, so it must not be touched
// afterwards.
type Doorbell struct {
	n      *Node
	target transport.NodeID
	w      wire.Writer
	count  int
	kinds  [numVerbs]uint32 // posted-frame count per participant verb
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

// Post appends a verb frame with a pre-encoded payload and returns its
// index, which addresses the frame's result in the slice Wait returns.
func (d *Doorbell) Post(name string, payload []byte) int {
	d.w.String(name)
	d.w.Bytes32(payload)
	if v, ok := verbNamed(name); ok {
		d.kinds[v]++
	}
	d.count++
	return d.count - 1
}

// PostLockRead posts a lock-and-read batch.
func (d *Doorbell) PostLockRead(txnID uint64, entries []LockEntry) int {
	return d.post(&frame{verb: vLockRead, id: txnID, entries: entries})
}

// post encodes a participant frame straight into the envelope.
func (d *Doorbell) post(f *frame) int {
	d.w.String(verbs[f.verb].name)
	mark := d.w.BeginBytes32()
	f.encodeTo(&d.w)
	d.w.EndBytes32(mark)
	d.kinds[f.verb]++
	d.count++
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
	for v, n := range d.kinds {
		if n > 0 && verbs[v].tail {
			method = VerbDoorbellTail
		}
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
	d.kinds = [numVerbs]uint32{}
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
	kinds   [numVerbs]uint32
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
	if pd.waited {
		return pd.results, pd.err
	}
	pd.waited = true
	raw, err := pd.pending.Wait()
	pd.pending = nil
	if pd.vm != nil {
		rtt := time.Since(pd.start)
		pd.vm.Observe(KindDoorbell, rtt)
		for v, n := range pd.kinds {
			pd.vm.ObserveN(verbs[v].kind, rtt, uint64(n))
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
// costs one response allocation however many verbs it carries — and the
// values a frame reads are copied into pooled scratch, reused once the
// frame's response is encoded.
func (n *Node) handleDoorbell(from transport.NodeID, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	count := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	w := wire.NewWriter(16 + len(req))
	w.Uint32(count)
	scratch := scratchPool.Get().(*storage.Buf)
	defer scratchPool.Put(scratch)
	for i := uint32(0); i < count; i++ {
		f := r.Frame()
		if err := r.Err(); err != nil {
			return nil, err
		}
		n.applyVerb(w, from, f.Verb, f.Payload, scratch)
	}
	return w.Bytes(), nil
}

// scratchPool holds the buffers doorbell frames read values into.
var scratchPool = sync.Pool{New: func() any { return new(storage.Buf) }}

// errVerbNotBatchable rejects frames for verbs that need the
// destination's CPU (routing) or its per-link FIFO ordering (the
// replication stream itself) and therefore must stay on the two-sided
// path.
var errVerbNotBatchable = errors.New("server: verb cannot ride a doorbell")

// applyVerb serves one doorbell frame from coordinator `from`: it
// decodes the frame, serves it, and appends its result (error string +
// response payload) to w. A frame in the lock-request encoding answers
// with its LockResponse, a read frame's followed by the versions; a
// replicate frame with its send count, beside a failure too (see
// Wave.Wait). The frame's reads are copied into scratch, which is reset
// once they are encoded.
func (n *Node) applyVerb(w *wire.Writer, from transport.NodeID, name string, payload []byte, scratch *storage.Buf) {
	defer scratch.Reset()
	var f frame
	resp := LockResponse{buf: scratch}
	sent := 0
	v, ok := verbNamed(name)
	var err error
	if !ok {
		err = fmt.Errorf("%w: %q", errVerbNotBatchable, name)
	} else if err = f.decode(v, payload); err == nil {
		sent, err = n.serve(from, &f, &resp)
	}
	if err != nil {
		w.String(err.Error())
	} else {
		w.String("")
	}
	mark := w.BeginBytes32()
	switch {
	case v == vReplicate:
		w.Uint32(uint32(sent))
	case err == nil && !verbs[v].tail:
		resp.EncodeTo(w)
		if v == vRead {
			w.Uint64s(resp.Versions)
		}
	}
	w.EndBytes32(mark)
}

// serve is the one participant dispatch: every participant verb a
// coordinator posts runs here against this node, decoded off a doorbell
// (applyVerb) or straight from the wave of a coordinator on this node
// (Wave.Wait), synchronously and with no lane dispatch — one-sided verbs
// synchronize through lock words, not lanes. A frame in the lock-request
// encoding answers into resp; a replicate frame returns its send count.
func (n *Node) serve(from transport.NodeID, f *frame, resp *LockResponse) (sent int, err error) {
	switch f.verb {
	case vLockRead:
		n.lockRead(f.id, f.entries, resp)
	case vSnapshotRead:
		n.SnapshotReadLocal(f.id, f.entries, resp) // the timestamp, in the id slot
	case vRead:
		n.readLocal(f.entries, resp)
	case vValidate:
		n.validateLocal(f.id, f.entries, f.versions, resp)
	case vReplicate:
		return n.replicateLocal(from, f.id, f.ts, f.writes)
	case vCommit:
		return 0, n.CommitLocal(f.id, f.ts, f.writes)
	case vAbort:
		n.AbortLocal(f.id)
	}
	return 0, nil
}
