package server

import (
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

// Verb names for the RPC methods every node serves. The one
// engine-specific verb (Chiller's transaction placement) is registered by
// its package using these same encoding helpers.
const (
	VerbLockRead = "lr" // lock buckets + read records (2PL expanding phase)
	// VerbRead reads records without locking (OCC's execution phase): a
	// lock request whose id slot is unused, served lock-free by
	// Bucket.Get; its response is a LockResponse followed by each entry's
	// version. VerbValidate is OCC's phase 2: a lock request, the
	// transaction id in its slot, followed by the versions read — each
	// re-checked under the write locks phase 1 took (Node.validateLocal);
	// its response is a LockResponse without reads.
	VerbRead      = "rd"
	VerbValidate  = "vl"
	VerbCommit    = "cm"    // apply writes, release locks (2PC phase 2)
	VerbAbort     = "ab"    // roll back, release locks
	VerbTxnRoute  = "route" // client→coordinator transaction placement (Chiller)
	VerbInnerRepl = "irepl" // primary→replica stream (one-way; inner and outer write sets)
	VerbInnerAck  = "irack" // replica→coordinator ack (one-way)
	// VerbReplicate is the replicate frame (Node.replicateLocal): served at a
	// partition's primary under the transaction's bucket locks, it puts an
	// outer write set on the primary's §5 stream — the one pipe every write
	// of a record rides, so replica apply order equals lock order (sends from
	// elsewhere race the inner stream; the chaos harness caught that).
	VerbReplicate = "repl"
	// VerbSnapshotRead reads records at a snapshot timestamp from a
	// node's version chains (MVCC): lock-free, off the lane schedules,
	// serving the read-only transaction path for partitions the
	// coordinator holds no local replica of. Its payload is a lock
	// request with the timestamp in the id slot, its response a
	// LockResponse. Droppable — a lost one aborts the attempt
	// unreachable and the caller's retry loop re-runs it (reads hold
	// nothing anywhere).
	VerbSnapshotRead = "sr"
	VerbDoorbell     = "db1" // doorbell-batched one-sided verb envelope (see doorbell.go)
	// VerbDoorbellTail is the doorbell envelope for rings that carry any
	// post-commit-point frame (replicate, commit, abort). It is
	// served by the same handler as VerbDoorbell; the distinct name lets
	// the fault injector (transport.FaultPlan.Droppable) target pre-commit
	// doorbells while the commit tail stays on the protected control
	// plane — dropping a commit frame would wedge participant locks, not
	// exercise a recovery path. See internal/transport/faults.go.
	VerbDoorbellTail = "db2"
	// VerbPing is a trivial liveness probe: empty request, empty reply.
	// chiller-node uses it at startup to verify every peer is reachable
	// before declaring the cluster up (bounded, instead of hanging in
	// lazy-dial retries on the first real transaction).
	VerbPing = "ping"
	// VerbHandoffFlush is the handoff's stream-flush marker: after
	// fencing and draining a partition, the old primary calls it at each
	// of the partition's stream targets; the reply certifies that every
	// VerbInnerRepl message sent earlier on this link has been applied
	// (per-link FIFO orders the request behind the sends, a lane barrier
	// on the receiver orders the reply behind the applies). Protected
	// control plane — see handoff.go.
	VerbHandoffFlush = "hfl"
	// VerbTopoGet returns the serving node's current topology snapshot
	// plus its peer address book — how a joining process (or a bench
	// client) bootstraps and refreshes its layout.
	VerbTopoGet = "tget"
	// VerbTopoSet installs a topology snapshot (and merges any carried
	// peer addresses) on the receiving node — the cutover broadcast of a
	// multi-process handoff.
	VerbTopoSet = "tset"
	// VerbHandoff asks the partition's current primary to run the full
	// handoff protocol, moving the primary role to the requesting node
	// (a joiner that has already dialed in). See HandleHandoffVerbs.
	VerbHandoff = "hoff"
)

// PreCommitVerbs is the set of method names, as a fabric sees them,
// whose loss an engine recovers from by aborting the transaction and
// retrying: the pre-commit doorbell envelope and transaction routing.
// Chaos harnesses pass this as transport.FaultPlan.Droppable; everything
// else (the commit-tail envelope, the inner stream and its acks, the
// handoff verbs) is the protected control plane. The pre-commit frames
// (lock-read, read, validate, snapshot-read) never reach a fabric as a
// method: they ride inside VerbDoorbell.
func PreCommitVerbs(method string) bool {
	return method == VerbDoorbell || method == VerbTxnRoute
}

// verb is a participant verb: one of the seven frames a coordinator's
// wave posts, whether it rides a doorbell or is served on the
// coordinator's own node (Node.serve).
type verb uint8

const (
	vLockRead verb = iota
	vCommit
	vAbort
	vSnapshotRead
	vReplicate
	vRead
	vValidate
	numVerbs
)

// verbs is the one table of participant verbs: name is the wire
// constant, kind the metric label, and tail marks a post-commit-point
// frame — a ring carrying one ships on VerbDoorbellTail. The other four
// are in the lock-request encoding and answer with a LockResponse.
var verbs = [numVerbs]struct {
	name, kind string
	tail       bool
}{
	vLockRead:     {VerbLockRead, KindLockRead, false},
	vCommit:       {VerbCommit, KindCommit, true},
	vAbort:        {VerbAbort, KindAbort, true},
	vSnapshotRead: {VerbSnapshotRead, KindSnapRead, false},
	vReplicate:    {VerbReplicate, KindReplicate, true},
	vRead:         {VerbRead, KindRead, false},
	vValidate:     {VerbValidate, KindValidate, false},
}

// verbNamed returns the participant verb with the given wire name.
func verbNamed(name string) (verb, bool) {
	for v := range verbs {
		if verbs[v].name == name {
			return verb(v), true
		}
	}
	return 0, false
}

// frame is one participant request, as a wave posts it and as its
// destination decodes it. id is the transaction id — a replicate
// frame's ack id, a snapshot read's timestamp — and ts a write set's
// commit timestamp.
type frame struct {
	verb     verb
	id, ts   uint64
	entries  []LockEntry
	versions []uint64 // a validate frame's
	writes   []WriteOp
}

// encodeTo appends f's payload to w: a write set (commit, replicate),
// the bare id (abort), or a lock request, a validate frame's followed by
// the versions to check.
func (f *frame) encodeTo(w *wire.Writer) {
	switch f.verb {
	case vCommit, vReplicate:
		EncodeWritesTo(w, f.id, f.ts, f.writes)
	case vAbort:
		w.Uint64(f.id)
	default:
		EncodeLockRequestTo(w, f.id, f.entries)
		if f.verb == vValidate {
			w.Uint64s(f.versions)
		}
	}
}

// decode parses a payload of verb v into f. Write values alias p (see
// DecodeWrites).
func (f *frame) decode(v verb, p []byte) error {
	r := wire.NewReader(p)
	f.verb = v
	switch v {
	case vCommit, vReplicate:
		f.id, f.ts, f.writes = decodeWrites(r)
	case vAbort:
		f.id = r.Uint64()
	default:
		f.id, f.entries = decodeLockRequest(r)
		if v == vValidate {
			f.versions = make([]uint64, r.Count(8)) // not r.Uint64s: r would escape
			for i := range f.versions {
				f.versions[i] = r.Uint64()
			}
		}
	}
	return r.Err()
}

// LockEntry is one lock-and-read request item.
type LockEntry struct {
	OpID  int
	Table storage.TableID
	Key   storage.Key
	Mode  storage.LockMode
	// Read requests the record value back (true for reads and updates;
	// false for inserts, which only need the bucket locked).
	Read bool
	// MustExist aborts with AbortNotFound when true and the key is
	// missing. Inserts set it false.
	MustExist bool
}

// WriteOp is one buffered write shipped at commit time.
type WriteOp struct {
	Table storage.TableID
	Key   storage.Key
	Type  txn.OpType // OpUpdate, OpInsert or OpDelete
	Value []byte
}

// EncodeLockRequest builds the VerbLockRead payload.
func EncodeLockRequest(txnID uint64, entries []LockEntry) []byte {
	w := wire.NewWriter(16 + len(entries)*24)
	EncodeLockRequestTo(w, txnID, entries)
	return w.Bytes()
}

// EncodeLockRequestTo appends the VerbLockRead payload to an existing
// writer (doorbells pack frame payloads straight into the envelope). A
// VerbSnapshotRead payload is the same, with the snapshot timestamp in
// place of the transaction id; so are VerbRead's and VerbValidate's
// (see their constants).
func EncodeLockRequestTo(w *wire.Writer, txnID uint64, entries []LockEntry) {
	w.Uint64(txnID)
	w.Uint32(uint32(len(entries)))
	for _, e := range entries {
		w.Uint32(uint32(e.OpID))
		w.Uint32(uint32(e.Table))
		w.Uint64(uint64(e.Key))
		w.Uint8(uint8(e.Mode))
		w.Bool(e.Read)
		w.Bool(e.MustExist)
	}
}

// DecodeLockRequest parses the VerbLockRead payload.
func DecodeLockRequest(p []byte) (txnID uint64, entries []LockEntry, err error) {
	r := wire.NewReader(p)
	txnID, entries = decodeLockRequest(r)
	return txnID, entries, r.Err()
}

// decodeLockRequest reads a lock request off r, leaving r at whatever
// follows it (a validate frame's versions).
func decodeLockRequest(r *wire.Reader) (txnID uint64, entries []LockEntry) {
	txnID = r.Uint64()
	entries = make([]LockEntry, r.Count(19)) // the encoded size of one entry
	for i := range entries {
		e := &entries[i]
		e.OpID = int(r.Uint32())
		e.Table = storage.TableID(r.Uint32())
		e.Key = storage.Key(r.Uint64())
		e.Mode = storage.LockMode(r.Uint8())
		e.Read = r.Bool()
		e.MustExist = r.Bool()
	}
	return txnID, entries
}

// LockResponse reports the result of a lock-and-read request, and of the
// other frames in its encoding (snapshot read, read, validate).
type LockResponse struct {
	OK     bool
	Reason txn.AbortReason // set when !OK
	Reads  txn.ReadSet     // opID → value
	// buf is where a frame served on this node copies the values it
	// reads: a coordinator's own-node frame into its transaction's
	// buffer, a doorbell's into the ring's scratch; nil makes each a
	// fresh copy. Decoded reads alias the response payload instead.
	buf *storage.Buf
	// Versions is a read frame's only: each entry's version, in entry
	// order (0: absent), appended to what the caller preset.
	Versions []uint64
}

// EncodeTo serializes the response into a writer (the doorbell handler
// packs every frame's response into one buffer).
func (lr *LockResponse) EncodeTo(w *wire.Writer) {
	w.Bool(lr.OK)
	w.Uint8(uint8(lr.Reason))
	lr.Reads.Encode(w)
}

// DecodeLockResponse parses a LockResponse.
func DecodeLockResponse(p []byte) (*LockResponse, error) {
	lr := &LockResponse{}
	return lr, lr.decode(p, false)
}

// decode parses p into lr, adding the reads to lr.Reads when the caller
// preset it (a wave gathering into the transaction's read set), and
// with versions a read frame's versions to lr.Versions.
func (lr *LockResponse) decode(p []byte, versions bool) error {
	r := wire.NewReader(p)
	lr.OK = r.Bool()
	lr.Reason = txn.AbortReason(r.Uint8())
	lr.Reads = txn.DecodeReadSet(r, lr.Reads)
	if versions {
		for n := r.Count(8); n > 0; n-- {
			lr.Versions = append(lr.Versions, r.Uint64())
		}
	}
	return r.Err()
}

// writesSize is the exact encoded size of a write set, so every encode
// is one allocation (a guess blind to value lengths regrows twice).
func writesSize(writes []WriteOp) int {
	n := 20 // txn id, timestamp, count
	for i := range writes {
		n += 17 + len(writes[i].Value) // table, key, type, value length
	}
	return n
}

// EncodeWrites serializes a write set with a transaction id header and
// the transaction's commit timestamp (0 when MVCC is off — applies
// then skip version retention).
func EncodeWrites(txnID, ts uint64, writes []WriteOp) []byte {
	w := wire.NewWriter(writesSize(writes))
	EncodeWritesTo(w, txnID, ts, writes)
	return w.Bytes()
}

// EncodeWritesTo appends a write-set payload to an existing writer.
func EncodeWritesTo(w *wire.Writer, txnID, ts uint64, writes []WriteOp) {
	w.Uint64(txnID)
	w.Uint64(ts)
	w.Uint32(uint32(len(writes)))
	for i := range writes {
		wr := &writes[i]
		w.Uint32(uint32(wr.Table))
		w.Uint64(uint64(wr.Key))
		w.Uint8(uint8(wr.Type))
		w.Bytes32(wr.Value)
	}
}

// DecodeWrites parses a write-set payload. Values alias the payload
// buffer: every apply path of a decoded write set copies into storage,
// so an extra copy here would only feed the garbage collector.
func DecodeWrites(p []byte) (txnID, ts uint64, writes []WriteOp, err error) {
	r := wire.NewReader(p)
	txnID, ts, writes = decodeWrites(r)
	return txnID, ts, writes, r.Err()
}

// decodeWrites reads a write set off r, leaving r at whatever follows
// it (the inner-replication message appends the waiter's node id).
func decodeWrites(r *wire.Reader) (txnID, ts uint64, writes []WriteOp) {
	txnID = r.Uint64()
	ts = r.Uint64()
	writes = make([]WriteOp, r.Count(17)) // an entry with an empty value
	for i := range writes {
		wr := &writes[i]
		wr.Table = storage.TableID(r.Uint32())
		wr.Key = storage.Key(r.Uint64())
		wr.Type = txn.OpType(r.Uint8())
		wr.Value = r.Bytes32()
	}
	return txnID, ts, writes
}

// EncodeAbort serializes an abort request.
func EncodeAbort(txnID uint64) []byte {
	w := wire.NewWriter(8)
	w.Uint64(txnID)
	return w.Bytes()
}
