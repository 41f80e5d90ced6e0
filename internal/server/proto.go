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
	// the fault injector (simnet.FaultPlan.Droppable) target pre-commit
	// lock-wave doorbells while the commit tail stays on the protected
	// control plane — dropping a commit frame would wedge participant
	// locks, not exercise a recovery path. See internal/simnet/faults.go.
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

// PreCommitVerbs is the verb set whose loss an engine recovers from by
// aborting the transaction and retrying: the pre-commit-point fan-outs.
// Chaos harnesses pass this as simnet.FaultPlan.Droppable; everything
// else (commit, abort, replication, the inner stream and its acks) is
// the protected control plane. The read-side frames (lock-read, read,
// validate, snapshot-read) only ever ride the droppable VerbDoorbell
// envelope, which is what a fault plan sees.
func PreCommitVerbs(method string) bool {
	switch method {
	case VerbLockRead, VerbRead, VerbValidate, VerbTxnRoute, VerbDoorbell, VerbSnapshotRead:
		return true
	}
	return false
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

// DecodeAbort parses an abort request.
func DecodeAbort(p []byte) (uint64, error) {
	r := wire.NewReader(p)
	id := r.Uint64()
	return id, r.Err()
}
