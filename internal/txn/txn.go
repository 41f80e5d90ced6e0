// Package txn defines Chiller's transaction model: stored procedures made
// of declaratively-described operations, the runtime request/result types,
// and the read/write-set structures shared by every execution engine.
//
// Chiller assumes transactions are registered as compiled stored procedures
// (like H-Store/VoltDB, §1 of the paper). A procedure here is a list of
// OpSpecs. Each OpSpec declares how its primary key is computed (possibly
// from values read by earlier operations — a pk-dep), how its new value is
// computed (possibly from earlier reads — a v-dep), and any value
// constraint that must hold for the transaction to commit. The static
// analysis in package depgraph consumes these declarations to build the
// dependency graph of §3.2.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/wire"
)

// Args carries a transaction's input parameters as 64-bit integers
// (amounts are fixed-point cents; ids are ids). Keeping arguments integral
// makes every request trivially serializable for the inner-region RPC.
type Args []int64

// OpType enumerates the operation kinds.
type OpType uint8

const (
	// OpRead reads a record under a shared lock.
	OpRead OpType = iota
	// OpUpdate reads a record and replaces its value (exclusive lock).
	OpUpdate
	// OpInsert creates a record (exclusive lock on its bucket).
	OpInsert
	// OpDelete removes a record (exclusive lock).
	OpDelete
)

func (t OpType) String() string {
	switch t {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("optype(%d)", uint8(t))
}

// IsWrite reports whether the operation modifies data.
func (t OpType) IsWrite() bool { return t != OpRead }

// LockMode returns the 2PL lock mode the op requires.
func (t OpType) LockMode() storage.LockMode {
	if t.IsWrite() {
		return storage.LockExclusive
	}
	return storage.LockShared
}

// ReadSet maps operation ID to the value that operation read. It flows
// from the outer region into the inner-region RPC and back.
type ReadSet map[int][]byte

// Clone returns a deep copy.
func (rs ReadSet) Clone() ReadSet {
	out := make(ReadSet, len(rs))
	for k, v := range rs {
		c := make([]byte, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// Encode serializes the read set (sorted by op ID for determinism).
func (rs ReadSet) Encode(w *wire.Writer) {
	var buf [64]int // on the stack for any procedure of up to 64 ops
	ids := buf[:0]
	for id := range rs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Uint32(uint32(len(ids)))
	for _, id := range ids {
		w.Uint32(uint32(id))
		w.Bytes32(rs[id])
	}
}

// DecodeReadSet deserializes a read set into rs, which is allocated when
// nil (a coordinator passes the transaction's one set to gather every
// participant's reads in). Values alias the decode buffer: read-set
// values are treated as immutable everywhere (mutators build new
// slices), so the copy would be pure garbage-collector feed. A decode
// error returns nil and may leave rs partly extended.
func DecodeReadSet(r *wire.Reader, rs ReadSet) ReadSet {
	n := r.Count(8) // op id + value length
	if r.Err() != nil {
		return nil
	}
	if rs == nil {
		rs = make(ReadSet, n)
	}
	for i := 0; i < n; i++ {
		id := int(r.Uint32())
		v := r.Bytes32()
		if r.Err() != nil {
			return nil
		}
		rs[id] = v
	}
	return rs
}

// KeyFunc resolves an operation's primary key from the transaction's
// arguments and the values read so far. ok=false means the key is not yet
// resolvable (a pk-dep on an operation that has not executed).
type KeyFunc func(args Args, reads ReadSet) (key storage.Key, ok bool)

// MutateFunc computes the new value for an update/insert. old is nil for
// inserts. Returning an error aborts the transaction (a value constraint
// violation, e.g. insufficient balance).
//
// Ownership: old, args and every value in reads are read-only (the
// store's own buffers, or a decoded message). The returned slice is
// handed over to the engine, which stores it on the executing node
// without copying: build it fresh (or return old or a read value
// untouched) and never write through it again. The store defends the
// common slip — a slice with spare capacity, such as an interior window
// of a reused buffer or the result of append, is copied to its exact
// length — but a full-capacity alias of memory that is later modified
// corrupts the record.
type MutateFunc func(old []byte, args Args, reads ReadSet) ([]byte, error)

// CheckFunc validates a value immediately after it is read; an error
// aborts the transaction.
type CheckFunc func(val []byte, args Args, reads ReadSet) error

// OpSpec describes one operation of a stored procedure.
type OpSpec struct {
	// ID is the operation's index within the procedure; must equal its
	// position in Procedure.Ops.
	ID int
	// Type is the operation kind.
	Type OpType
	// Table is the table the operation touches.
	Table storage.TableID
	// Key resolves the primary key. For ops with no pk-deps it must
	// succeed given args alone (reads may be nil/empty).
	Key KeyFunc
	// PartKey, if non-nil, resolves a partition-routing key from args
	// alone, used when the record key itself is not yet resolvable but
	// the operation's partition is (co-partitioned tables, e.g. a TPC-C
	// order line routed by warehouse). This is what lets the static
	// analysis place an insert with a pk-dep into the inner region when
	// the child is guaranteed co-located with its parent (§3.3 step 1b).
	PartKey KeyFunc
	// PartTable, if PartKey is set, names the table whose partitioning
	// function routes this op (defaults to Table).
	PartTable storage.TableID
	// PKDeps lists operation IDs whose read value this op's Key needs.
	PKDeps []int
	// VDeps lists operation IDs whose read value this op's Mutate needs.
	// Value dependencies do not restrict lock acquisition order (§3.2).
	VDeps []int
	// Conditional marks ops guarded by a branch (blue edges in Fig 4);
	// informational in this implementation.
	Conditional bool
	// Mutate computes the new value (update/insert only).
	Mutate MutateFunc
	// Check validates the read value (optional).
	Check CheckFunc
}

// Procedure is a registered stored procedure.
type Procedure struct {
	Name string
	Ops  []OpSpec
	// ReadOnly declares the procedure a snapshot candidate: every op is
	// an OpRead (Validate enforces it), and engines with MVCC enabled
	// route its requests onto the lock-free snapshot read path instead
	// of the locking protocol. Without MVCC the declaration is inert —
	// the procedure runs the normal serializable path.
	ReadOnly bool
}

// Validate checks structural invariants: op IDs are positional, dependency
// references point at earlier read-capable ops, and mutators/keys exist
// where required.
func (p *Procedure) Validate() error {
	if p.Name == "" {
		return errors.New("txn: procedure has no name")
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.ID != i {
			return fmt.Errorf("txn: %s op %d has ID %d (must be positional)", p.Name, i, op.ID)
		}
		if p.ReadOnly && op.Type != OpRead {
			return fmt.Errorf("txn: %s is declared read-only but op %d is a %s", p.Name, i, op.Type)
		}
		if op.Key == nil {
			return fmt.Errorf("txn: %s op %d has no Key func", p.Name, i)
		}
		if op.Type == OpUpdate || op.Type == OpInsert {
			if op.Mutate == nil {
				return fmt.Errorf("txn: %s op %d (%s) has no Mutate func", p.Name, i, op.Type)
			}
		}
		for _, d := range append(append([]int{}, op.PKDeps...), op.VDeps...) {
			if d < 0 || d >= len(p.Ops) {
				return fmt.Errorf("txn: %s op %d depends on out-of-range op %d", p.Name, i, d)
			}
			if d == i {
				return fmt.Errorf("txn: %s op %d depends on itself", p.Name, i)
			}
			if d > i {
				return fmt.Errorf("txn: %s op %d depends on later op %d (ops must be listed in a valid order)", p.Name, i, d)
			}
			dep := &p.Ops[d]
			if dep.Type == OpInsert || dep.Type == OpDelete {
				return fmt.Errorf("txn: %s op %d depends on non-reading op %d (%s)", p.Name, i, d, dep.Type)
			}
		}
	}
	return nil
}

// Registry maps procedure names to definitions. Every node in the cluster
// holds the same registry so any node can coordinate a routed transaction.
type Registry struct {
	mu    sync.RWMutex
	procs map[string]*Procedure
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{procs: make(map[string]*Procedure)}
}

// Register validates and adds a procedure. It returns an error if the
// procedure is invalid or the name is taken.
func (r *Registry) Register(p *Procedure) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.procs[p.Name]; ok {
		return fmt.Errorf("txn: procedure %q already registered", p.Name)
	}
	r.procs[p.Name] = p
	return nil
}

// MustRegister registers or panics; for package-level workload setup.
func (r *Registry) MustRegister(p *Procedure) {
	if err := r.Register(p); err != nil {
		panic(err)
	}
}

// Lookup returns the named procedure, or nil.
func (r *Registry) Lookup(name string) *Procedure {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.procs[name]
}

// Names returns all registered procedure names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.procs))
	for n := range r.procs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Request is one transaction instance to execute.
type Request struct {
	// Proc names the registered stored procedure.
	Proc string
	// Args are the input parameters.
	Args Args
	// ID is a globally unique transaction id (assigned by the engine if
	// zero).
	ID uint64
}

// AbortReason classifies why a transaction aborted.
type AbortReason uint8

const (
	// AbortNone means the transaction committed.
	AbortNone AbortReason = iota
	// AbortLockConflict is a NO_WAIT lock denial.
	AbortLockConflict
	// AbortValidation is an OCC validation failure.
	AbortValidation
	// AbortConstraint is an application value-constraint violation
	// (Check or Mutate returned an error).
	AbortConstraint
	// AbortNotFound means a referenced key did not exist.
	AbortNotFound
	// AbortInternal covers engine faults and unclassified transport
	// failures.
	AbortInternal
	// AbortCancelled means the caller's context was cancelled or its
	// deadline expired before the transaction reached its commit point.
	// Engines honor cancellation only up to that point: once the inner
	// region (Chiller) or the commit phase (2PL/OCC) has decided commit,
	// the transaction completes regardless of the context.
	AbortCancelled
	// AbortUnreachable is a transient transport fault before the commit
	// point: a participant was unreachable (dropped message, partition),
	// the coordinator released everything it held, and a retry may
	// succeed once the network heals. Post-commit-point transport
	// failures stay AbortInternal — they are not cleanly retryable.
	AbortUnreachable
	// AbortStaleRead is a read-only snapshot transaction whose snapshot
	// timestamp fell below a store's version-retention watermark (the
	// GC horizon, typically right after a recovery discarded old
	// versions). Retryable: a fresh attempt takes a fresher snapshot.
	AbortStaleRead
	// AbortMoved means the transaction routed to a node that no longer
	// (or not yet) owns the partition it addressed: a membership change
	// or hot-record migration installed a new layout between routing and
	// lock acquisition. Retryable — the retry re-reads the directory and
	// routes to the new owner.
	AbortMoved
)

func (a AbortReason) String() string {
	switch a {
	case AbortNone:
		return "committed"
	case AbortLockConflict:
		return "lock-conflict"
	case AbortValidation:
		return "validation"
	case AbortConstraint:
		return "constraint"
	case AbortNotFound:
		return "not-found"
	case AbortInternal:
		return "internal"
	case AbortCancelled:
		return "cancelled"
	case AbortUnreachable:
		return "unreachable"
	case AbortStaleRead:
		return "stale-read"
	case AbortMoved:
		return "moved"
	}
	return fmt.Sprintf("abort(%d)", uint8(a))
}

// Abort is the error type engines return for aborted transactions.
type Abort struct {
	Reason AbortReason
	Detail string
}

func (a *Abort) Error() string {
	if a.Detail == "" {
		return "txn aborted: " + a.Reason.String()
	}
	return "txn aborted: " + a.Reason.String() + ": " + a.Detail
}

// NewAbort builds an Abort error.
func NewAbort(reason AbortReason, detail string) *Abort {
	return &Abort{Reason: reason, Detail: detail}
}

// ReasonOf extracts the abort reason from an error, or AbortInternal for
// unclassified errors, AbortNone for nil.
func ReasonOf(err error) AbortReason {
	if err == nil {
		return AbortNone
	}
	var a *Abort
	if errors.As(err, &a) {
		return a.Reason
	}
	return AbortInternal
}

// Result reports the outcome of a transaction.
type Result struct {
	// Committed is true iff the transaction committed.
	Committed bool
	// Reads holds the values read, keyed by op ID (valid when committed).
	Reads ReadSet
	// Reason classifies an abort (AbortNone when committed).
	Reason AbortReason
	// Detail carries human-readable context for internal/unreachable
	// aborts — which verb failed and at which destination node — so
	// injected-fault tests and operators can attribute the failure. Empty
	// for application-level aborts.
	Detail string
	// Distributed reports whether more than one node took part in the
	// transaction (a snapshot read counts the node that served each read:
	// one served entirely from locally held partitions is not).
	Distributed bool
}
