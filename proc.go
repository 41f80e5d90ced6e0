package chiller

import (
	"fmt"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

// Table identifies a table. Create tables with DB.CreateTable before
// loading or executing against them.
type Table uint32

// Key is a record's primary key. Chiller assumes integral keys (composite
// keys are packed into 64 bits, as TPC-C packs warehouse/district/id).
type Key uint64

// Args carries a transaction's input parameters as 64-bit integers
// (amounts are fixed-point cents; ids are ids).
type Args []int64

// Reads maps operation ID to the value that operation read. Key and
// mutate functions receive the reads accumulated so far, which is how an
// operation consumes values produced by earlier operations.
type Reads map[int][]byte

// KeyFunc resolves an operation's primary key from the transaction's
// arguments and earlier reads. ok=false means the key is not yet
// resolvable (it depends on a read that has not happened); declare that
// dependency with Op.KeyFrom so the engine orders execution correctly.
type KeyFunc func(args Args, reads Reads) (key Key, ok bool)

// MutateFunc computes an update/insert's new value. old is the current
// value (nil for inserts). Returning an error aborts the transaction
// with ErrConstraint, under every engine and in either of Chiller's
// regions: Chiller runs every mutator before its commit point. old,
// args and reads are read-only, and the returned slice becomes the
// database's: build it fresh (or return old untouched) and never write
// through it afterwards.
type MutateFunc func(old []byte, args Args, reads Reads) ([]byte, error)

// CheckFunc validates a value right after it is read; an error aborts
// the transaction with ErrConstraint.
type CheckFunc func(val []byte, args Args, reads Reads) error

// Arg returns a KeyFunc that reads the key directly from argument i —
// the common case for operations with no key dependencies.
func Arg(i int) KeyFunc {
	return func(args Args, _ Reads) (Key, bool) {
		if i < 0 || i >= len(args) {
			return 0, false
		}
		return Key(args[i]), true
	}
}

// Proc declaratively builds a stored procedure. Chiller assumes
// transactions are registered as compiled stored procedures (like
// H-Store/VoltDB): a procedure is an ordered list of operations, each
// declaring how its key and value are computed and which earlier
// operations those computations depend on. The engine's static analysis
// consumes these declarations to split hot operations into the inner
// region.
//
//	transfer := chiller.NewProc("bank.transfer")
//	transfer.Update(accounts, chiller.Arg(0), debit)
//	transfer.Update(accounts, chiller.Arg(1), credit)
//	err := db.Register(transfer)
//
// Each operation method returns the *Op for further qualification
// (dependencies, checks, co-location hints) and records it in procedure
// order. Builder mistakes surface as an error from DB.Register.
type Proc struct {
	name     string
	ops      []*Op
	readOnly bool
}

// Op is one operation of a procedure under construction.
type Op struct {
	proc *Proc
	spec txn.OpSpec
}

// NewProc starts a procedure with the given registry name.
func NewProc(name string) *Proc { return &Proc{name: name} }

func (p *Proc) add(t txn.OpType, table Table, key KeyFunc, mutate MutateFunc) *Op {
	op := &Op{proc: p, spec: txn.OpSpec{
		ID:     len(p.ops),
		Type:   t,
		Table:  storage.TableID(table),
		Key:    key.internal(),
		Mutate: mutate.internal(),
	}}
	p.ops = append(p.ops, op)
	return op
}

// Read appends a shared-lock read of table at key.
func (p *Proc) Read(table Table, key KeyFunc) *Op {
	return p.add(txn.OpRead, table, key, nil)
}

// ReadOnly declares the procedure reads and never writes. Registration
// fails if any operation is a write. On a DB opened WithMVCC, read-only
// procedures execute on the lock-free snapshot path: a stable snapshot
// timestamp, versioned reads with no lock words touched, no conflict
// aborts, and zero network verbs for partitions held locally. Without
// WithMVCC the declaration is accepted and the procedure runs on the
// engine's normal locking path.
func (p *Proc) ReadOnly() *Proc {
	p.readOnly = true
	return p
}

// Update appends a read-modify-write: the record is read under an
// exclusive lock and replaced with mutate's result.
func (p *Proc) Update(table Table, key KeyFunc, mutate MutateFunc) *Op {
	return p.add(txn.OpUpdate, table, key, mutate)
}

// Insert appends a record creation; mutate computes the new value (old
// is nil).
func (p *Proc) Insert(table Table, key KeyFunc, mutate MutateFunc) *Op {
	return p.add(txn.OpInsert, table, key, mutate)
}

// Delete appends a record removal.
func (p *Proc) Delete(table Table, key KeyFunc) *Op {
	return p.add(txn.OpDelete, table, key, nil)
}

// ID returns the operation's index within the procedure — the op ID to
// pass to Result.Read and the key under which this op's value appears in
// Reads.
func (o *Op) ID() int { return o.spec.ID }

// KeyFrom declares that this op's KeyFunc consumes values read by the
// given earlier operations (a pk-dependency, §3.2 of the paper). Key
// dependencies constrain execution order: the engine will not lock this
// op before its key resolves.
func (o *Op) KeyFrom(deps ...*Op) *Op {
	for _, d := range deps {
		o.spec.PKDeps = append(o.spec.PKDeps, d.spec.ID)
	}
	return o
}

// ValueFrom declares that this op's MutateFunc consumes values read by
// the given earlier operations (a v-dependency). Value dependencies do
// not constrain lock order — the engine may lock this op early and
// compute its value late, which is what lets a cold write depend on a
// hot read without extending the hot record's lock span.
func (o *Op) ValueFrom(deps ...*Op) *Op {
	for _, d := range deps {
		o.spec.VDeps = append(o.spec.VDeps, d.spec.ID)
	}
	return o
}

// Check installs a validation hook run right after the record is read;
// an error aborts the transaction with ErrConstraint.
func (o *Op) Check(fn CheckFunc) *Op {
	o.spec.Check = fn.internal()
	return o
}

// CoLocatedWith declares that this op's record always lives on the
// partition that table/key routes to, even when the record key itself is
// not yet resolvable (co-partitioned tables — e.g. an order line routed
// by its warehouse). The hint lets the static analysis place an op with
// a key dependency into the inner region.
func (o *Op) CoLocatedWith(table Table, key KeyFunc) *Op {
	o.spec.PartTable = storage.TableID(table)
	o.spec.PartKey = key.internal()
	return o
}

// build assembles the internal procedure.
func (p *Proc) build() (*txn.Procedure, error) {
	if p == nil {
		return nil, fmt.Errorf("chiller: nil procedure")
	}
	out := &txn.Procedure{Name: p.name, Ops: make([]txn.OpSpec, len(p.ops)), ReadOnly: p.readOnly}
	for i, op := range p.ops {
		out.Ops[i] = op.spec
	}
	return out, nil
}

// --- adapters between the public function types and the internal ones ---

func (f KeyFunc) internal() txn.KeyFunc {
	if f == nil {
		return nil
	}
	return func(args txn.Args, reads txn.ReadSet) (storage.Key, bool) {
		k, ok := f(Args(args), Reads(reads))
		return storage.Key(k), ok
	}
}

func (f MutateFunc) internal() txn.MutateFunc {
	if f == nil {
		return nil
	}
	return func(old []byte, args txn.Args, reads txn.ReadSet) ([]byte, error) {
		return f(old, Args(args), Reads(reads))
	}
}

func (f CheckFunc) internal() txn.CheckFunc {
	if f == nil {
		return nil
	}
	return func(val []byte, args txn.Args, reads txn.ReadSet) error {
		return f(val, Args(args), Reads(reads))
	}
}
