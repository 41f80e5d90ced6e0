package occ_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cc/occ"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

func newBankCluster(t *testing.T, parts int) *bench.Cluster {
	t.Helper()
	b := &bench.Bank{AccountsPerPartition: 20}
	def := cluster.RangePartitioner{
		N:      parts,
		MaxKey: map[storage.TableID]storage.Key{bench.BankTable: storage.Key(parts * 20)},
	}
	c := bench.NewCluster(bench.ClusterConfig{
		Partitions: parts,
		Latency:    time.Microsecond,
	}, def)
	t.Cleanup(c.Close)
	if err := bench.SetupBank(c, b, true); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEngineName(t *testing.T) {
	c := newBankCluster(t, 1)
	if occ.New(c.Nodes[0]).Name() != "OCC" {
		t.Fatal("bad name")
	}
}

func TestCommitLocalAndRemote(t *testing.T) {
	c := newBankCluster(t, 2)
	e := occ.New(c.Nodes[0])
	res := e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{1, 2, 5}})
	if !res.Committed || res.Distributed {
		t.Fatalf("local: %+v", res)
	}
	res = e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{1, 30, 5}})
	if !res.Committed || !res.Distributed {
		t.Fatalf("remote: %+v", res)
	}
	if !c.Quiesced() {
		t.Fatal("validation locks leaked")
	}
}

// A concurrent committed write between the optimistic read and validation
// must abort the transaction (version check).
func TestValidationDetectsStaleRead(t *testing.T) {
	c := newBankCluster(t, 1)
	node := c.Nodes[0]

	// Interpose: run the OCC transaction but mutate the record under it
	// by committing a conflicting change between execution and
	// validation. We simulate the race deterministically by bumping the
	// version directly after reads would have happened — easiest via a
	// custom procedure whose mutate hook performs the interference.
	tbl := node.Store().Table(bench.BankTable)
	var once sync.Once
	interfere := &txn.Procedure{
		Name: "occ.interfere",
		Ops: []txn.OpSpec{
			{
				ID: 0, Type: txn.OpUpdate, Table: bench.BankTable,
				Key: func(txn.Args, txn.ReadSet) (storage.Key, bool) { return 5, true },
				Mutate: func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
					// After this op's optimistic read, sneak in a
					// conflicting committed write (version bump).
					once.Do(func() {
						if err := tbl.Bucket(5).Put(5, bench.EncodeBalance(1)); err != nil {
							t.Errorf("interfere: %v", err)
						}
					})
					return bench.EncodeBalance(bench.DecodeBalance(old) + 1), nil
				},
			},
		},
	}
	if err := c.Registry.Register(interfere); err != nil {
		t.Fatal(err)
	}
	e := occ.New(node)
	res := e.Run(context.Background(), &txn.Request{Proc: "occ.interfere"})
	if res.Committed {
		t.Fatal("stale read committed")
	}
	if res.Reason != txn.AbortValidation {
		t.Fatalf("reason = %v, want validation", res.Reason)
	}
	if !c.Quiesced() {
		t.Fatal("locks leaked after validation abort")
	}
}

func TestValidationWriteLockConflict(t *testing.T) {
	c := newBankCluster(t, 1)
	node := c.Nodes[0]
	// Hold an exclusive lock on the write target: validation must fail.
	b := node.Store().Table(bench.BankTable).Bucket(3)
	if !b.Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup")
	}
	defer b.Lock.Unlock(storage.LockExclusive)
	e := occ.New(node)
	res := e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{3, 4, 1}})
	// The validate response now carries the participant's precise abort
	// reason: a write-lock conflict reports as lock-conflict rather than
	// the catch-all validation reason.
	if res.Committed || res.Reason != txn.AbortLockConflict {
		t.Fatalf("res = %+v", res)
	}
	if !c.Quiesced() {
		t.Fatal("locks leaked")
	}
}

func TestNotFoundAbort(t *testing.T) {
	c := newBankCluster(t, 1)
	e := occ.New(c.Nodes[0])
	res := e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{9999, 1, 1}})
	if res.Committed || res.Reason != txn.AbortNotFound {
		t.Fatalf("res = %+v", res)
	}
}

func TestConstraintAbortBeforeValidation(t *testing.T) {
	// Overdraft-forbidden bank: constraint failures abort during
	// execution, without touching validation locks.
	b := &bench.Bank{AccountsPerPartition: 10}
	def := cluster.RangePartitioner{
		N:      1,
		MaxKey: map[storage.TableID]storage.Key{bench.BankTable: 10},
	}
	c := bench.NewCluster(bench.ClusterConfig{Partitions: 1, Latency: time.Microsecond}, def)
	t.Cleanup(c.Close)
	if err := bench.SetupBank(c, b, false); err != nil {
		t.Fatal(err)
	}
	e := occ.New(c.Nodes[0])
	res := e.Run(context.Background(), &txn.Request{Proc: bench.BankTransferProc, Args: txn.Args{0, 1, bench.InitialBalance + 1}})
	if res.Committed || res.Reason != txn.AbortConstraint {
		t.Fatalf("res = %+v", res)
	}
	if !c.Quiesced() {
		t.Fatal("state leaked")
	}
}

// OCC × MVCC: timestamp order must agree with serial order even though
// OCC holds no read locks. Writer A reads k and writes j; writer B
// overwrites k. A is parked right after its read of k validated, so the
// serial order is fixed as A < B; B then runs to completion. No snapshot
// — taken while A is parked or after it finishes — may show B's write
// of k without A's write of j. (With the commit timestamp reserved after
// validation, B got the smaller timestamp and the first snapshot showed
// exactly that.)
func TestSnapshotNeverSeesLaterWriterWithoutEarlier(t *testing.T) {
	const k, j = 3, 4
	def := cluster.RangePartitioner{N: 2, MaxKey: map[storage.TableID]storage.Key{bench.BankTable: 40}}
	c := bench.NewCluster(bench.ClusterConfig{Partitions: 2, Latency: time.Microsecond, MVCC: true}, def)
	t.Cleanup(c.Close)
	if err := bench.SetupBank(c, &bench.Bank{AccountsPerPartition: 20}, true); err != nil {
		t.Fatal(err)
	}
	at := func(key storage.Key) txn.KeyFunc {
		return func(txn.Args, txn.ReadSet) (storage.Key, bool) { return key, true }
	}
	set := func(v int64) txn.MutateFunc {
		return func([]byte, txn.Args, txn.ReadSet) ([]byte, error) { return bench.EncodeBalance(v), nil }
	}
	for _, p := range []*txn.Procedure{
		{Name: "a.readk.writej", Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: bench.BankTable, Key: at(k)},
			{ID: 1, Type: txn.OpUpdate, Table: bench.BankTable, Key: at(j), Mutate: set(-1)},
		}},
		{Name: "b.writek", Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: bench.BankTable, Key: at(k), Mutate: set(-2)},
		}},
		{Name: "ro.kj", ReadOnly: true, Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: bench.BankTable, Key: at(k)},
			{ID: 1, Type: txn.OpRead, Table: bench.BankTable, Key: at(j)},
		}},
	} {
		if err := c.Registry.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := func(when string) {
		t.Helper()
		res := occ.New(c.Nodes[1]).Run(context.Background(), &txn.Request{Proc: "ro.kj"})
		if !res.Committed {
			t.Fatalf("%s: snapshot aborted: %+v", when, res)
		}
		kv, jv := bench.DecodeBalance(res.Reads[0]), bench.DecodeBalance(res.Reads[1])
		if kv == -2 && jv != -1 {
			t.Fatalf("%s: snapshot shows B's write of k (%d) without A's write of j (%d): not a prefix of the serial order A < B", when, kv, jv)
		}
	}

	a := occ.New(c.Nodes[0])
	parked, resume := make(chan struct{}), make(chan struct{})
	a.SetAfterValidate(func() {
		close(parked)
		<-resume
	})
	aDone := make(chan txn.Result, 1)
	go func() { aDone <- a.Run(context.Background(), &txn.Request{Proc: "a.readk.writej"}) }()
	<-parked
	if res := occ.New(c.Nodes[1]).Run(context.Background(), &txn.Request{Proc: "b.writek"}); !res.Committed {
		close(resume)
		t.Fatalf("B aborted: %+v", res)
	}
	snapshot("while A is parked")
	close(resume)
	if res := <-aDone; !res.Committed {
		t.Fatalf("A aborted: %+v", res)
	}
	snapshot("after A finished")
	if !c.Quiesced() {
		t.Fatal("locks leaked")
	}
}
