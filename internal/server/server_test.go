package server

import (
	"errors"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wire"
)

func newTestNode(t *testing.T) (*Node, *simfab.Network) {
	t.Helper()
	net := simfab.New(simfab.Config{})
	topo := cluster.NewTopology(1, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 1})
	st := storage.NewStore()
	tbl := st.CreateTable(1, 16)
	for k := storage.Key(0); k < 10; k++ {
		if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	n := New(net.Endpoint(0), st, txn.NewRegistry(), dir, 0)
	t.Cleanup(net.Close)
	return n, net
}

func TestLockReadBasics(t *testing.T) {
	n, _ := newTestNode(t)
	resp := n.LockReadLocal(1, []LockEntry{
		{OpID: 0, Table: 1, Key: 3, Mode: storage.LockShared, Read: true, MustExist: true},
	})
	if !resp.OK {
		t.Fatalf("lock failed: %v", resp.Reason)
	}
	if got := resp.Reads[0]; len(got) != 1 || got[0] != 3 {
		t.Fatalf("read %v", got)
	}
	if n.ActiveTxns() != 1 {
		t.Fatalf("ActiveTxns = %d", n.ActiveTxns())
	}
	n.AbortLocal(1)
	if n.ActiveTxns() != 0 {
		t.Fatal("state not dropped")
	}
	if n.Store().Table(1).Bucket(3).Lock.Held() {
		t.Fatal("lock leaked")
	}
}

func TestLockReadNotFound(t *testing.T) {
	n, _ := newTestNode(t)
	resp := n.LockReadLocal(2, []LockEntry{
		{OpID: 0, Table: 1, Key: 999, Mode: storage.LockShared, Read: true, MustExist: true},
	})
	if resp.OK || resp.Reason != txn.AbortNotFound {
		t.Fatalf("resp = %+v", resp)
	}
	// Failed request must roll back its own locks.
	if n.Store().Table(1).Bucket(999).Lock.Held() {
		t.Fatal("lock leaked on not-found")
	}
	n.AbortLocal(2)
}

func TestLockDedupAndUpgrade(t *testing.T) {
	n, _ := newTestNode(t)
	b := n.Store().Table(1).Bucket(5)

	// Shared then shared again: one lock.
	r1 := n.LockReadLocal(3, []LockEntry{{OpID: 0, Table: 1, Key: 5, Mode: storage.LockShared, Read: true, MustExist: true}})
	r2 := n.LockReadLocal(3, []LockEntry{{OpID: 1, Table: 1, Key: 5, Mode: storage.LockShared, Read: true, MustExist: true}})
	if !r1.OK || !r2.OK {
		t.Fatal("redundant shared lock failed")
	}
	if b.Lock.SharedCount() != 1 {
		t.Fatalf("SharedCount = %d, want 1 (dedup)", b.Lock.SharedCount())
	}
	// Upgrade to exclusive.
	r3 := n.LockReadLocal(3, []LockEntry{{OpID: 2, Table: 1, Key: 5, Mode: storage.LockExclusive, Read: true, MustExist: true}})
	if !r3.OK {
		t.Fatal("upgrade failed")
	}
	if !b.Lock.HeldExclusive() {
		t.Fatal("not exclusive after upgrade")
	}
	// Exclusive requested again: no-op.
	r4 := n.LockReadLocal(3, []LockEntry{{OpID: 3, Table: 1, Key: 5, Mode: storage.LockExclusive, Read: false}})
	if !r4.OK {
		t.Fatal("re-lock failed")
	}
	n.AbortLocal(3)
	if b.Lock.Held() {
		t.Fatal("unlock accounting broken")
	}
}

func TestUpgradeConflictAborts(t *testing.T) {
	n, _ := newTestNode(t)
	b := n.Store().Table(1).Bucket(5)
	// Another transaction holds a shared lock.
	if !b.Lock.TryLock(storage.LockShared) {
		t.Fatal("setup")
	}
	defer b.Lock.Unlock(storage.LockShared)

	r1 := n.LockReadLocal(4, []LockEntry{{OpID: 0, Table: 1, Key: 5, Mode: storage.LockShared, Read: true, MustExist: true}})
	if !r1.OK {
		t.Fatal("shared should coexist")
	}
	r2 := n.LockReadLocal(4, []LockEntry{{OpID: 1, Table: 1, Key: 5, Mode: storage.LockExclusive, Read: false}})
	if r2.OK || r2.Reason != txn.AbortLockConflict {
		t.Fatalf("upgrade with 2 holders: %+v", r2)
	}
	// Our shared lock survives (rollback removes only this call's locks).
	if b.Lock.SharedCount() != 2 {
		t.Fatalf("SharedCount = %d, want 2", b.Lock.SharedCount())
	}
	n.AbortLocal(4)
	if b.Lock.SharedCount() != 1 {
		t.Fatal("abort did not release our share")
	}
}

func TestCommitAppliesWritesAndReleases(t *testing.T) {
	n, _ := newTestNode(t)
	resp := n.LockReadLocal(5, []LockEntry{
		{OpID: 0, Table: 1, Key: 1, Mode: storage.LockExclusive, Read: true, MustExist: true},
	})
	if !resp.OK {
		t.Fatal(resp.Reason)
	}
	err := n.CommitLocal(5, 0, []WriteOp{
		{Table: 1, Key: 1, Type: txn.OpUpdate, Value: []byte{99}},
		{Table: 1, Key: 77, Type: txn.OpInsert, Value: []byte{77}},
		{Table: 1, Key: 2, Type: txn.OpDelete},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := n.Store().Table(1).Bucket(1).Get(1)
	if v[0] != 99 {
		t.Fatalf("update not applied: %v", v)
	}
	if _, _, err := n.Store().Table(1).Bucket(77).Get(77); err != nil {
		t.Fatal("insert not applied")
	}
	if _, _, err := n.Store().Table(1).Bucket(2).Get(2); !errors.Is(err, storage.ErrNotFound) {
		t.Fatal("delete not applied")
	}
	if n.ActiveTxns() != 0 {
		t.Fatal("state retained after commit")
	}
}

func TestFaultInjectorBlocksCommit(t *testing.T) {
	n, _ := newTestNode(t)
	injected := errors.New("injected")
	n.FaultInjector = func(verb string, txnID uint64) error {
		if verb == VerbCommit && txnID == 6 {
			return injected
		}
		return nil
	}
	n.LockReadLocal(6, []LockEntry{{OpID: 0, Table: 1, Key: 1, Mode: storage.LockExclusive, Read: true, MustExist: true}})
	err := n.CommitLocal(6, 0, []WriteOp{{Table: 1, Key: 1, Type: txn.OpUpdate, Value: []byte{1}}})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v", err)
	}
	// The injected failure leaves the lock held (a crashed participant);
	// cleanup happens via abort.
	n.AbortLocal(6)
	if n.Store().Table(1).Bucket(1).Lock.Held() {
		t.Fatal("lock stuck after abort")
	}
}

func TestInnerReplEncodeDecode(t *testing.T) {
	writes := []WriteOp{{Table: 1, Key: 5, Type: txn.OpUpdate, Value: []byte{1, 2}}}
	p := EncodeInnerRepl(42, 9, 7, writes)
	txnID, ts, coord, got, err := DecodeInnerRepl(p)
	if err != nil {
		t.Fatal(err)
	}
	if txnID != 42 || ts != 9 || coord != 7 {
		t.Fatalf("txnID=%d ts=%d coord=%d", txnID, ts, coord)
	}
	if len(got) != 1 || got[0].Key != 5 || got[0].Value[1] != 2 {
		t.Fatalf("writes = %+v", got)
	}
	if _, _, _, _, err := DecodeInnerRepl([]byte{1}); err == nil {
		t.Fatal("short message accepted")
	}
}

// The one ack waiter every stream sender uses: acks that arrive before
// Resolve count down without firing it; Resolve(0) fires at once; Cancel
// leaves nothing behind and a late ack is ignored; Await ends on fabric
// teardown.
func TestAckWaiter(t *testing.T) {
	n, net := newTestNode(t)
	ack := func(a *Acks) {
		t.Helper()
		if _, err := n.handleInnerAck(0, EncodeAbort(a.id)); err != nil {
			t.Fatal(err)
		}
	}
	fired := func(a *Acks) bool {
		t.Helper()
		select {
		case <-a.ch:
			a.ch <- struct{}{} // put the token back for Await
			return true
		default:
			return false
		}
	}

	a := n.OpenAcks()
	aID := a.id
	ack(a) // arrives before the sender has counted its sends
	if fired(a) {
		t.Fatal("an open waiter fired before Resolve")
	}
	a.Resolve(2)
	if fired(a) {
		t.Fatal("fired after one of two acks")
	}
	ack(a)
	if err := a.Await(); err != nil {
		t.Fatal(err)
	}

	if b := n.OpenAcks(); b.id == aID {
		t.Fatal("two waiters share an id")
	} else {
		b.Resolve(0) // nothing was sent: fires now
		if err := b.Await(); err != nil {
			t.Fatal(err)
		}
	}

	c := n.OpenAcks()
	id := c.id
	c.Cancel()
	if _, err := n.handleInnerAck(0, EncodeAbort(id)); err != nil {
		t.Fatal("late ack after cancel should be ignored, not error")
	}

	d := n.OpenAcks()
	d.Resolve(1) // the replica never acks
	net.Close()
	if err := d.Await(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Await after Close = %v, want ErrClosed", err)
	}
	if len(n.acks) != 0 {
		t.Fatalf("%d ack registrations left behind", len(n.acks))
	}
	if err := (*Acks)(nil).Await(); err != nil {
		t.Fatalf("a nil waiter (nothing streamed) = %v", err)
	}
}

func TestLockRequestWireRoundTrip(t *testing.T) {
	entries := []LockEntry{
		{OpID: 1, Table: 2, Key: 3, Mode: storage.LockExclusive, Read: true, MustExist: true},
		{OpID: 4, Table: 5, Key: 6, Mode: storage.LockShared},
	}
	txnID, got, err := DecodeLockRequest(EncodeLockRequest(77, entries))
	if err != nil || txnID != 77 {
		t.Fatalf("txnID=%d err=%v", txnID, err)
	}
	if len(got) != 2 || got[0] != entries[0] || got[1] != entries[1] {
		t.Fatalf("entries = %+v", got)
	}
	// Response round trip.
	lr := &LockResponse{OK: false, Reason: txn.AbortLockConflict, Reads: txn.ReadSet{3: []byte("x")}}
	w := wire.NewWriter(64)
	lr.EncodeTo(w)
	back, err := DecodeLockResponse(w.Bytes())
	if err != nil || back.OK || back.Reason != txn.AbortLockConflict || string(back.Reads[3]) != "x" {
		t.Fatalf("resp = %+v err=%v", back, err)
	}
}
