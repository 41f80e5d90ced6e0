package chiller

import (
	"context"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
)

// TestInnerOuterBucketCollision pins the self-conflict fix: a
// transaction whose hot (inner-region) record and cold (outer-region)
// record hash into the same storage bucket must still commit. Before the
// fix, the transaction's own outer lock NO_WAIT-aborted its inner region
// on every attempt, so the request could never commit and any
// retry-until-commit caller hung forever.
func TestInnerOuterBucketCollision(t *testing.T) {
	db, err := Open(
		WithPartitions(1),
		WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	// A tiny bucket count guarantees colliding keys exist.
	if err := db.CreateTable(tAccounts, 4); err != nil {
		t.Fatal(err)
	}
	for k := Key(0); k < 100; k++ {
		if err := db.Load(tAccounts, k, encBal(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Register(transferProc("bank.transfer")); err != nil {
		t.Fatal(err)
	}
	if err := db.MarkHot(tAccounts, 0); err != nil {
		t.Fatal(err)
	}

	// Find a cold destination sharing the hot source's bucket.
	tbl := db.nodeList()[0].Store().Table(storage.TableID(tAccounts))
	dst := int64(-1)
	for k := int64(1); k < 100; k++ {
		if tbl.BucketIndex(storage.Key(k)) == tbl.BucketIndex(0) {
			dst = k
			break
		}
	}
	if dst < 0 {
		t.Fatal("no colliding key found (bucket hash changed?)")
	}

	// One attempt must suffice: the transaction may not conflict with
	// itself.
	if _, err := db.Execute(context.Background(), "bank.transfer", 0, dst, 25); err != nil {
		t.Fatalf("colliding-bucket transfer: %v", err)
	}
	src, _ := db.Get(tAccounts, 0)
	got, _ := db.Get(tAccounts, Key(dst))
	if decBal(src) != 975 || decBal(got) != 1025 {
		t.Errorf("balances = %d, %d; want 975, 1025", decBal(src), decBal(got))
	}
	db.c.Drain()
	for i, n := range db.nodeList() {
		if n.ActiveTxns() != 0 {
			t.Errorf("node %d leaked participant state", i)
		}
	}
}

// TestInnerOuterBucketCollisionSharedUpgrade exercises the borrowed-lock
// upgrade path: the outer region holds the shared bucket lock for a
// read, and the colliding inner record needs exclusive.
func TestInnerOuterBucketCollisionSharedUpgrade(t *testing.T) {
	db, err := Open(WithPartitions(1), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(tAccounts, 4); err != nil {
		t.Fatal(err)
	}
	for k := Key(0); k < 100; k++ {
		if err := db.Load(tAccounts, k, encBal(1000)); err != nil {
			t.Fatal(err)
		}
	}
	// audit-and-debit: read a cold account, then debit the hot one by
	// the cold account's balance modulo 100.
	p := NewProc("bank.auditdebit")
	cold := p.Read(tAccounts, Arg(1))
	p.Update(tAccounts, Arg(0), func(old []byte, _ Args, reads Reads) ([]byte, error) {
		return encBal(decBal(old) - decBal(reads[0])%100), nil
	}).ValueFrom(cold)
	if err := db.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := db.MarkHot(tAccounts, 0); err != nil {
		t.Fatal(err)
	}

	tbl := db.nodeList()[0].Store().Table(storage.TableID(tAccounts))
	coldKey := int64(-1)
	for k := int64(1); k < 100; k++ {
		if tbl.BucketIndex(storage.Key(k)) == tbl.BucketIndex(0) {
			coldKey = k
			break
		}
	}
	if coldKey < 0 {
		t.Fatal("no colliding key found")
	}

	if _, err := db.Execute(context.Background(), "bank.auditdebit", 0, coldKey); err != nil {
		t.Fatalf("shared-upgrade colliding transaction: %v", err)
	}
	src, _ := db.Get(tAccounts, 0)
	if decBal(src) != 1000-1000%100 {
		t.Errorf("hot balance = %d; want %d", decBal(src), 1000-1000%100)
	}
	db.c.Drain()
	for i, n := range db.nodeList() {
		if n.ActiveTxns() != 0 {
			t.Errorf("node %d leaked participant state", i)
		}
	}
}
