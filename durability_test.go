package chiller

import (
	"context"
	"errors"
	"testing"
	"time"
)

// openDurableBank is openBank over a WithDurability dir. The loading
// phase runs unconditionally on every open — exactly how restart code
// is expected to use the API — relying on Load yielding to recovered
// values.
func openDurableBank(t *testing.T, dir string, opts ...Option) *DB {
	t.Helper()
	return openBank(t, 3, append([]Option{
		WithDurability(dir),
		WithFsyncPolicy(FsyncPolicy{NoSync: true}),
	}, opts...)...)
}

// TestDurabilityRecoversAcknowledgedCommit is the acceptance path: a
// transaction is acknowledged committed, the process "dies" (the handle
// is abandoned without Close — no drain, no clean shutdown), and a new
// Open over the same directory must come back with the committed state,
// not the initial load values.
func TestDurabilityRecoversAcknowledgedCommit(t *testing.T) {
	dir := t.TempDir()
	db := openDurableBank(t, dir)

	ctx := context.Background()
	// Cross-partition transfer: accounts 10 and 250 live on different
	// range partitions, so the commit wave and its WAL appends span two
	// nodes.
	if _, err := db.Execute(ctx, "bank.transfer", 10, 250, 700); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if got, err := db.Get(tAccounts, 10); err != nil || decBal(got) != 300 {
		t.Fatalf("pre-crash balance 10 = %d (%v), want 300", decBal(got), err)
	}

	// Process death: abandon the handle. Execute's acknowledgement
	// waited for the group-commit flush, so the records are in the log
	// files even though nothing was drained or closed.
	db = nil

	db2 := openDurableBank(t, dir)
	if got, err := db2.Get(tAccounts, 10); err != nil || decBal(got) != 300 {
		t.Fatalf("recovered balance 10 = %d (%v), want 300", decBal(got), err)
	}
	if got, err := db2.Get(tAccounts, 250); err != nil || decBal(got) != 1700 {
		t.Fatalf("recovered balance 250 = %d (%v), want 1700", decBal(got), err)
	}
	// An untouched account keeps its loaded value.
	if got, err := db2.Get(tAccounts, 42); err != nil || decBal(got) != 1000 {
		t.Fatalf("recovered balance 42 = %d (%v), want 1000", decBal(got), err)
	}
	// The recovered deployment serves new traffic.
	if _, err := db2.Execute(ctx, "bank.transfer", 250, 10, 100); err != nil {
		t.Fatalf("post-recovery transfer: %v", err)
	}
	if got, err := db2.Get(tAccounts, 10); err != nil || decBal(got) != 400 {
		t.Fatalf("post-recovery balance 10 = %d (%v), want 400", decBal(got), err)
	}
}

// TestDurabilityCleanRestart closes cleanly and reopens: same contract,
// via the drain path.
func TestDurabilityCleanRestart(t *testing.T) {
	dir := t.TempDir()
	db := openDurableBank(t, dir)
	if _, err := db.Execute(context.Background(), "bank.transfer", 5, 7, 250); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2 := openDurableBank(t, dir)
	if got, err := db2.Get(tAccounts, 5); err != nil || decBal(got) != 750 {
		t.Fatalf("recovered balance 5 = %d (%v), want 750", decBal(got), err)
	}
	if got, err := db2.Get(tAccounts, 7); err != nil || decBal(got) != 1250 {
		t.Fatalf("recovered balance 7 = %d (%v), want 1250", decBal(got), err)
	}
}

// A node's log does not depend on its lane count: a DB written with
// four lanes per node and reopened with one replays every acknowledged
// commit, whichever lane applied it.
func TestDurabilityReopenWithFewerLanes(t *testing.T) {
	dir := t.TempDir()
	db := openDurableBank(t, dir, WithLanes(4))
	for k := int64(0); k < 100; k++ {
		if _, err := db.Execute(context.Background(), "bank.transfer", k, k+1, 1); err != nil {
			t.Fatalf("transfer %d→%d: %v", k, k+1, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db2 := openDurableBank(t, dir, WithLanes(1))
	for key, want := range map[Key]int64{0: 999, 1: 1000, 50: 1000, 100: 1001, 101: 1000} {
		if got, err := db2.Get(tAccounts, key); err != nil || decBal(got) != want {
			t.Fatalf("balance %d after reopening with one lane = %d (%v), want %d", key, decBal(got), err, want)
		}
	}
}

// Until the hot layout is logged, a durable DB refuses to repartition:
// moved copies never reach the WAL, so a reopened DB would route a moved
// record back to its old home at its pre-move value.
func TestDurabilityRefusesRepartition(t *testing.T) {
	db := openDurableBank(t, t.TempDir(), WithSampling(1))
	if _, err := db.Execute(context.Background(), "bank.transfer", 10, 250, 1); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if _, err := db.Repartition(context.Background()); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Repartition on a durable DB: err = %v, want ErrUnsupported", err)
	}
	if _, err := Open(WithDurability(t.TempDir()), WithSampling(1), WithAutoRepartition(time.Second)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("WithAutoRepartition + WithDurability: err = %v, want ErrBadConfig", err)
	}
}

func TestDurabilityOptionValidation(t *testing.T) {
	if _, err := Open(WithDurability("")); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty dir: err = %v, want ErrBadConfig", err)
	}
	if _, err := Open(WithFsyncPolicy(FsyncPolicy{NoSync: true})); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("fsync policy without durability: err = %v, want ErrBadConfig", err)
	}
	if _, err := Open(WithDurability(t.TempDir()), WithFsyncPolicy(FsyncPolicy{SnapshotBytes: -1})); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative snapshot bytes: err = %v, want ErrBadConfig", err)
	}
	if _, err := Open(
		WithTransport(TransportTCP),
		WithPeers("127.0.0.1:1"),
		WithDurability(t.TempDir()),
	); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("durability over tcp: err = %v, want ErrBadConfig", err)
	}
}
