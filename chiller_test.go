package chiller

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
)

const tAccounts Table = 1

// The MVCC GC cadence belongs to the assembly (internal/deploy); the
// tests size their waits and chain-depth bounds from it.
const (
	gcInterval  = deploy.GCInterval
	gcRetention = deploy.GCRetention
)

func encBal(v int64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, uint64(v))
	return out
}

func decBal(p []byte) int64 {
	if len(p) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// transferProc builds the canonical two-op transfer: debit args[0],
// credit args[1], amount args[2], aborting on overdraft.
func transferProc(name string) *Proc {
	p := NewProc(name)
	p.Update(tAccounts, Arg(0), func(old []byte, args Args, _ Reads) ([]byte, error) {
		bal := decBal(old)
		if bal < args[2] {
			return nil, fmt.Errorf("insufficient funds: %d < %d", bal, args[2])
		}
		return encBal(bal - args[2]), nil
	})
	p.Update(tAccounts, Arg(1), func(old []byte, args Args, _ Reads) ([]byte, error) {
		return encBal(decBal(old) + args[2]), nil
	})
	return p
}

// openBank is the shared fixture: nParts partitions, replication 2 (when
// possible), 100 accounts per partition range-partitioned, the transfer
// procedure registered.
func openBank(t *testing.T, nParts int, opts ...Option) *DB {
	t.Helper()
	repl := 2
	if nParts == 1 {
		repl = 1
	}
	opts = append([]Option{
		WithPartitions(nParts),
		WithReplication(repl),
		WithRangePartitioner(map[Table]Key{tAccounts: Key(100 * nParts)}),
		WithSeed(7),
	}, opts...)
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(tAccounts, 1024); err != nil {
		t.Fatal(err)
	}
	for k := Key(0); k < Key(100*nParts); k++ {
		if err := db.Load(tAccounts, k, encBal(1000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Register(transferProc("bank.transfer")); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecuteCommitAndReads(t *testing.T) {
	db := openBank(t, 2)
	ctx := context.Background()

	res, err := db.Execute(ctx, "bank.transfer", 0, 150, 25)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	if !res.Distributed {
		t.Error("cross-partition transfer not marked distributed")
	}
	if v, ok := res.Read(0); !ok || decBal(v) != 1000 {
		t.Errorf("op 0 read = %v, %v; want old balance 1000", v, ok)
	}
	if v, err := db.Get(tAccounts, 0); err != nil || decBal(v) != 975 {
		t.Errorf("source balance = %v, %v; want 975", v, err)
	}
	if v, err := db.Get(tAccounts, 150); err != nil || decBal(v) != 1025 {
		t.Errorf("dest balance = %v, %v; want 1025", v, err)
	}
}

// A MutateFunc error aborts with ErrConstraint on every path, Chiller's
// outer region included: the Example's transfer from a cold account that
// lacks the funds to the hot account 0 debits in the outer region, whose
// writes are computed before the inner region commits. Nothing is
// applied, and the same transfer within the funds then commits.
func TestOuterMutatorFailureAborts(t *testing.T) {
	db := openBank(t, 2)
	if err := db.MarkHot(tAccounts, 0); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	balances := func(when string, src, dst int64) {
		t.Helper()
		if v, err := db.Get(tAccounts, 150); err != nil || decBal(v) != src {
			t.Errorf("%s: account 150 = %d (err %v), want %d", when, decBal(v), err, src)
		}
		if v, err := db.Get(tAccounts, 0); err != nil || decBal(v) != dst {
			t.Errorf("%s: account 0 = %d (err %v), want %d", when, decBal(v), err, dst)
		}
	}
	if _, err := db.Execute(ctx, "bank.transfer", 150, 0, 5000); !errors.Is(err, ErrConstraint) {
		t.Fatalf("overdraft into the hot account: err = %v, want ErrConstraint", err)
	}
	balances("after the overdraft", 1000, 1000)
	if _, err := db.Execute(ctx, "bank.transfer", 150, 0, 25); err != nil {
		t.Fatalf("transfer within the funds: %v", err)
	}
	balances("after the transfer", 975, 1025)
}

func TestTypedErrors(t *testing.T) {
	db := openBank(t, 2)
	ctx := context.Background()

	// Unknown procedure.
	if _, err := db.Execute(ctx, "no.such.proc", 1); !errors.Is(err, ErrUnknownProc) {
		t.Errorf("unknown proc error = %v; want ErrUnknownProc", err)
	}

	// Constraint violation (overdraft) — matches both the specific
	// sentinel and the ErrAborted umbrella, and is not retryable.
	_, err := db.Execute(ctx, "bank.transfer", 0, 1, 99999)
	if !errors.Is(err, ErrConstraint) || !errors.Is(err, ErrAborted) {
		t.Errorf("overdraft error = %v; want ErrConstraint and ErrAborted", err)
	}
	if Retryable(err) {
		t.Error("constraint violation reported retryable")
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Reason() != "constraint" {
		t.Errorf("AbortError reason = %v; want constraint", err)
	}

	// Missing record.
	if _, err := db.Execute(ctx, "bank.transfer", 99999, 1, 5); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing record error = %v; want ErrNotFound", err)
	}

	// Lock conflict: hold the bucket lock under the engine's feet.
	rid := storage.RID{Table: storage.TableID(tAccounts), Key: 3}
	bucket := db.nodeList()[int(db.dir.Partition(rid))].Store().Table(rid.Table).Bucket(rid.Key)
	if !bucket.Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup: bucket already locked")
	}
	_, err = db.Execute(ctx, "bank.transfer", 3, 4, 5)
	bucket.Lock.Unlock(storage.LockExclusive)
	if !errors.Is(err, ErrLockConflict) || !errors.Is(err, ErrAborted) {
		t.Errorf("conflict error = %v; want ErrLockConflict and ErrAborted", err)
	}
	if !Retryable(err) {
		t.Error("lock conflict not reported retryable")
	}
}

func TestRetryPolicy(t *testing.T) {
	db := openBank(t, 1)
	ctx := context.Background()

	// A held lock makes every attempt fail: MaxAttempts bounds the loop.
	rid := storage.RID{Table: storage.TableID(tAccounts), Key: 5}
	bucket := db.nodeList()[0].Store().Table(rid.Table).Bucket(rid.Key)
	if !bucket.Lock.TryLock(storage.LockExclusive) {
		t.Fatal("setup: bucket already locked")
	}
	attempts := 0
	_, err := Retry{MaxAttempts: 3}.Do(ctx, func(ctx context.Context) (Result, error) {
		attempts++
		return db.Execute(ctx, "bank.transfer", 5, 6, 1)
	})
	if attempts != 3 {
		t.Errorf("attempts = %d; want 3", attempts)
	}
	if !errors.Is(err, ErrLockConflict) {
		t.Errorf("exhausted retry error = %v; want ErrLockConflict", err)
	}
	bucket.Lock.Unlock(storage.LockExclusive)

	// With the lock released the same transfer commits on first try.
	if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 5, 6, 1); err != nil {
		t.Fatalf("post-release transfer: %v", err)
	}
}

// TestExecuteExpiredDeadline asserts the satellite requirement: an
// already-expired deadline returns context.DeadlineExceeded without
// issuing a single network verb.
func TestExecuteExpiredDeadline(t *testing.T) {
	db := openBank(t, 2)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	before := db.c.Net.Stats().MessagesSent.Load()
	_, err := db.Execute(ctx, "bank.transfer", 0, 150, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v; want context.DeadlineExceeded", err)
	}
	if after := db.c.Net.Stats().MessagesSent.Load(); after != before {
		t.Errorf("expired-deadline Execute sent %d network messages", after-before)
	}
}

// TestCancelMidTransactionReleasesLocks asserts the satellite
// requirement: a transaction cancelled mid outer-wave aborts cleanly and
// releases every lock it acquired — the participant lock tables are
// empty after the abort and stay empty through Close.
func TestCancelMidTransactionReleasesLocks(t *testing.T) {
	// 5ms one-way latency makes the first remote lock wave take ~10ms,
	// far past the 1ms deadline, so the cancellation check at the next
	// wave boundary fires deterministically — after wave 1's locks were
	// acquired.
	db := openBank(t, 2, WithLatency(5*time.Millisecond))

	// A dependent-key procedure forces a final lock wave whose key is
	// only resolvable from earlier reads — and those reads span both
	// partitions, so whichever node coordinates, at least one earlier
	// wave crosses a 5ms link and the deadline expires before the final
	// wave's boundary check.
	p := NewProc("bank.chain")
	a := p.Read(tAccounts, Arg(0))
	b := p.Read(tAccounts, Arg(1))
	p.Update(tAccounts, func(_ Args, reads Reads) (Key, bool) {
		va, okA := reads[0]
		vb, okB := reads[1]
		if !okA || !okB {
			return 0, false
		}
		return Key((decBal(va) + decBal(vb)) % 200), true
	}, func(old []byte, _ Args, _ Reads) ([]byte, error) {
		return encBal(decBal(old) + 1), nil
	}).KeyFrom(a, b)
	if err := db.Register(p); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := db.Execute(ctx, "bank.chain", 50, 150)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v; want context.DeadlineExceeded", err)
	}

	// Every lock the cancelled transaction acquired must be back: a
	// conflicting transfer over the same records commits with a live
	// context.
	if _, err := db.Execute(context.Background(), "bank.transfer", 50, 150, 1); err != nil {
		t.Fatalf("post-cancel conflicting transfer: %v", err)
	}
	db.c.Drain() // join async commit tails before inspecting lock state
	for i, n := range db.nodeList() {
		if got := n.ActiveTxns(); got != 0 {
			t.Errorf("node %d still holds %d transactions' participant state", i, got)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i, n := range db.nodeList() {
		if got := n.ActiveTxns(); got != 0 {
			t.Errorf("node %d lock table not empty after Close: %d txns", i, got)
		}
	}
}

// TestCancelTwoRegionMidOuterWave drives the cancellation path of the
// Chiller engine proper: a two-region transaction whose outer region
// spans two waves is cancelled between them, and the outer locks of
// wave 1 are released.
func TestCancelTwoRegionMidOuterWave(t *testing.T) {
	db := openBank(t, 2, WithLatency(5*time.Millisecond))

	// Celebrity record: makes transactions touching it two-region.
	if err := db.MarkHot(tAccounts, 0); err != nil {
		t.Fatal(err)
	}

	// op 0: update the hot record (inner region); op 1: read a cold
	// remote record; op 2: update a cold record whose key depends on
	// op 1 — two outer waves.
	p := NewProc("bank.hotchain")
	p.Update(tAccounts, Arg(0), func(old []byte, _ Args, _ Reads) ([]byte, error) {
		return encBal(decBal(old) - 1), nil
	})
	cold := p.Read(tAccounts, Arg(1))
	p.Update(tAccounts, func(_ Args, reads Reads) (Key, bool) {
		v, ok := reads[1]
		if !ok {
			return 0, false
		}
		return Key(decBal(v)%100 + 100), true
	}, func(old []byte, _ Args, _ Reads) ([]byte, error) {
		return encBal(decBal(old) + 1), nil
	}).KeyFrom(cold)
	if err := db.Register(p); err != nil {
		t.Fatal(err)
	}

	// Pin the round-robin coordinator choice to node 0 — the hot
	// record's home — so the engine coordinates locally instead of
	// routing the whole transaction away (routed transactions execute
	// remotely and are not cancellable mid-flight).
	db.next.Store(uint64(len(db.nodeList())) - 1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := db.Execute(ctx, "bank.hotchain", 0, 150)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v; want context.DeadlineExceeded", err)
	}

	// The cold read of wave 1 (key 150) and the hot record must both be
	// lockable again.
	if _, err := db.Execute(context.Background(), "bank.transfer", 150, 0, 1); err != nil {
		t.Fatalf("post-cancel transfer over same records: %v", err)
	}
	db.c.Drain() // join async commit tails before inspecting lock state
	for i, n := range db.nodeList() {
		if got := n.ActiveTxns(); got != 0 {
			t.Errorf("node %d leaked %d transactions' locks", i, got)
		}
	}
}

func TestMarkHotTwoRegion(t *testing.T) {
	db := openBank(t, 2)
	if err := db.MarkHot(tAccounts, 0); err != nil {
		t.Fatal(err)
	}
	// Hot source, remote cold destination: still commits, marked
	// distributed, balances conserved.
	if _, err := db.Execute(context.Background(), "bank.transfer", 0, 150, 25); err != nil {
		t.Fatalf("hot transfer: %v", err)
	}
	src, _ := db.Get(tAccounts, 0)
	dst, _ := db.Get(tAccounts, 150)
	if decBal(src)+decBal(dst) != 2000 {
		t.Errorf("balance conservation violated: %d + %d", decBal(src), decBal(dst))
	}
}

func TestRepartition(t *testing.T) {
	db := openBank(t, 2, WithSampling(1))
	ctx := context.Background()

	// Skewed traffic: everyone debits account 0.
	for i := 0; i < 400; i++ {
		dst := int64(1 + i%150)
		if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 0, dst, 1); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	rep, err := db.Repartition(ctx)
	if err != nil {
		t.Fatalf("repartition: %v", err)
	}
	if rep.SampledTxns == 0 {
		t.Fatal("no samples consumed")
	}
	if rep.LookupTableSize != rep.HotRecords {
		t.Errorf("lookup table %d entries, hot %d", rep.LookupTableSize, rep.HotRecords)
	}

	// The layout change must not lose data: every account readable, and
	// traffic keeps committing.
	var total int64
	for k := Key(0); k < 200; k++ {
		v, err := db.Get(tAccounts, k)
		if err != nil {
			t.Fatalf("account %d unreadable after repartition: %v", k, err)
		}
		total += decBal(v)
	}
	if total != 200*1000 {
		t.Errorf("total balance after repartition = %d; want %d", total, 200*1000)
	}
	if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 0, 42, 1); err != nil {
		t.Fatalf("post-repartition transfer: %v", err)
	}
}

func TestRepartitionWithoutSampling(t *testing.T) {
	db := openBank(t, 1)
	if _, err := db.Repartition(context.Background()); err == nil {
		t.Fatal("repartition without sampling succeeded")
	}
}

func TestClosedDB(t *testing.T) {
	db := openBank(t, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := db.Execute(context.Background(), "bank.transfer", 0, 1, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("Execute on closed DB = %v; want ErrClosed", err)
	}
	if err := db.Load(tAccounts, 0, encBal(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Load on closed DB = %v; want ErrClosed", err)
	}
	if err := db.MarkHot(tAccounts, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("MarkHot on closed DB = %v; want ErrClosed", err)
	}
}

func TestEngineKinds(t *testing.T) {
	for _, kind := range []EngineKind{Engine2PL, EngineOCC, EngineChiller} {
		t.Run(string(kind), func(t *testing.T) {
			db := openBank(t, 2, WithEngine(kind))
			if _, err := db.ExecuteWithRetry(context.Background(), Retry{},
				"bank.transfer", 10, 160, 5); err != nil {
				t.Fatalf("%s transfer: %v", kind, err)
			}
			src, _ := db.Get(tAccounts, 10)
			if decBal(src) != 995 {
				t.Errorf("%s source balance = %d; want 995", kind, decBal(src))
			}
		})
	}
}

func TestBuilderValidation(t *testing.T) {
	db := openBank(t, 1)

	// Update with no mutator must be rejected at Register.
	bad := NewProc("bad.update")
	bad.Update(tAccounts, Arg(0), nil)
	if err := db.Register(bad); err == nil {
		t.Error("update without mutator registered")
	}

	// Forward dependency must be rejected.
	fwd := NewProc("bad.forward")
	a := fwd.Read(tAccounts, Arg(0))
	later := fwd.Read(tAccounts, Arg(1))
	_ = a
	fwd.ops[0].KeyFrom(later)
	if err := db.Register(fwd); err == nil {
		t.Error("forward pk-dep registered")
	}

	// Duplicate name must be rejected.
	if err := db.Register(transferProc("bank.transfer")); err == nil {
		t.Error("duplicate procedure name registered")
	}
}

// A failed Open must unwind everything it had already built. Node 1's
// log directory is blocked by a regular file, so Open fails after node 0
// is fully assembled — lane executors running, WAL flusher started —
// and none of that may outlive the error.
func TestFailedOpenLeaksNothing(t *testing.T) {
	testutil.CheckLeaks(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "node-1"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(WithPartitions(3), WithLanes(2), WithMVCC(), WithDurability(dir))
	if err == nil {
		db.Close()
		t.Fatal("Open succeeded with a node's log directory blocked by a regular file")
	}
}

// Load is safe for concurrent use: goroutines loading disjoint keys
// leave every key readable at its value, primary and replica alike.
func TestConcurrentLoad(t *testing.T) {
	db, err := Open(WithPartitions(3), WithReplication(2), WithSeed(7),
		WithRangePartitioner(map[Table]Key{tAccounts: 3000}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable(tAccounts, 1024); err != nil {
		t.Fatal(err)
	}
	const loaders, each = 6, 500
	errs := make(chan error, loaders)
	for g := 0; g < loaders; g++ {
		go func() {
			for k := Key(g * each); k < Key((g+1)*each); k++ {
				if err := db.Load(tAccounts, k, encBal(int64(k)+1)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < loaders; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := Key(0); k < loaders*each; k++ {
		v, err := db.Get(tAccounts, k)
		if err != nil || decBal(v) != int64(k)+1 {
			t.Fatalf("key %d: %d, %v; want %d", k, decBal(v), err, int64(k)+1)
		}
	}
	if mm := db.c.VerifyReplicaConsistency(storage.TableID(tAccounts)); mm != 0 {
		t.Fatalf("%d replica mismatches", mm)
	}
}
