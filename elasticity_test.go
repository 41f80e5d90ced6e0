package chiller

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/storage"
)

// Racing Repartition against live writers must lose no committed
// write: the migration holds the old buckets' exclusive lock words
// while copying, so a concurrent transfer either lands before the copy
// (and is copied) or NO_WAIT-aborts and retries against the new
// layout. A lost debit or credit breaks conservation.
func TestRepartitionRaceLosesNoWrites(t *testing.T) {
	db := openBank(t, 2, WithSampling(1))
	ctx := context.Background()

	// Skewed warm-up so the partitioner has hot records to relocate.
	for i := 0; i < 200; i++ {
		if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 0, int64(1+i%150), 1); err != nil {
			t.Fatalf("warm-up transfer %d: %v", i, err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Everyone keeps hammering the hot account so the race
				// window (writer vs mid-migration record) actually hits.
				// Each writer pays back what it took (0 → dst, then
				// dst → 0), so account 0 stays funded however many
				// transfers a host fits into the passes.
				src, dst := int64(0), int64(1+(g*37+i/2)%199)
				if i%2 == 1 {
					src, dst = dst, src
				}
				if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", src, dst, 1); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	for pass := 0; pass < 5; pass++ {
		_, err := db.Repartition(ctx)
		// No commit landed in the window yet: retry later, as the sentinel
		// says, for up to a second of the writers' traffic.
		for tries := 0; errors.Is(err, ErrNoSamples) && tries < 1000; tries++ {
			time.Sleep(time.Millisecond)
			_, err = db.Repartition(ctx)
		}
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("repartition pass %d: %v", pass, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("writer failed during repartition: %v", err)
	default:
	}

	var total int64
	for k := Key(0); k < 200; k++ {
		v, err := db.Get(tAccounts, k)
		if err != nil {
			t.Fatalf("account %d unreadable after repartition race: %v", k, err)
		}
		total += decBal(v)
	}
	if total != 200*1000 {
		t.Fatalf("conservation violated after racing repartition: total = %d, want %d", total, 200*1000)
	}
}

// The MVCC GC watermark must advance during pure uptime (not only at
// WAL recovery) and collect what it passes: a hot record's chain stays
// near the retention window under a long-running write workload, and a
// record written once and then left alone carries no chain at all.
func TestMVCCChainDepthBounded(t *testing.T) {
	db := openBank(t, 1, WithMVCC())
	bump := NewProc("acct.bump")
	bump.Update(tAccounts, Arg(0), func(old []byte, _ Args, _ Reads) ([]byte, error) {
		return encBal(decBal(old) + 1), nil
	})
	if err := db.Register(bump); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const cold, writes = 1, 6000
	if _, err := db.ExecuteWithRetry(ctx, Retry{}, "acct.bump", cold); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		if _, err := db.ExecuteWithRetry(ctx, Retry{}, "acct.bump", 0); err != nil {
			t.Fatalf("bump %d: %v", i, err)
		}
	}
	// No write follows. Wait, up to a deadline, for the state the bounds
	// describe: the GC loop has raised the watermark to the final stable
	// point less the retention window, and its sweep has pruned the
	// chains it passed.
	st := db.nodeList()[0].Store()
	accounts := st.Table(storage.TableID(tAccounts))
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(gcInterval) {
		if st.Watermark()+gcRetention >= db.c.Clock.Stable() &&
			accounts.ChainDepth(storage.Key(0)) <= 2*gcRetention &&
			accounts.ChainDepth(storage.Key(cold)) == 0 {
			break
		}
	}
	if st.Watermark() == 0 {
		t.Fatal("GC watermark never advanced under pure uptime")
	}
	depth := accounts.ChainDepth(storage.Key(0))
	if depth == 0 {
		t.Fatal("no versions retained — MVCC off?")
	}
	// Retention is gcRetention timestamps; the chain must be near that
	// bound, not near the full write count.
	if depth > 2*gcRetention {
		t.Fatalf("version chain depth %d exceeds retention bound %d (writes: %d)", depth, 2*gcRetention, writes)
	}
	if n := accounts.ChainDepth(storage.Key(cold)); n != 0 {
		t.Fatalf("a record written once, %d commits before the watermark: chain depth %d, want 0", writes, n)
	}
}

// A node added under live load takes a partition through the
// incremental handoff and serves it, with every in-flight writer
// retrying through the fence — no lost keys, no broken conservation,
// no stall.
func TestAddNodeHandoffUnderLoad(t *testing.T) {
	db := openBank(t, 3)
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var commits atomic.Int64
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mix local and cross-partition transfers, always touching
				// the moving partition (keys 0..99).
				src := int64((g*31 + i) % 100)
				dst := int64(100 + (g*53+i*7)%200)
				if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", src, dst, 1); err != nil {
					errs <- err
					return
				}
				commits.Add(1)
			}
		}(g)
	}

	time.Sleep(2 * time.Millisecond)
	id, err := db.AddNode()
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("AddNode: %v", err)
	}
	if err := db.MovePartition(0, id); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("MovePartition: %v", err)
	}
	// Load keeps running against the new primary.
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("writer failed across the handoff: %v", err)
	default:
	}
	if commits.Load() == 0 {
		t.Fatal("no transaction committed during the membership change")
	}

	if got := int(db.topo.Primary(0)); got != id {
		t.Fatalf("partition 0 primary = node %d, want handed-off node %d", got, id)
	}
	// Lost-key + conservation oracle: every account readable at its
	// current primary, total balance unchanged.
	var total int64
	for k := Key(0); k < 300; k++ {
		v, err := db.Get(tAccounts, k)
		if err != nil {
			t.Fatalf("account %d lost in handoff: %v", k, err)
		}
		total += decBal(v)
	}
	if total != 300*1000 {
		t.Fatalf("conservation violated across handoff: total = %d, want %d", total, 300*1000)
	}
}

// RemoveNode hands every partition the node primaries back to a
// surviving replica and drops the node from the layout; data stays
// served.
func TestRemoveNodeHandsPartitionsBack(t *testing.T) {
	db := openBank(t, 2)
	ctx := context.Background()

	id, err := db.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := db.MovePartition(1, id); err != nil {
		t.Fatalf("MovePartition: %v", err)
	}
	if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 150, 10, 75); err != nil {
		t.Fatalf("transfer on grown cluster: %v", err)
	}

	if err := db.RemoveNode(id); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if got := int(db.topo.Primary(1)); got == id {
		t.Fatalf("removed node %d still primaries partition 1", id)
	}
	for _, p := range db.topo.Snapshot() {
		if int(p.Primary) == id {
			t.Fatalf("removed node %d still primaries a partition: %+v", id, p)
		}
		for _, r := range p.Replicas {
			if int(r) == id {
				t.Fatalf("removed node %d still replicates a partition: %+v", id, p)
			}
		}
	}
	// The pre-removal write survived the hand-back.
	if v, err := db.Get(tAccounts, 150); err != nil || decBal(v) != 925 {
		t.Fatalf("balance 150 after node removal = %d (%v), want 925", decBal(v), err)
	}
	if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", 150, 10, 25); err != nil {
		t.Fatalf("transfer after node removal: %v", err)
	}
}

// Commits against a handed-off partition must be recoverable on its
// new owner: the new primary WAL-logs every apply (handoff backfill
// included) and its streams make the surviving replica durable too.
// After a hard crash, a founders-only restart recovers the range on
// the replica, and re-adding the node recovers the new owner's own
// log. (The demoted primary is trimmed from the replica set by the
// hand-off, so its store legitimately stays at pre-handoff state —
// the restart's founding-layout topology is stale by design until the
// operator re-runs the handoff.)
func TestDurabilityHandoffRecovery(t *testing.T) {
	dir := t.TempDir()
	db := openDurableBank(t, dir)
	ctx := context.Background()

	id, err := db.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if err := db.MovePartition(0, id); err != nil {
		t.Fatalf("MovePartition: %v", err)
	}
	// The surviving replica of the moved partition (the demoted primary
	// got trimmed when the new one joined the set).
	reps := db.topo.Replicas(0)
	if len(reps) == 0 {
		t.Fatal("moved partition has no replica")
	}
	replica := int(reps[0])
	// Commits landing on the handed-off partition's new primary.
	if _, err := db.Execute(ctx, "bank.transfer", 10, 20, 400); err != nil {
		t.Fatalf("transfer after handoff: %v", err)
	}
	if _, err := db.Execute(ctx, "bank.transfer", 30, 250, 100); err != nil {
		t.Fatalf("cross-partition transfer after handoff: %v", err)
	}

	// Process death: abandon the handle without Close.
	db = nil

	// Restart with the founding member count. The unaffected partition
	// recovered normally; the handed-off range recovered on the
	// surviving replica (its stream applies were flushed before the
	// commits acked).
	db2 := openDurableBank(t, dir)
	if v, err := db2.Get(tAccounts, 250); err != nil || decBal(v) != 1100 {
		t.Fatalf("recovered balance 250 = %d (%v), want 1100", decBal(v), err)
	}
	rtbl := db2.nodeList()[replica].Store().Table(storage.TableID(tAccounts))
	if rtbl == nil {
		t.Fatalf("replica node %d recovered no account table", replica)
	}
	if v, _, err := rtbl.Bucket(storage.Key(10)).Get(storage.Key(10)); err != nil || decBal(v) != 600 {
		t.Fatalf("replica-recovered balance 10 = %d (%v), want 600", decBal(v), err)
	}

	// Re-adding the node recovers the new owner's own log: the
	// handed-off range is back in the rejoined node's store before any
	// new handoff runs.
	id2, err := db2.AddNode()
	if err != nil {
		t.Fatalf("re-AddNode: %v", err)
	}
	if id2 != id {
		t.Fatalf("rejoined node id = %d, want %d", id2, id)
	}
	tbl := db2.nodeList()[id2].Store().Table(storage.TableID(tAccounts))
	if tbl == nil {
		t.Fatal("rejoined node recovered no account table")
	}
	for _, c := range []struct {
		key  Key
		want int64
	}{{10, 600}, {20, 1400}, {30, 900}} {
		if v, _, err := tbl.Bucket(storage.Key(c.key)).Get(storage.Key(c.key)); err != nil || decBal(v) != c.want {
			t.Fatalf("rejoined node's recovered balance %d = %d (%v), want %d", c.key, decBal(v), err, c.want)
		}
	}
}
