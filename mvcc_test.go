package chiller

import (
	"context"
	"errors"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
)

// A read-only procedure on a WithMVCC deployment executes on the
// snapshot path and observes a transactionally consistent state: two
// keys updated together by writers always read as equal, under
// concurrent write traffic, with zero read aborts.
func TestMVCCSnapshotReadsConsistent(t *testing.T) {
	db, err := Open(
		WithMVCC(),
		WithPartitions(4),
		WithReplication(2),
		WithEngine(EngineChiller),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const tbl = Table(1)
	if err := db.CreateTable(tbl, 64); err != nil {
		t.Fatal(err)
	}
	// Keys 0 and 1 start equal and are always incremented together.
	for k := Key(0); k < 2; k++ {
		if err := db.Load(tbl, k, []byte{0}); err != nil {
			t.Fatal(err)
		}
	}

	bump := func(old []byte, _ Args, _ Reads) ([]byte, error) {
		return []byte{old[0] + 1}, nil
	}
	w := NewProc("pair.bump")
	w.Update(tbl, Arg(0), bump)
	w.Update(tbl, Arg(1), bump)
	if err := db.Register(w); err != nil {
		t.Fatal(err)
	}
	r := NewProc("pair.read").ReadOnly()
	r.Read(tbl, Arg(0))
	r.Read(tbl, Arg(1))
	if err := db.Register(r); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			// Writers may conflict with each other; retry those.
			for {
				_, err := db.Execute(ctx, "pair.bump", 0, 1)
				if err == nil || !Retryable(err) {
					break
				}
			}
		}
	}()
	for i := 0; ; i++ {
		res, err := db.Execute(ctx, "pair.read", 0, 1)
		if err != nil {
			t.Fatalf("read-only txn aborted (attempt %d): %v", i, err)
		}
		a, _ := res.Read(0)
		b, _ := res.Read(1)
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Fatalf("fractured read: key0=%v key1=%v", a, b)
		}
		select {
		case <-done:
			// One more read after the writers quiesce: it must observe
			// the final state once the commit tails drain.
			if a[0] == 200 {
				return
			}
			if i > 100000 {
				t.Fatalf("snapshot never reached final state (stuck at %d)", a[0])
			}
		default:
		}
	}
}

// ReadOnly procedures reject write operations at registration.
func TestReadOnlyProcRejectsWrites(t *testing.T) {
	db, err := Open(WithMVCC())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p := NewProc("bad.ro").ReadOnly()
	p.Update(Table(1), Arg(0), func(old []byte, _ Args, _ Reads) ([]byte, error) { return old, nil })
	if err := db.Register(p); err == nil {
		t.Fatal("write op in ReadOnly procedure accepted")
	}
}

// WithMVCC is simulation-only.
func TestMVCCRejectedOverTCP(t *testing.T) {
	_, err := Open(WithMVCC(), WithTransport(TransportTCP), WithPeers("127.0.0.1:1"))
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// Without WithMVCC a ReadOnly procedure still executes (on the locking
// path) — the declaration is portable across deployments.
func TestReadOnlyWithoutMVCC(t *testing.T) {
	db, err := Open(WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const tbl = Table(1)
	if err := db.CreateTable(tbl, 16); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(tbl, 7, []byte{42}); err != nil {
		t.Fatal(err)
	}
	p := NewProc("plain.read").ReadOnly()
	p.Read(tbl, Arg(0))
	if err := db.Register(p); err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(context.Background(), "plain.read", 7)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Read(0); len(v) != 1 || v[0] != 42 {
		t.Fatalf("read = %v", v)
	}
}

// Snapshot reads survive a durable restart: versions are reconstructed
// from the WAL at their original commit timestamps and the clock
// resumes past the recovered maximum.
func TestMVCCRecoveredSnapshotReads(t *testing.T) {
	dir := t.TempDir()
	open := func() *DB {
		db, err := Open(WithMVCC(), WithPartitions(2), WithDurability(dir))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	setup := func(db *DB) {
		const tbl = Table(1)
		if err := db.CreateTable(tbl, 16); err != nil {
			t.Fatal(err)
		}
		for k := Key(0); k < 4; k++ {
			if err := db.Load(tbl, k, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		w := NewProc("w")
		w.Update(tbl, Arg(0), func(old []byte, _ Args, _ Reads) ([]byte, error) {
			return []byte{old[0] * 2}, nil
		})
		if err := db.Register(w); err != nil {
			t.Fatal(err)
		}
		r := NewProc("r").ReadOnly()
		r.Read(tbl, Arg(0))
		if err := db.Register(r); err != nil {
			t.Fatal(err)
		}
	}

	db := open()
	setup(db)
	ctx := context.Background()
	for k := int64(0); k < 4; k++ {
		if _, err := db.Execute(ctx, "w", k); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = open()
	defer db.Close()
	setup(db)
	for k := int64(0); k < 4; k++ {
		res, err := db.Execute(ctx, "r", k)
		if err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
		if v, _ := res.Read(0); len(v) != 1 || v[0] != 2 {
			t.Fatalf("key %d after recovery = %v, want [2]", k, v)
		}
		// And writes continue on top of the recovered chains.
		if _, err := db.Execute(ctx, "w", k); err != nil {
			t.Fatal(err)
		}
		res, err = db.Execute(ctx, "r", k)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := res.Read(0); v[0] != 4 {
			t.Fatalf("key %d after post-recovery write = %v, want [4]", k, v)
		}
	}
}

// Repartition moves a record with its commit stamp. A new-home copy
// stamped 0 would read as older than every snapshot, so a snapshot from
// before the record's last write would see that write. So each moved
// copy must carry its old stamp, and a snapshot below it must
// stale-abort on the fresh holder rather than read the copy.
func TestRepartitionKeepsStamps(t *testing.T) {
	db := openBank(t, 4, WithMVCC(), WithSampling(1))
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		k := int64(i % 5)
		if _, err := db.ExecuteWithRetry(ctx, Retry{}, "bank.transfer", k, 200+k, 1); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	db.c.Drain()
	stampAt := func(rid storage.RID) (uint64, bool) {
		node := db.c.Nodes()[int(db.topo.Primary(db.dir.Partition(rid)))]
		for _, r := range node.Store().Table(rid.Table).Bucket(rid.Key).SnapshotTS() {
			if r.Key == rid.Key {
				return r.TS, true
			}
		}
		return 0, false
	}
	before := map[storage.RID]uint64{}
	home := map[storage.RID]cluster.PartitionID{}
	for k := 0; k < 5; k++ {
		for _, key := range []storage.Key{storage.Key(k), storage.Key(200 + k)} {
			rid := storage.RID{Table: storage.TableID(tAccounts), Key: key}
			ts, ok := stampAt(rid)
			if !ok || ts == 0 {
				t.Fatalf("record %v before the move: stamp %d (present %v)", rid, ts, ok)
			}
			before[rid], home[rid] = ts, db.dir.Partition(rid)
		}
	}
	if _, err := db.Repartition(ctx); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for rid, ts := range before {
		if db.dir.Partition(rid) == home[rid] {
			continue
		}
		moved++
		if got, _ := stampAt(rid); got != ts {
			t.Errorf("record %v: stamp %d at its new home, %d before the move", rid, got, ts)
		}
		node := db.c.Nodes()[int(db.topo.Primary(db.dir.Partition(rid)))]
		if _, err := node.Store().Table(rid.Table).ReadAt(rid.Key, ts-1); !errors.Is(err, storage.ErrStaleRead) {
			t.Errorf("record %v: a snapshot below its stamp %d read %v at the new home, want a stale read", rid, ts, err)
		}
	}
	if moved == 0 {
		t.Fatal("repartition moved none of the transferred records")
	}
}
