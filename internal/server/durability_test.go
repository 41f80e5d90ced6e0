package server

import (
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

// TestCleanShutdownSnapshotBoundsReplay pins the clean-shutdown contract
// chiller-node relies on: SnapshotAll compacts the log, so a restart
// replays one snapshot and an EMPTY tail — not the node's full
// commit history. The no-snapshot control run shows the tail the
// compaction saves (one record per logged commit), proving the assertion
// has teeth.
func TestCleanShutdownSnapshotBoundsReplay(t *testing.T) {
	const commits = 40
	policy := wal.Policy{NoSync: true}

	commitSome := func(t *testing.T, n *Node) {
		t.Helper()
		for i := 0; i < commits; i++ {
			writes := []WriteOp{{
				Type: txn.OpUpdate, Table: 1, Key: storage.Key(i % 10),
				Value: []byte{byte(i), byte(i >> 8)},
			}}
			if err := applyWrites(n.Store(), 0, writes, false); err != nil {
				t.Fatal(err)
			}
			if err := n.logWrites(uint64(i+1), 0, writes).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Control: no shutdown snapshot. The restart replays every commit.
	ctrl, _ := newTestNode(t)
	l, rec, err := wal.Recover(t.TempDir(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatal("fresh dir recovered state")
	}
	ctrl.SetWAL(l)
	commitSome(t, ctrl)
	if rec, err = l.Replay(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != commits {
		t.Fatalf("control tail = %d records, want %d", len(rec.Tail), commits)
	}
	l.Close()

	// Clean shutdown: SnapshotAll, then restart. Bounded replay — an
	// empty tail, with the state carried entirely by the snapshot.
	n, _ := newTestNode(t)
	dir := t.TempDir()
	l, _, err = wal.Recover(dir, policy)
	if err != nil {
		t.Fatal(err)
	}
	n.SetWAL(l)
	commitSome(t, n)
	if err := n.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Recover(dir, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec.Tail) != 0 {
		t.Fatalf("tail after clean shutdown = %d records, want 0", len(rec.Tail))
	}
	if rec.Snapshot == nil {
		t.Fatal("no snapshot after clean shutdown")
	}
	st := storage.NewStore()
	if _, err := RecoverStore(st, rec); err != nil {
		t.Fatal(err)
	}
	for k := storage.Key(0); k < 10; k++ {
		want, _, err := n.Store().Table(1).Bucket(k).Get(k)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := st.Table(1).Bucket(k).Get(k)
		if err != nil || string(got) != string(want) {
			t.Fatalf("key %d after recovery = %v (%v), want %v", k, got, err, want)
		}
	}
}
