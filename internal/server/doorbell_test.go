package server

import (
	"strings"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
)

// newTestPair wires two nodes on one fabric: node 0 is the sender
// (coordinator), node 1 the doorbell destination, with keys 0..19 loaded
// into table 1 on node 1.
func newTestPair(t *testing.T) (sender, dest *Node) {
	t.Helper()
	net := simfab.New(simfab.Config{Latency: 2 * time.Microsecond})
	topo := cluster.NewTopology(2, 1)
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 2})
	mk := func(id simfab.NodeID, part cluster.PartitionID) *Node {
		st := storage.NewStore()
		tbl := st.CreateTable(1, 64)
		for k := storage.Key(0); k < 40; k++ {
			if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		return New(net.Endpoint(id), st, txn.NewRegistry(), dir, part)
	}
	sender, dest = mk(0, 0), mk(1, 1)
	t.Cleanup(func() {
		net.Close()
		sender.Close()
		dest.Close()
	})
	return sender, dest
}

// distinctKeys returns n keys from table 1 that node n primaries (lock
// acquisition now rejects records routed elsewhere with AbortMoved) and
// whose buckets are pairwise distinct, so per-key lock assertions cannot
// alias through the bucket hash.
func distinctKeys(t *testing.T, n *Node, count int) []storage.Key {
	t.Helper()
	tbl := n.Store().Table(1)
	dir := n.Directory()
	var keys []storage.Key
	seen := map[*storage.Bucket]bool{}
	for k := storage.Key(0); k < 40 && len(keys) < count; k++ {
		pid := dir.Partition(storage.RID{Table: 1, Key: k})
		if dir.Topology().Primary(pid) != n.ID() {
			continue
		}
		b := tbl.Bucket(k)
		if seen[b] {
			continue
		}
		seen[b] = true
		keys = append(keys, k)
	}
	if len(keys) < count {
		t.Fatalf("only %d distinct owned buckets among 40 keys", len(keys))
	}
	return keys
}

// A doorbell whose middle frame hits a NO_WAIT conflict must roll back
// exactly that frame's locks: earlier and later frames keep theirs, and
// the pre-existing holder is untouched — LockReadLocal's all-or-nothing
// rollback applies per frame.
func TestDoorbellMiddleFrameAbortReleasesOnlyItsLocks(t *testing.T) {
	sender, dest := newTestPair(t)
	keys := distinctKeys(t, dest, 4)
	tbl := dest.Store().Table(1)

	// Another transaction holds keys[1] exclusively.
	if r := dest.LockReadLocal(99, []LockEntry{
		{OpID: 0, Table: 1, Key: keys[1], Mode: storage.LockExclusive},
	}); !r.OK {
		t.Fatalf("pre-lock failed: %v", r.Reason)
	}

	d := sender.NewDoorbell(dest.ID())
	f0 := d.PostLockRead(1, []LockEntry{
		{OpID: 0, Table: 1, Key: keys[0], Mode: storage.LockExclusive},
	})
	f1 := d.PostLockRead(1, []LockEntry{
		{OpID: 1, Table: 1, Key: keys[2], Mode: storage.LockShared, Read: true, MustExist: true},
		{OpID: 2, Table: 1, Key: keys[1], Mode: storage.LockExclusive}, // conflicts
	})
	f2 := d.PostLockRead(1, []LockEntry{
		{OpID: 3, Table: 1, Key: keys[3], Mode: storage.LockShared, Read: true, MustExist: true},
	})
	results, err := d.Ring().Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	r0, err := DecodeLockResponse(results[f0].Payload)
	if err != nil || !r0.OK {
		t.Fatalf("frame 0: %v %+v", err, r0)
	}
	r1, err := DecodeLockResponse(results[f1].Payload)
	if err != nil || r1.OK || r1.Reason != txn.AbortLockConflict {
		t.Fatalf("frame 1: %v %+v", err, r1)
	}
	r2, err := DecodeLockResponse(results[f2].Payload)
	if err != nil || !r2.OK {
		t.Fatalf("frame 2: %v %+v", err, r2)
	}
	if got := r2.Reads[3]; len(got) != 1 || got[0] != byte(keys[3]) {
		t.Fatalf("frame 2 read = %v", got)
	}

	// Exactly the conflicting frame's locks are gone: keys[0] and
	// keys[3] held by txn 1, keys[2] (the failed frame's first entry)
	// released, keys[1] still held only by txn 99.
	if !tbl.Bucket(keys[0]).Lock.HeldExclusive() {
		t.Fatal("frame 0's lock lost")
	}
	if tbl.Bucket(keys[2]).Lock.Held() {
		t.Fatal("aborted frame leaked its shared lock")
	}
	if tbl.Bucket(keys[3]).Lock.SharedCount() != 1 {
		t.Fatal("frame 2's lock lost")
	}
	if !tbl.Bucket(keys[1]).Lock.HeldExclusive() {
		t.Fatal("holder's lock disturbed")
	}

	// The coordinator's abort releases the surviving frames' locks.
	sender.AbortAt(dest.ID(), 1)
	if tbl.Bucket(keys[0]).Lock.Held() || tbl.Bucket(keys[3]).Lock.Held() {
		t.Fatal("abort did not release doorbell-acquired locks")
	}
	if dest.ActiveTxns() != 1 { // txn 99 remains
		t.Fatalf("ActiveTxns = %d, want 1", dest.ActiveTxns())
	}
}

// A doorbell commit applies its writes and releases the locks it
// covers. A replication-stream frame in the same ring is rejected:
// applying writes outside the per-link FIFO's stream order is not a
// doorbell verb, and its sibling still commits.
func TestDoorbellCommitAppliesAndRejectsReplApply(t *testing.T) {
	sender, dest := newTestPair(t)
	keys := distinctKeys(t, dest, 2)
	tbl := dest.Store().Table(1)

	if r := dest.LockReadLocal(7, []LockEntry{
		{OpID: 0, Table: 1, Key: keys[0], Mode: storage.LockExclusive},
	}); !r.OK {
		t.Fatalf("lock failed: %v", r.Reason)
	}
	before, _, _ := tbl.Bucket(keys[1]).Get(keys[1])

	d := sender.NewDoorbell(dest.ID())
	commit := d.Post(VerbCommit, EncodeWrites(7, 0, []WriteOp{{Table: 1, Key: keys[0], Type: txn.OpUpdate, Value: []byte{0xAA}}}))
	repl := d.Post(VerbInnerRepl, EncodeInnerRepl(8, 0, sender.ID(), []WriteOp{{Table: 1, Key: keys[1], Type: txn.OpUpdate, Value: []byte{0xBB}}}))
	results, err := d.Ring().Wait()
	if err != nil {
		t.Fatal(err)
	}
	if results[commit].Err != "" {
		t.Fatalf("commit frame: %s", results[commit].Err)
	}
	if results[repl].Err == "" {
		t.Fatal("replica-apply frame accepted on the doorbell path")
	}
	if v, _, _ := tbl.Bucket(keys[0]).Get(keys[0]); len(v) != 1 || v[0] != 0xAA {
		t.Fatalf("commit write not applied: %v", v)
	}
	if tbl.Bucket(keys[0]).Lock.Held() {
		t.Fatal("commit did not release the lock")
	}
	if v, _, _ := tbl.Bucket(keys[1]).Get(keys[1]); string(v) != string(before) {
		t.Fatalf("rejected replica apply changed the record: %v", v)
	}
	if dest.ActiveTxns() != 0 {
		t.Fatalf("ActiveTxns = %d", dest.ActiveTxns())
	}
}

// Verbs that need the destination's CPU or FIFO ordering are rejected
// per frame without disturbing their batch siblings.
func TestDoorbellRejectsNonBatchableVerb(t *testing.T) {
	sender, dest := newTestPair(t)
	keys := distinctKeys(t, dest, 1)

	d := sender.NewDoorbell(dest.ID())
	bad := d.Post(VerbTxnRoute, []byte{1, 2, 3})
	good := d.PostLockRead(5, []LockEntry{
		{OpID: 0, Table: 1, Key: keys[0], Mode: storage.LockShared, Read: true, MustExist: true},
	})
	pd := d.Ring()
	results, err := pd.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if results[bad].Err == "" {
		t.Fatal("non-batchable verb accepted")
	}
	if ferr := pd.Err(results[bad]); ferr == nil || !strings.Contains(ferr.Error(), "node 1") {
		t.Fatalf("frame error not attributed to node: %v", ferr)
	}
	if r, err := DecodeLockResponse(results[good].Payload); err != nil || !r.OK {
		t.Fatalf("sibling frame: %v %+v", err, r)
	}
	sender.AbortAt(dest.ID(), 5)
}

// A doorbell against an unknown node fails as a unit, attributed to the
// target.
func TestDoorbellTransportErrorNamesNode(t *testing.T) {
	sender, _ := newTestPair(t)
	d := sender.NewDoorbell(42)
	d.Post(VerbCommit, EncodeWrites(1, 0, nil))
	if _, err := d.Ring().Wait(); err == nil || !strings.Contains(err.Error(), "node 42") {
		t.Fatalf("err = %v", err)
	}
}

// The per-verb metrics see the one-frame conveniences (LockRead,
// AbortAt) and hand-built doorbells alike, under the same kind labels:
// both ride the same ring.
func TestVerbMetricsSeeBothTransports(t *testing.T) {
	sender, dest := newTestPair(t)
	keys := distinctKeys(t, dest, 2)

	if _, err := sender.LockRead(dest.ID(), 11, []LockEntry{
		{OpID: 0, Table: 1, Key: keys[0], Mode: storage.LockShared, Read: true, MustExist: true},
	}); err != nil {
		t.Fatal(err)
	}
	d := sender.NewDoorbell(dest.ID())
	d.PostLockRead(11, []LockEntry{
		{OpID: 1, Table: 1, Key: keys[1], Mode: storage.LockShared, Read: true, MustExist: true},
	})
	if _, err := d.Ring().Wait(); err != nil {
		t.Fatal(err)
	}
	sender.AbortAt(dest.ID(), 11)

	snap := sender.VerbMetrics().Snapshot()
	if snap[KindLockRead].Count != 2 {
		t.Fatalf("lock-read count = %d, want 2 (one LockRead + one posted frame)", snap[KindLockRead].Count)
	}
	if snap[KindDoorbell].Count != 3 {
		t.Fatalf("doorbell count = %d, want 3 (LockRead, the posted ring, AbortAt)", snap[KindDoorbell].Count)
	}
	if snap[KindAbort].Count != 1 {
		t.Fatalf("abort count = %d, want 1", snap[KindAbort].Count)
	}
	if snap[KindLockRead].Hist.Percentile(0.5) <= 0 {
		t.Fatal("lock-read p50 not recorded")
	}
	sender.VerbMetrics().Reset()
	if len(sender.VerbMetrics().Snapshot()) != 0 {
		t.Fatal("reset did not clear metrics")
	}
}
