package server

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// frameCase is one participant frame at node 1, the primary of
// partition 1, and what it must come to. prep readies node 1 before the
// wave and returns the
// versions a read or validate frame carries; keys are records node 1 is
// primary for, missing a key it would be but does not store.
type frameCase struct {
	name   string
	reason txn.AbortReason // a lock-request frame's, as both runs must report it
	err    bool            // the frame fails at node 1
	prep   func(t *testing.T, n *Node, keys []storage.Key, missing storage.Key) []uint64
	post   func(w *Wave, keys []storage.Key, missing storage.Key, versions []uint64) int
}

// frameOutcome is what a frame did, as its coordinator and node 1 see
// it afterwards.
type frameOutcome struct {
	OK       bool
	Reason   txn.AbortReason
	Reads    map[int]string
	Versions []uint64
	Streamed int
	Err      string
	State    []string // node 1's locks and records
	Replica  []string // the replica's records, once the replicas acked
}

// records renders n's locks and records of keys, and its participant
// state count.
func records(n *Node, keys []storage.Key, locks bool) []string {
	tbl := n.Store().Table(1)
	out := []string{fmt.Sprintf("active=%d", n.ActiveTxns())}
	if !locks {
		out = out[:0]
	}
	for _, k := range keys {
		b := tbl.Bucket(k)
		v, ver, err := b.Get(k)
		s := fmt.Sprintf("key %d: %x v%d %v", k, v, ver, err)
		if locks {
			s += fmt.Sprintf(" x=%v s=%d", b.Lock.HeldExclusive(), b.Lock.SharedCount())
		}
		out = append(out, s)
	}
	return out
}

// missingKey returns a key partition 1 owns that no node stores.
func missingKey(t *testing.T, n *Node) storage.Key {
	t.Helper()
	for k := storage.Key(80); k < 200; k++ {
		if n.Directory().Partition(storage.RID{Table: 1, Key: k}) == 1 {
			return k
		}
	}
	t.Fatal("no missing key routes to partition 1")
	return 0
}

func sread(op int, k storage.Key) LockEntry {
	return LockEntry{OpID: op, Table: 1, Key: k, Mode: storage.LockShared, Read: true, MustExist: true}
}

// lockFor takes txnID's exclusive locks on keys at n, as a phase 1 would.
func lockFor(t *testing.T, n *Node, txnID uint64, keys ...storage.Key) {
	t.Helper()
	entries := make([]LockEntry, len(keys))
	for i, k := range keys {
		entries[i] = xlock(i, k)
	}
	if r := n.LockReadLocal(txnID, entries); !r.OK {
		t.Fatalf("lock %v for txn %d: %v", keys, txnID, r.Reason)
	}
}

func versionsOf(n *Node, keys ...storage.Key) []uint64 {
	vs := make([]uint64, len(keys))
	for i, k := range keys {
		_, vs[i], _ = n.Store().Table(1).Bucket(k).Get(k)
	}
	return vs
}

var errRefused = errors.New("refused")

// frameCases covers every participant verb, and the refusals a
// procedure-level test cannot isolate.
var frameCases = []frameCase{
	{name: "lock-read", post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		return w.LockRead(1, 7, []LockEntry{xlock(0, k[0]), sread(1, k[1])}, nil, new(storage.Buf))
	}},
	{name: "lock-read/no-wait-conflict", reason: txn.AbortLockConflict, prep: func(t *testing.T, n *Node, k []storage.Key, _ storage.Key) []uint64 {
		lockFor(t, n, 99, k[1])
		return nil
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		return w.LockRead(1, 7, []LockEntry{sread(0, k[0]), xlock(1, k[1])}, nil, new(storage.Buf))
	}},
	{name: "lock-read/must-exist-missing", reason: txn.AbortNotFound, post: func(w *Wave, k []storage.Key, m storage.Key, _ []uint64) int {
		return w.LockRead(1, 7, []LockEntry{sread(0, k[0]), sread(1, m)}, nil, new(storage.Buf))
	}},
	{name: "read", post: func(w *Wave, k []storage.Key, m storage.Key, _ []uint64) int {
		insert := LockEntry{OpID: 2, Table: 1, Key: m} // an insert's: versioned, not read
		return w.Read(1, []LockEntry{sread(0, k[0]), sread(1, k[1]), insert}, nil, new(storage.Buf), nil)
	}},
	{name: "read/must-exist-missing", reason: txn.AbortNotFound, post: func(w *Wave, k []storage.Key, m storage.Key, _ []uint64) int {
		return w.Read(1, []LockEntry{sread(0, k[0]), sread(1, m)}, nil, new(storage.Buf), nil)
	}},
	{name: "validate", prep: func(t *testing.T, n *Node, k []storage.Key, _ storage.Key) []uint64 {
		lockFor(t, n, 7, k[0])
		return versionsOf(n, k[0], k[1])
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, vs []uint64) int {
		return w.Validate(1, 7, []LockEntry{sread(0, k[0]), sread(1, k[1])}, vs)
	}},
	{name: "validate/moved-version", reason: txn.AbortValidation, prep: func(t *testing.T, n *Node, k []storage.Key, _ storage.Key) []uint64 {
		lockFor(t, n, 7, k[0])
		vs := versionsOf(n, k[0], k[1])
		lockFor(t, n, 98, k[1])
		if err := n.CommitLocal(98, 0, update(k[1], 0x5A)); err != nil {
			t.Fatal(err)
		}
		return vs
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, vs []uint64) int {
		return w.Validate(1, 7, []LockEntry{sread(0, k[0]), sread(1, k[1])}, vs)
	}},
	{name: "snapshot-read", prep: func(t *testing.T, n *Node, _ []storage.Key, _ storage.Key) []uint64 {
		n.Store().EnableMVCC()
		return nil
	}, post: func(w *Wave, k []storage.Key, m storage.Key, _ []uint64) int {
		maybe := LockEntry{OpID: 2, Table: 1, Key: m, Read: true} // absent, and allowed to be
		return w.SnapshotRead(1, 100, []LockEntry{sread(0, k[0]), sread(1, k[1]), maybe}, nil, new(storage.Buf))
	}},
	{name: "snapshot-read/stale", reason: txn.AbortStaleRead, prep: func(t *testing.T, n *Node, _ []storage.Key, _ storage.Key) []uint64 {
		n.Store().EnableMVCC()
		n.Store().SetWatermark(10)
		return nil
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		return w.SnapshotRead(1, 5, []LockEntry{sread(0, k[0])}, nil, new(storage.Buf))
	}},
	{name: "commit", prep: func(t *testing.T, n *Node, k []storage.Key, _ storage.Key) []uint64 {
		lockFor(t, n, 7, k[0], k[1])
		return nil
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		return w.Commit(1, 7, 0, update(k[0], 0xAA))
	}},
	{name: "commit/refused", err: true, prep: func(t *testing.T, n *Node, k []storage.Key, _ storage.Key) []uint64 {
		lockFor(t, n, 7, k[0])
		n.FaultInjector = func(string, uint64) error { return errRefused }
		return nil
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		return w.Commit(1, 7, 0, update(k[0], 0xAA))
	}},
	{name: "abort", prep: func(t *testing.T, n *Node, k []storage.Key, _ storage.Key) []uint64 {
		lockFor(t, n, 7, k[0], k[1])
		return nil
	}, post: func(w *Wave, _ []storage.Key, _ storage.Key, _ []uint64) int {
		return w.Abort(1, 7)
	}},
	{name: "replicate", post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		w.ReplicateAll(0, []transport.NodeID{1}, map[cluster.PartitionID][]WriteOp{1: update(k[0], 0xB1)})
		return len(w.frames) - 1
	}},
	{name: "replicate/refused", err: true, prep: func(t *testing.T, n *Node, _ []storage.Key, _ storage.Key) []uint64 {
		n.FaultInjector = func(string, uint64) error { return errRefused }
		return nil
	}, post: func(w *Wave, k []storage.Key, _ storage.Key, _ []uint64) int {
		w.ReplicateAll(0, []transport.NodeID{1}, map[cluster.PartitionID][]WriteOp{1: update(k[0], 0xB1)})
		return len(w.frames) - 1
	}},
}

// One participant dispatch: a frame served on the coordinator's own node
// (Wave.Wait calls Node.serve) means what the same frame means decoded
// off a doorbell at a remote node. Each case runs on two fresh clusters
// holding the same records, posted once by node 1's own wave and once by
// node 0's, and both runs must agree on the frame's response, error and
// send count and on node 1's locks and records afterwards — on both
// fabrics.
func TestFrameMeansTheSameLocalOrRemote(t *testing.T) {
	for _, fabric := range []string{"simfab", "tcpnet"} {
		t.Run(fabric, func(t *testing.T) {
			testutil.CheckLeaks(t)
			for _, c := range frameCases {
				t.Run(c.name, func(t *testing.T) {
					local := serveFrame(t, fabric, c, 1)
					remote := serveFrame(t, fabric, c, 0)
					if local.Reason != c.reason || (local.Err != "") != c.err {
						t.Fatalf("local frame: reason %v, error %q; want %v, error %v", local.Reason, local.Err, c.reason, c.err)
					}
					if !reflect.DeepEqual(local, remote) {
						t.Fatalf("local and remote frames disagree:\nlocal  %+v\nremote %+v", local, remote)
					}
				})
			}

			// A verb outside the table fails its frame at the destination
			// (it cannot be posted locally) and changes nothing there.
			nodes, _ := waveCluster(t, fabric, 2)
			keys := distinctKeys(t, nodes[1], 2)
			before := records(nodes[1], keys, true)
			d := nodes[0].NewDoorbell(1)
			bad := d.Post("zz", EncodeAbort(7))
			pd := d.Ring()
			results, err := pd.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if ferr := pd.Err(results[bad]); ferr == nil || !strings.Contains(ferr.Error(), "cannot ride a doorbell") {
				t.Fatalf("unknown verb: %v, want a refused frame", ferr)
			}
			pd.Release()
			if after := records(nodes[1], keys, true); !reflect.DeepEqual(before, after) {
				t.Fatalf("an unknown verb changed node 1: %v, then %v", before, after)
			}
		})
	}
}

// serveFrame runs c on a fresh cluster with node coord's wave posting
// to node 1, and reports the outcome.
func serveFrame(t *testing.T, fabric string, c frameCase, coord int) frameOutcome {
	t.Helper()
	nodes, _ := waveCluster(t, fabric, 2)
	n := nodes[1]
	keys, missing := distinctKeys(t, n, 2), missingKey(t, n)
	var versions []uint64
	if c.prep != nil {
		versions = c.prep(t, n, keys, missing)
	}
	w := nodes[coord].NewWave()
	defer w.Release()
	f := c.post(w, keys, missing, versions)
	w.Wait()
	var out frameOutcome
	if err := w.Err(f); err != nil {
		out.Err = err.Error()
	}
	if !verbs[w.frames[f].verb].tail {
		resp, err := w.LockResponse(f)
		if err != nil {
			t.Fatal(err)
		}
		out.OK, out.Reason, out.Versions = resp.OK, resp.Reason, resp.Versions
		for op, v := range resp.Reads { // the wire tells no empty set from none
			if out.Reads == nil {
				out.Reads = map[int]string{}
			}
			out.Reads[op] = fmt.Sprintf("%x", v)
			if v == nil {
				out.Reads[op] = "absent"
			}
		}
	}
	if w.ack != nil {
		out.Streamed = w.streamed
		if err := w.JoinReplicas(); err != nil {
			t.Fatal(err)
		}
		replica := nodes[n.Directory().Topology().Replicas(1)[0]]
		out.Replica = records(replica, keys, false)
	}
	n.FaultInjector = nil
	out.State = records(n, append(keys, missing), true)
	return out
}
