package check

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// The serializability checker keeps keys distinct inside a transaction
// (workload.go), so it cannot see what a second op on the same record
// observes. This test can: internal consistency, checked apart from the
// dependency graph. Every case procedure runs under the five ways an op
// can be executed — 2PL, OCC, and Chiller's cold (2PL fallback), outer
// and inner paths — and must mean the same under each: same outcome,
// same read set, same stored values on primaries and replicas
// (docs/ARCHITECTURE.md, "What an op means"). Read-only procedures also
// run as MVCC snapshot reads, the sixth way, and must agree with the
// locking paths.
const semTable storage.TableID = 7

// Records: semK and semK2 exist, semNew does not; semHot is the other
// record every procedure ends with an update of. On two nodes semHot
// lives on partition 1, the rest on partition 0.
const (
	semK   storage.Key = 1
	semK2  storage.Key = 2
	semNew storage.Key = 5
	semHot storage.Key = 25
)

func semKey(k storage.Key) txn.KeyFunc {
	return func(txn.Args, txn.ReadSet) (storage.Key, bool) { return k, true }
}

func semInc(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
	if len(old) != 1 {
		return nil, fmt.Errorf("increment of %v", old)
	}
	return []byte{old[0] + 1}, nil
}

func semSet(v byte) txn.MutateFunc {
	return func([]byte, txn.Args, txn.ReadSet) ([]byte, error) { return []byte{v}, nil }
}

func semWant(v byte) txn.CheckFunc {
	return func(val []byte, _ txn.Args, _ txn.ReadSet) error {
		if len(val) != 1 || val[0] != v {
			return fmt.Errorf("saw %v, want [%d]", val, v)
		}
		return nil
	}
}

type semShape struct {
	name   string
	engine bench.EngineKind
	hot    storage.Key // 0: nothing is hot
	// mvcc runs the procedure declared ReadOnly on an MVCC cluster: the
	// snapshot policy.
	mvcc bool
}

// semOutcome is everything a run must agree on.
type semOutcome struct {
	committed bool
	reason    txn.AbortReason
	reads     string
	stored    string // every record on every copy
}

func (o semOutcome) String() string {
	return fmt.Sprintf("committed=%v reason=%v reads=%s stored=%s", o.committed, o.reason, o.reads, o.stored)
}

func TestOpSemanticsAgree(t *testing.T) {
	upd := func(k storage.Key) txn.OpSpec {
		return txn.OpSpec{Type: txn.OpUpdate, Table: semTable, Key: semKey(k), Mutate: semInc}
	}
	read := func(k storage.Key, check txn.CheckFunc) txn.OpSpec {
		return txn.OpSpec{Type: txn.OpRead, Table: semTable, Key: semKey(k), Check: check}
	}
	ins := func(k storage.Key, v byte) txn.OpSpec {
		return txn.OpSpec{Type: txn.OpInsert, Table: semTable, Key: semKey(k), Mutate: semSet(v)}
	}
	del := func(k storage.Key) txn.OpSpec {
		return txn.OpSpec{Type: txn.OpDelete, Table: semTable, Key: semKey(k)}
	}
	cases := []struct {
		name string
		key  storage.Key // the record the case is about: hot in the inner shape
		ops  []txn.OpSpec
		// want is the key's stored value afterwards (nil: absent).
		want []byte
		// aborts marks the case whose Check fails.
		aborts bool
	}{
		{name: "update;update", key: semK, ops: []txn.OpSpec{upd(semK), upd(semK)}, want: []byte{12}},
		{name: "insert;update", key: semNew, ops: []txn.OpSpec{ins(semNew, 50), upd(semNew)}, want: []byte{51}},
		{name: "insert;read", key: semNew, ops: []txn.OpSpec{ins(semNew, 50), read(semNew, nil)}, want: []byte{50}},
		{name: "update;read+check", key: semK, ops: []txn.OpSpec{upd(semK), read(semK, semWant(11))}, want: []byte{11}},
		{name: "update;read+failing-check", key: semK, ops: []txn.OpSpec{upd(semK), read(semK, semWant(10))}, want: []byte{10}, aborts: true},
		{name: "delete;read", key: semK, ops: []txn.OpSpec{del(semK), read(semK, nil)}, want: nil},
		{name: "delete;insert", key: semK, ops: []txn.OpSpec{del(semK), ins(semK, 60)}, want: []byte{60}},
		{name: "read;update distinct keys", key: semK, ops: []txn.OpSpec{read(semK, nil), upd(semK2)}, want: []byte{10}},
	}
	for _, nodes := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%dnode/%s", nodes, tc.name), func(t *testing.T) {
				shapes := []semShape{
					{name: "2PL", engine: bench.Engine2PL},
					{name: "OCC", engine: bench.EngineOCC},
					{name: "Chiller cold", engine: bench.EngineChiller},
					{name: "Chiller outer", engine: bench.EngineChiller, hot: semHot},
					{name: "Chiller inner", engine: bench.EngineChiller, hot: tc.key},
				}
				var first semOutcome
				for i, sh := range shapes {
					ops := append(append([]txn.OpSpec(nil), tc.ops...), upd(semHot))
					for id := range ops {
						ops[id].ID = id
					}
					proc := &txn.Procedure{Name: "sem", Ops: ops}
					if tc.aborts && sh.name == "Chiller outer" {
						// The one cell that cannot agree, by design: the outer
						// region's writes are deferred past the inner commit,
						// so the value a shadowed outer read sees — and its
						// Check — exist only once the transaction can no
						// longer abort. A failing one is the documented
						// invariant violation (core.runTwoRegion), observable
						// where the coordinator runs on the caller's goroutine.
						if nodes == 1 {
							if _, err := semRun(nodes, nodes, sh, proc); err == nil || !strings.Contains(err.Error(), "after inner commit") {
								t.Errorf("%s: err = %v, want the after-inner-commit panic", sh.name, err)
							}
						}
						continue
					}
					got, err := semRun(nodes, nodes, sh, proc)
					if err != nil {
						t.Fatalf("%s: %v", sh.name, err)
					}
					if got.committed == tc.aborts {
						t.Errorf("%s: %v", sh.name, got)
					}
					if i == 0 {
						first = got
						wantStored := fmt.Sprintf("%d=%v", tc.key, tc.want)
						if !strings.Contains(got.stored, wantStored+" ") {
							t.Errorf("%s: stored %s, want every copy of %s", sh.name, got.stored, wantStored)
						}
						continue
					}
					if got != first {
						t.Errorf("%s disagrees with %s:\n  got  %v\n  want %v", sh.name, shapes[0].name, got, first)
					}
				}
			})
		}
	}

	// Read-only procedures: the snapshot policy must mean what the locking
	// paths mean. Two nodes at replication 1, so node 0 reads semHot with a
	// cold frame and the rest of the records locally.
	readAfter := func(op int) txn.CheckFunc {
		return func(_ []byte, _ txn.Args, reads txn.ReadSet) error {
			if reads[op] == nil {
				return fmt.Errorf("op %d not read yet", op)
			}
			return nil
		}
	}
	// keyFrom resolves a key from op's value, plus d.
	keyFrom := func(op, d int) txn.KeyFunc {
		return func(_ txn.Args, reads txn.ReadSet) (storage.Key, bool) {
			if v, ok := reads[op]; ok && len(v) == 1 {
				return storage.Key(int(v[0]) + d), true
			}
			return 0, false
		}
	}
	missing := read(semNew, nil)
	missing.Conditional = true
	chain := []txn.OpSpec{read(semK, nil), read(0, nil), read(0, nil)}
	chain[1].Key, chain[1].PKDeps = keyFrom(0, int(semHot)-10), []int{0} // semK holds 10
	chain[2].Key, chain[2].PKDeps = keyFrom(1, int(semK2)-30), []int{1}  // semHot holds 30
	// A round stops at the first op whose key does not resolve yet, so
	// the op after it is stepped after it: its Check sees the waiting op's
	// value, as under 2PL.
	waiting := []txn.OpSpec{read(semK, nil), read(0, nil), read(semK2, readAfter(1))}
	waiting[1].Key, waiting[1].PKDeps = keyFrom(0, int(semHot)-10), []int{0}
	roCases := []struct {
		name   string
		ops    []txn.OpSpec
		aborts bool
	}{
		{name: "cold;local+check-on-cold", ops: []txn.OpSpec{read(semHot, nil), read(semK, readAfter(0))}},
		{name: "conditional-missing", ops: []txn.OpSpec{read(semK, nil), missing}, aborts: true},
		{name: "pk-chain-across-nodes", ops: chain},
		{name: "check-after-pk-dep", ops: waiting},
		{name: "failing-check", ops: []txn.OpSpec{read(semK, nil), read(semHot, semWant(99))}, aborts: true},
	}
	roShapes := []semShape{
		{name: "2PL", engine: bench.Engine2PL},
		{name: "OCC", engine: bench.EngineOCC},
		{name: "Chiller", engine: bench.EngineChiller},
		{name: "snapshot under 2PL", engine: bench.Engine2PL, mvcc: true},
		{name: "snapshot under OCC", engine: bench.EngineOCC, mvcc: true},
		{name: "snapshot under Chiller", engine: bench.EngineChiller, mvcc: true},
	}
	for _, tc := range roCases {
		t.Run("readonly/"+tc.name, func(t *testing.T) {
			var first semOutcome
			for i, sh := range roShapes {
				ops := append([]txn.OpSpec(nil), tc.ops...)
				for id := range ops {
					ops[id].ID = id
				}
				got, err := semRun(2, 1, sh, &txn.Procedure{Name: "sem", Ops: ops})
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				if got.committed == tc.aborts {
					t.Errorf("%s: %v", sh.name, got)
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Errorf("%s disagrees with %s:\n  got  %v\n  want %v", sh.name, roShapes[0].name, got, first)
				}
			}
		})
	}
}

// semRun executes proc once on a fresh cluster of the given size and
// replication under the given shape, coordinated by node 0. A panic of
// the coordinator on the calling goroutine is returned as the error.
func semRun(nodes, replication int, sh semShape, proc *txn.Procedure) (out semOutcome, err error) {
	c := bench.NewCluster(bench.ClusterConfig{
		Partitions: nodes, Replication: replication, Latency: time.Microsecond, Lanes: 2, MVCC: sh.mvcc,
	}, cluster.RangePartitioner{N: nodes, MaxKey: map[storage.TableID]storage.Key{semTable: storage.Key(20 * nodes)}})
	defer c.Close()
	c.CreateTable(semTable, 64)
	if sh.hot != 0 {
		// Hot in place: the lookup-table entry keeps the record's default
		// partition, so every shape runs on the same layout.
		rid := storage.RID{Table: semTable, Key: sh.hot}
		c.Dir.SetHot(rid, c.Dir.Partition(rid))
	}
	for k, v := range map[storage.Key]byte{semK: 10, semK2: 20, semHot: 30} {
		if err := c.LoadRecord(semTable, k, []byte{v}); err != nil {
			return out, err
		}
	}
	proc.ReadOnly = sh.mvcc
	if err := c.Registry.Register(proc); err != nil {
		return out, err
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res := c.Engine(sh.engine, 0).Run(context.Background(), &txn.Request{Proc: proc.Name})
	c.Drain()
	c.Settle()

	out.committed, out.reason = res.Committed, res.Reason
	if res.Committed {
		ids := make([]int, 0, len(res.Reads))
		for id := range res.Reads {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			out.reads += fmt.Sprintf("%d=%v ", id, res.Reads[id])
		}
	}
	for _, k := range []storage.Key{semK, semK2, semNew, semHot} {
		pid := c.Dir.Partition(storage.RID{Table: semTable, Key: k})
		for _, node := range append([]transport.NodeID{c.Topo.Primary(pid)}, c.Topo.Replicas(pid)...) {
			v, _, gerr := c.Nodes[node].Store().Table(semTable).Bucket(k).Get(k)
			if gerr != nil {
				v = nil
			}
			out.stored += fmt.Sprintf("%d=%v ", k, v)
		}
	}
	if !c.Quiesced() {
		return out, errors.New("participant state left behind")
	}
	return out, nil
}
