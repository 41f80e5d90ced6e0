package server

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
)

// Keys 0..11 are stored, 12..15 are not; four buckets make every bucket
// hold records of several keys, and of both partitions.
const (
	modelKeys    = 16
	modelStored  = 12
	modelBuckets = 4
)

// newModelNode is one node primarying two hash partitions of a table
// whose buckets collide by construction.
func newModelNode(t *testing.T) *Node { return newModelNodeAt(t, 0) }

// newModelNodeAt is newModelNode as node id, on a fabric of its own.
func newModelNodeAt(t *testing.T, id transport.NodeID) *Node {
	t.Helper()
	net := simfab.New(simfab.Config{})
	t.Cleanup(net.Close)
	topo := cluster.NewTopology(2, 1)
	topo.Install([]cluster.PartitionInfo{{ID: 0, Primary: id}, {ID: 1, Primary: id}})
	dir := cluster.NewDirectory(topo, cluster.HashPartitioner{N: 2})
	st := storage.NewStore()
	tbl := st.CreateTable(1, modelBuckets)
	for k := storage.Key(0); k < modelStored; k++ {
		if err := tbl.Bucket(k).Insert(k, []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	n := New(net.Endpoint(id), st, txn.NewRegistry(), dir, 0)
	t.Cleanup(n.Close)
	return n
}

// lockModel is what the lock steps owe a node: the lock words, and each
// transaction's state — the buckets it holds, in which mode, and the
// partitions it pins.
type lockModel struct {
	shared map[*storage.Bucket]int
	excl   map[*storage.Bucket]bool
	states map[uint64]*modelState
}

type modelState struct {
	locks map[*storage.Bucket]storage.LockMode
	pins  map[cluster.PartitionID]bool
}

func newLockModel() *lockModel {
	return &lockModel{
		shared: map[*storage.Bucket]int{},
		excl:   map[*storage.Bucket]bool{},
		states: map[uint64]*modelState{},
	}
}

func (m *lockModel) state(id uint64) *modelState {
	s := m.states[id]
	if s == nil {
		s = &modelState{locks: map[*storage.Bucket]storage.LockMode{}, pins: map[cluster.PartitionID]bool{}}
		m.states[id] = s
	}
	return s
}

// lock is one LockRead: pin, then lock or dedupe or upgrade, then the
// existence check. taken collects the buckets the step newly locked.
func (m *lockModel) lock(s *modelState, b *storage.Bucket, e LockEntry, pid cluster.PartitionID, taken *[]*storage.Bucket) txn.AbortReason {
	s.pins[pid] = true
	switch mode, held := s.locks[b]; {
	case !held:
		if m.excl[b] || e.Mode == storage.LockExclusive && m.shared[b] > 0 {
			return txn.AbortLockConflict
		}
		if e.Mode == storage.LockExclusive {
			m.excl[b] = true
		} else {
			m.shared[b]++
		}
		s.locks[b] = e.Mode
		*taken = append(*taken, b)
	case mode < e.Mode:
		if m.shared[b] != 1 {
			return txn.AbortLockConflict
		}
		m.shared[b], m.excl[b] = 0, true
		s.locks[b] = storage.LockExclusive
	}
	if e.MustExist && e.Key >= modelStored {
		return txn.AbortNotFound
	}
	return txn.AbortNone
}

func (m *lockModel) unlock(s *modelState, b *storage.Bucket) {
	if s.locks[b] == storage.LockExclusive {
		m.excl[b] = false
	} else {
		m.shared[b]--
	}
	delete(s.locks, b)
}

// end releases what a step took and retires a state left empty.
func (m *lockModel) end(id uint64, taken []*storage.Bucket) {
	s := m.states[id]
	for _, b := range taken {
		m.unlock(s, b)
	}
	if len(s.locks) == 0 {
		delete(m.states, id)
	}
}

// releaseAll is a commit's or an abort's effect on the locks.
func (m *lockModel) releaseAll(id uint64) {
	if s := m.states[id]; s != nil {
		for b := range s.locks {
			m.unlock(s, b)
		}
		delete(m.states, id)
	}
}

// verify compares the node with the model: every lock word, the number
// of states and every partition's pins.
func (m *lockModel) verify(n *Node, buckets []*storage.Bucket) error {
	for i, b := range buckets {
		if got, want := b.Lock.SharedCount(), m.shared[b]; got != want {
			return fmt.Errorf("bucket %d: %d shared holders, model %d", i, got, want)
		}
		if got, want := b.Lock.HeldExclusive(), m.excl[b]; got != want {
			return fmt.Errorf("bucket %d: exclusive %v, model %v", i, got, want)
		}
	}
	if got, want := n.ActiveTxns(), len(m.states); got != want {
		return fmt.Errorf("%d transactions hold state, model %d", got, want)
	}
	for pid := cluster.PartitionID(0); pid < 2; pid++ {
		want := 0
		for _, s := range m.states {
			if s.pins[pid] {
				want++
			}
		}
		n.stMu.Lock()
		got := n.partPins[pid]
		n.stMu.Unlock()
		if got != want {
			return fmt.Errorf("partition %d: %d pins, model %d", pid, got, want)
		}
	}
	return nil
}

func randomEntries(rng *rand.Rand) []LockEntry {
	entries := make([]LockEntry, 1+rng.Intn(4))
	for i := range entries {
		mode := storage.LockShared
		if rng.Intn(2) == 0 {
			mode = storage.LockExclusive
		}
		entries[i] = LockEntry{
			OpID:      i,
			Table:     1,
			Key:       storage.Key(rng.Intn(modelKeys)),
			Mode:      mode,
			Read:      true,
			MustExist: rng.Intn(5) > 0,
		}
	}
	return entries
}

// checkReads holds a successful step's reads to the table's contents.
func checkReads(entries []LockEntry, reads txn.ReadSet) error {
	for _, e := range entries {
		got := reads[e.OpID]
		if e.Key < modelStored && (len(got) != 1 || got[0] != byte(e.Key)) {
			return fmt.Errorf("op %d read key %d as %v", e.OpID, e.Key, got)
		}
		if e.Key >= modelStored && got != nil {
			return fmt.Errorf("op %d read absent key %d as %v", e.OpID, e.Key, got)
		}
	}
	return nil
}

// TestLockStepsAgainstModel runs three transactions through random
// sequences of the node's lock steps — lock-read batches, regions that
// end after every record or stop early, shared-to-exclusive upgrades,
// AbortLocal and CommitLocal — over a table whose buckets collide, and
// holds every lock word, ActiveTxns and the per-partition pins to a model
// after each step.
func TestLockStepsAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := newModelNode(t)
		tbl := n.Store().Table(1)
		var buckets []*storage.Bucket
		for k := storage.Key(0); k < modelKeys; k++ {
			if b := tbl.Bucket(k); !slices.Contains(buckets, b) {
				buckets = append(buckets, b)
			}
		}
		m := newLockModel()
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			id := uint64(1 + rng.Intn(3))
			what := ""
			switch op := rng.Intn(6); op {
			case 0, 1: // a lock-read batch; op 1 upgrades a shared hold first
				entries := randomEntries(rng)
				if s := m.states[id]; op == 1 && s != nil {
					for _, b := range buckets {
						if mode, ok := s.locks[b]; ok && mode == storage.LockShared {
							entries[0].Key, entries[0].Mode = keyIn(tbl, b), storage.LockExclusive
							break
						}
					}
				}
				what = fmt.Sprintf("batch %v", entries)
				s, taken, want := m.state(id), []*storage.Bucket(nil), txn.AbortNone
				for _, e := range entries {
					pid := n.dir.Partition(storage.RID{Table: e.Table, Key: e.Key})
					if want = m.lock(s, tbl.Bucket(e.Key), e, pid, &taken); want != txn.AbortNone {
						break
					}
				}
				resp := n.LockReadLocal(id, entries)
				if want != txn.AbortNone {
					m.end(id, taken)
				}
				if resp.OK != (want == txn.AbortNone) || !resp.OK && resp.Reason != want {
					t.Fatalf("seed %d step %d: txn %d %s: ok=%v %v, model %v", seed, step, id, what, resp.OK, resp.Reason, want)
				}
				if resp.OK {
					if err := checkReads(entries, resp.Reads); err != nil {
						t.Fatalf("seed %d step %d: txn %d %s: %v", seed, step, id, what, err)
					}
				}
			case 2, 3: // a region that runs to its end (2) or stops early (3)
				entries := randomEntries(rng)
				stop := len(entries)
				if op == 3 {
					stop = rng.Intn(len(entries))
				}
				what = fmt.Sprintf("region %v stopping at %d", entries, stop)
				s, taken := m.state(id), []*storage.Bucket(nil)
				r := n.BeginRegion(id)
				reads := txn.ReadSet{}
				for _, e := range entries[:stop] {
					pid := n.dir.Partition(storage.RID{Table: e.Table, Key: e.Key})
					want := m.lock(s, tbl.Bucket(e.Key), e, pid, &taken)
					if got := r.LockRead(e, pid, reads, new(storage.Buf)); got != want {
						t.Fatalf("seed %d step %d: txn %d %s: key %d %v, model %v", seed, step, id, what, e.Key, got, want)
					}
					if want != txn.AbortNone {
						break
					}
					if err := checkReads([]LockEntry{e}, reads); err != nil {
						t.Fatalf("seed %d step %d: txn %d %s: %v", seed, step, id, what, err)
					}
				}
				r.End()
				m.end(id, taken)
			case 4:
				what = "AbortLocal"
				n.AbortLocal(id)
				m.releaseAll(id)
			case 5:
				what = "CommitLocal"
				if err := n.CommitLocal(id, 0, nil); err != nil {
					t.Fatal(err)
				}
				m.releaseAll(id)
			}
			if err := m.verify(n, buckets); err != nil {
				t.Fatalf("seed %d step %d: after txn %d %s: %v", seed, step, id, what, err)
			}
		}
	}
}

// keyIn returns a key of the model's table that hashes into b.
func keyIn(tbl *storage.Table, b *storage.Bucket) storage.Key {
	for k := storage.Key(0); k < modelKeys; k++ {
		if tbl.Bucket(k) == b {
			return k
		}
	}
	panic("no key in bucket")
}

// TestLockStepsConcurrent is the model test's race variant: distinct
// transactions run random lock steps at once on one node, each checking
// that every lock its own model says it holds is held in that mode; once
// all have committed or aborted, no lock, state or pin is left.
func TestLockStepsConcurrent(t *testing.T) {
	n := newModelNode(t)
	tbl := n.Store().Table(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 300; round++ {
				id := uint64(w)<<32 | uint64(round)
				held := map[*storage.Bucket]storage.LockMode{}
				for steps := rng.Intn(4); steps >= 0; steps-- {
					entries := randomEntries(rng)
					if rng.Intn(2) == 0 {
						if resp := n.LockReadLocal(id, entries); resp.OK {
							for _, e := range entries {
								b := tbl.Bucket(e.Key)
								if cur, ok := held[b]; !ok || cur < e.Mode {
									held[b] = e.Mode
								}
							}
						}
						continue
					}
					r := n.BeginRegion(id)
					for _, e := range entries {
						if r.LockRead(e, n.dir.Partition(storage.RID{Table: 1, Key: e.Key}), txn.ReadSet{}, nil) != txn.AbortNone {
							break
						}
					}
					r.End()
				}
				for b, mode := range held {
					if mode == storage.LockExclusive && !b.Lock.HeldExclusive() ||
						mode == storage.LockShared && b.Lock.SharedCount() == 0 && !b.Lock.HeldExclusive() {
						t.Errorf("txn %x: a %v hold it was granted is gone", id, mode)
						return
					}
				}
				if rng.Intn(2) == 0 {
					n.AbortLocal(id)
				} else if err := n.CommitLocal(id, 0, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := storage.Key(0); k < modelKeys; k++ {
		if tbl.Bucket(k).Lock.Held() {
			t.Errorf("key %d's bucket is still locked", k)
		}
	}
	if got := n.ActiveTxns(); got != 0 {
		t.Errorf("%d transactions still hold state", got)
	}
	for pid, pins := range n.partPins {
		if pins != 0 {
			t.Errorf("partition %d: %d pins left", pid, pins)
		}
	}
}

// TestStatesStayOnTheirNode: one transaction holds states on several
// nodes of a process under one id. A batch queued on a state that its
// sibling step retires empty must go on under a live state of its own
// node — never under the recycled state that, meanwhile, the same
// transaction took up on another node — or its locks and pin land in
// that node's list, and the other node's commit releases them.
func TestStatesStayOnTheirNode(t *testing.T) {
	x, y := newModelNodeAt(t, 0), newModelNodeAt(t, 1)
	const id = 7
	xe := []LockEntry{{Table: 1, Key: 0, Mode: storage.LockExclusive}}
	ye := LockEntry{Table: 1, Key: 1, Mode: storage.LockExclusive}
	for round := 0; round < 50; round++ {
		r := x.BeginRegion(id) // holds the new state's mu
		queued, done := make(chan struct{}), make(chan *LockResponse)
		go func() {
			close(queued)
			done <- x.LockReadLocal(id, xe) // waits on that mu
		}()
		<-queued
		time.Sleep(time.Millisecond) // let the batch fetch the state
		r.End()                      // empty: the state retires under the waiting batch
		ry := y.BeginRegion(id)
		if got := ry.LockRead(ye, y.dir.Partition(storage.RID{Table: 1, Key: 1}), txn.ReadSet{}, nil); got != txn.AbortNone {
			t.Fatalf("round %d: node 1 lock: %v", round, got)
		}
		ry.Keep()
		if resp := <-done; !resp.OK {
			t.Fatalf("round %d: node 0 batch: %v", round, resp.Reason)
		}
		for _, n := range []*Node{x, y} {
			if got := n.ActiveTxns(); got != 1 {
				t.Fatalf("round %d: node %d holds %d states, want the transaction's", round, n.ID(), got)
			}
		}
		x.AbortLocal(id)
		y.AbortLocal(id)
		for _, n := range []*Node{x, y} {
			for k := storage.Key(0); k < modelKeys; k++ {
				if n.Store().Table(1).Bucket(k).Lock.Held() {
					t.Fatalf("round %d: node %d: key %d's bucket is still locked", round, n.ID(), k)
				}
			}
			if got := n.ActiveTxns(); got != 0 {
				t.Fatalf("round %d: node %d: %d transactions still hold state", round, n.ID(), got)
			}
			n.stMu.Lock()
			for pid, pins := range n.partPins {
				if pins != 0 {
					t.Errorf("round %d: node %d: partition %d: %d pins left", round, n.ID(), pid, pins)
				}
			}
			n.stMu.Unlock()
		}
	}
}
