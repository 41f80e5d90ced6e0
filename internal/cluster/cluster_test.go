package cluster

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/chillerdb/chiller/internal/storage"
)

func TestTopologyReplicaPlacement(t *testing.T) {
	topo := NewTopology(4, 2)
	if topo.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", topo.NumPartitions())
	}
	for i := 0; i < 4; i++ {
		p := PartitionID(i)
		if topo.Primary(p) != 0 && int(topo.Primary(p)) != i {
			t.Errorf("partition %d primary on node %d", i, topo.Primary(p))
		}
		reps := topo.Replicas(p)
		if len(reps) != 1 {
			t.Fatalf("partition %d has %d replicas, want 1", i, len(reps))
		}
		if reps[0] == topo.Primary(p) {
			t.Errorf("partition %d replica co-located with primary", i)
		}
	}
}

func TestTopologyNoReplication(t *testing.T) {
	topo := NewTopology(3, 1)
	for i := 0; i < 3; i++ {
		if len(topo.Replicas(PartitionID(i))) != 0 {
			t.Fatal("replication degree 1 should mean no replicas")
		}
	}
	// Degree < 1 clamps to 1.
	topo2 := NewTopology(3, 0)
	if len(topo2.Replicas(0)) != 0 {
		t.Fatal("degree 0 should clamp to no replicas")
	}
}

func TestTopologySingleNodeReplication(t *testing.T) {
	// One node: nowhere to put replicas, must not self-replicate.
	topo := NewTopology(1, 3)
	if len(topo.Replicas(0)) != 0 {
		t.Fatalf("single node has replicas: %v", topo.Replicas(0))
	}
}

func TestPartitionOfNode(t *testing.T) {
	topo := NewTopology(3, 1)
	if got := topo.PartitionOfNode(2); got != 2 {
		t.Fatalf("PartitionOfNode(2) = %d", got)
	}
	if got := topo.PartitionOfNode(99); got != -1 {
		t.Fatalf("PartitionOfNode(99) = %d, want -1", got)
	}
}

func TestHashPartitionerInRangeAndStable(t *testing.T) {
	h := HashPartitioner{N: 5}
	f := func(table uint32, key uint64) bool {
		rid := storage.RID{Table: storage.TableID(table), Key: storage.Key(key)}
		p := h.Partition(rid)
		return p >= 0 && int(p) < 5 && p == h.Partition(rid)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPartitionerSpreads(t *testing.T) {
	h := HashPartitioner{N: 4}
	counts := make([]int, 4)
	for k := storage.Key(0); k < 4000; k++ {
		counts[h.Partition(storage.RID{Table: 1, Key: k})]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("partition %d got %d/4000 keys (poor spread)", i, c)
		}
	}
}

func TestRangePartitioner(t *testing.T) {
	r := RangePartitioner{N: 4, MaxKey: map[storage.TableID]storage.Key{1: 400}}
	if got := r.Partition(storage.RID{Table: 1, Key: 0}); got != 0 {
		t.Errorf("key 0 → %d", got)
	}
	if got := r.Partition(storage.RID{Table: 1, Key: 399}); got != 3 {
		t.Errorf("key 399 → %d", got)
	}
	// Key beyond MaxKey clamps to last partition.
	if got := r.Partition(storage.RID{Table: 1, Key: 1000}); got != 3 {
		t.Errorf("key 1000 → %d", got)
	}
	// Unknown table falls back to modulo.
	if got := r.Partition(storage.RID{Table: 9, Key: 6}); got != 2 {
		t.Errorf("unknown table key 6 → %d, want 2", got)
	}
}

func TestDirectoryRouting(t *testing.T) {
	topo := NewTopology(4, 1)
	d := NewDirectory(topo, HashPartitioner{N: 4})
	rid := storage.RID{Table: 1, Key: 42}
	defPart := d.Partition(rid)

	// Hot entry overrides the default.
	override := (defPart + 1) % 4
	d.SetHot(rid, override)
	if !d.IsHot(rid) {
		t.Fatal("IsHot false after SetHot")
	}
	if d.Partition(rid) != override {
		t.Fatalf("Partition = %d, want hot override %d", d.Partition(rid), override)
	}
	if d.PrimaryOf(rid) != topo.Primary(override) {
		t.Fatal("PrimaryOf does not follow hot entry")
	}
	if d.LookupTableSize() != 1 {
		t.Fatalf("LookupTableSize = %d", d.LookupTableSize())
	}

	d.InstallLayout(nil, nil)
	if d.IsHot(rid) || d.Partition(rid) != defPart {
		t.Fatal("an empty layout did not restore default routing")
	}
}

func TestDirectoryFullMapPrecedence(t *testing.T) {
	topo := NewTopology(4, 1)
	d := NewDirectory(topo, HashPartitioner{N: 4})
	rid := storage.RID{Table: 1, Key: 7}
	def := d.Partition(rid)
	full := map[storage.RID]PartitionID{rid: (def + 1) % 4}
	d.InstallLayout(nil, full)
	if d.Partition(rid) != (def+1)%4 {
		t.Fatal("full map not consulted")
	}
	// Hot beats full.
	d.SetHot(rid, (def+2)%4)
	if d.Partition(rid) != (def+2)%4 {
		t.Fatal("hot entry should take precedence over full map")
	}
	// Records not in the full map fall back to default.
	other := storage.RID{Table: 1, Key: 8}
	if d.Partition(other) != d.Default().Partition(other) {
		t.Fatal("fallback to default broken")
	}
}

func TestSetHotOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := NewDirectory(NewTopology(2, 1), HashPartitioner{N: 2})
	d.SetHot(storage.RID{Table: 1, Key: 1}, 7)
}

func TestHotEntriesSnapshot(t *testing.T) {
	d := NewDirectory(NewTopology(2, 1), HashPartitioner{N: 2})
	rid := storage.RID{Table: 1, Key: 1}
	d.SetHot(rid, 1)
	snap := d.HotEntries()
	snap[storage.RID{Table: 1, Key: 2}] = 0 // mutate snapshot
	if d.LookupTableSize() != 1 {
		t.Fatal("snapshot mutation leaked into directory")
	}
}

// Promote must name its failure: an unknown partition and a node that
// is not a replica are different operator mistakes, and the harness
// needs errors.Is to tell them apart instead of a silent false.
func TestPromoteTypedErrors(t *testing.T) {
	topo := NewTopology(3, 2)

	if err := topo.Promote(PartitionID(7), 0); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("Promote(unknown partition) = %v, want ErrUnknownPartition", err)
	}
	if err := topo.Promote(PartitionID(-1), 0); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("Promote(negative partition) = %v, want ErrUnknownPartition", err)
	}

	// Node 0 primaries partition 0 but does not replicate it.
	if err := topo.Promote(PartitionID(0), topo.Primary(0)); !errors.Is(err, ErrNotReplica) {
		t.Fatalf("Promote(non-replica) = %v, want ErrNotReplica", err)
	}

	// A genuine replica promotes, and the old primary takes its slot.
	old := topo.Primary(0)
	rep := topo.Replicas(0)[0]
	if err := topo.Promote(PartitionID(0), rep); err != nil {
		t.Fatalf("Promote(replica) = %v", err)
	}
	if topo.Primary(0) != rep {
		t.Fatalf("primary = %d, want %d", topo.Primary(0), rep)
	}
	found := false
	for _, r := range topo.Replicas(0) {
		if r == old {
			found = true
		}
	}
	if !found {
		t.Fatalf("demoted primary %d missing from replicas %v", old, topo.Replicas(0))
	}
}

// CommitWarming requires the node to actually be warming; promoting a
// stranger must fail typed, not corrupt the layout.
func TestCommitWarmingTypedErrors(t *testing.T) {
	topo := NewTopology(2, 1)
	if err := topo.CommitWarming(PartitionID(0), 1); !errors.Is(err, ErrNotWarming) {
		t.Fatalf("CommitWarming(not warming) = %v, want ErrNotWarming", err)
	}
	if err := topo.AddWarming(PartitionID(0), 1); err != nil {
		t.Fatalf("AddWarming: %v", err)
	}
	if err := topo.CommitWarming(PartitionID(0), 1); err != nil {
		t.Fatalf("CommitWarming: %v", err)
	}
	reps := topo.Replicas(0)
	if len(reps) == 0 || reps[len(reps)-1] != 1 {
		t.Fatalf("committed warming node missing from replicas %v", reps)
	}
	if len(topo.Warming(0)) != 0 {
		t.Fatalf("warming set not cleared: %v", topo.Warming(0))
	}
}
