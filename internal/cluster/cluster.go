// Package cluster defines the cluster topology (partitions, primaries,
// replicas) and the record-routing directory: a default hash/range
// partitioner plus the small hot-record lookup table of §4.4.
//
// The paper's key observation about metadata (§4.4) is reproduced here:
// because Chiller's partitioner only ever relocates *hot* records, the
// lookup table holds entries for hot records only, and everything else
// routes through the default partitioner — for the Instacart workload this
// makes the table roughly 10x smaller than Schism's full record→partition
// map.
//
// The table is insert-only open addressing over atomic slots, read with
// no lock; writers serialize on a mutex, store a slot's present bit last
// and publish a grown or replaced table through one atomic pointer. A
// table whose every record is hot at its home is one rule beside the
// rows, not a row per record.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/wire"
)

// DefaultLanes derives the per-node execution-lane count from the host
// CPU count, capped so a many-node simulated cluster on one machine
// does not oversubscribe itself (every node's lanes share the same
// cores). The benchmark harness and the public chiller.Open both
// resolve their lane defaults here, so embedded deployments and figure
// runs agree.
func DefaultLanes() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// PartitionID identifies a horizontal partition.
type PartitionID int32

// Topology describes where partitions live. Reads are lock-free —
// accessors load an immutable snapshot through an atomic pointer, so
// the per-message routing cost stays a single pointer load — while
// mutators (promotion, warming-replica bookkeeping, membership changes)
// clone the snapshot under an internal mutex and publish the result
// atomically. A reader therefore always sees a consistent layout,
// possibly one mutation stale; engines absorb that staleness with the
// AbortMoved retry path (see docs/ELASTICITY.md).
type Topology struct {
	mu   sync.Mutex
	view atomic.Pointer[[]PartitionInfo]
}

// PartitionInfo names the primary node and replica nodes of one partition.
type PartitionInfo struct {
	ID       PartitionID
	Primary  transport.NodeID
	Replicas []transport.NodeID
	// Warming names nodes receiving this partition's backfill during a
	// live handoff: the primary streams every commit to them (so writes
	// concurrent with the backfill land in order), but they do not yet
	// count as synced replicas — snapshot reads, replica-consistency
	// checks, and promotion skip them until CommitWarming flips them
	// into Replicas.
	Warming []transport.NodeID
}

// Typed topology-mutation failures, matchable with errors.Is.
var (
	// ErrUnknownPartition means the partition ID was out of range.
	ErrUnknownPartition = errors.New("unknown partition")
	// ErrNotReplica means the named node holds no replica of the
	// partition (promotion and replica removal require one).
	ErrNotReplica = errors.New("node is not a replica of the partition")
	// ErrNotWarming means the named node was not warming for the
	// partition (CommitWarming requires a prior AddWarming).
	ErrNotWarming = errors.New("node is not warming for the partition")
)

// NewTopology builds a topology with n partitions, partition i primaried
// on node i, and replicationDegree-1 replicas placed on the following
// nodes round-robin (replicationDegree 2 means one extra copy, as in the
// paper's evaluation setup §7.1).
func NewTopology(n int, replicationDegree int) *Topology {
	if replicationDegree < 1 {
		replicationDegree = 1
	}
	parts := make([]PartitionInfo, n)
	for i := 0; i < n; i++ {
		info := PartitionInfo{ID: PartitionID(i), Primary: transport.NodeID(i)}
		for r := 1; r < replicationDegree && n > 1; r++ {
			info.Replicas = append(info.Replicas, transport.NodeID((i+r)%n))
		}
		parts[i] = info
	}
	t := &Topology{}
	t.view.Store(&parts)
	return t
}

func (t *Topology) load() []PartitionInfo { return *t.view.Load() }

// mutate runs fn over a shallow clone of the current snapshot under the
// mutation lock and publishes whatever it returns. fn must not modify
// the inner Replicas/Warming slices in place (they are shared with the
// published snapshot); it replaces the whole PartitionInfo entry with
// fresh slices instead.
func (t *Topology) mutate(fn func(parts []PartitionInfo) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.load()
	next := make([]PartitionInfo, len(cur))
	copy(next, cur)
	if err := fn(next); err != nil {
		return err
	}
	t.view.Store(&next)
	return nil
}

// NumPartitions returns the partition count (fixed for the lifetime of
// the cluster — elasticity moves partitions between nodes, it does not
// split them).
func (t *Topology) NumPartitions() int { return len(t.load()) }

// Primary returns the primary node of partition p.
func (t *Topology) Primary(p PartitionID) transport.NodeID {
	return t.load()[p].Primary
}

// Replicas returns the synced replica nodes of partition p (excluding
// any warming nodes still being backfilled). The returned slice is a
// live view of an immutable snapshot; callers must not modify it.
func (t *Topology) Replicas(p PartitionID) []transport.NodeID {
	return t.load()[p].Replicas
}

// Warming returns the nodes currently being backfilled for partition p.
func (t *Topology) Warming(p PartitionID) []transport.NodeID {
	return t.load()[p].Warming
}

// StreamTargets returns every node the primary of partition p must
// stream commits to: the synced replicas plus any warming nodes. The
// two sets come from one snapshot, so a concurrent CommitWarming can
// never make a commit miss the flipping node.
func (t *Topology) StreamTargets(p PartitionID) []transport.NodeID {
	info := t.load()[p]
	if len(info.Warming) == 0 {
		return info.Replicas
	}
	out := make([]transport.NodeID, 0, len(info.Replicas)+len(info.Warming))
	out = append(out, info.Replicas...)
	out = append(out, info.Warming...)
	return out
}

// Promote makes the given replica of partition p its primary, demoting
// the old primary to the replica slot — the recovery protocol's answer
// to a primary dying, and the cutover step of a live handoff: every
// write set joins the primary's FIFO stream before it applies there (a
// replicate frame ahead of the commit frame, an inner region at its
// commit), so once the streams have drained a replica holds every
// commit and can serve the partition the moment routing flips.
//
// The flip itself is atomic (snapshot swap), but Promote does not drain
// in-flight transactions — the caller establishes that either by
// quiescing (the crash-recovery harness) or with the fence-and-drain
// handoff protocol (server.HandoffPartition, docs/ELASTICITY.md). The
// demoted primary keeps the replica slot so it continues as a backup.
//
// The error is typed: errors.Is(err, ErrUnknownPartition) when p is out
// of range, errors.Is(err, ErrNotReplica) when node holds no replica of
// p (e.g. it was still warming, or was never added).
func (t *Topology) Promote(p PartitionID, node transport.NodeID) error {
	return t.mutate(func(parts []PartitionInfo) error {
		if int(p) < 0 || int(p) >= len(parts) {
			return fmt.Errorf("cluster: promote partition %d to node %d: %w", p, node, ErrUnknownPartition)
		}
		info := parts[p]
		idx := -1
		for i, r := range info.Replicas {
			if r == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("cluster: promote partition %d to node %d: %w", p, node, ErrNotReplica)
		}
		reps := append([]transport.NodeID(nil), info.Replicas...)
		reps[idx] = info.Primary
		info.Primary = node
		info.Replicas = reps
		parts[p] = info
		return nil
	})
}

// AddWarming registers node as a warming replica of partition p: from
// the snapshot's publication on, the primary streams every commit to it
// (StreamTargets includes it) while the backfill copies the partition's
// existing records over the same FIFO streams. Idempotent — a node
// already hosting p in any role is left where it is.
func (t *Topology) AddWarming(p PartitionID, node transport.NodeID) error {
	return t.mutate(func(parts []PartitionInfo) error {
		if int(p) < 0 || int(p) >= len(parts) {
			return fmt.Errorf("cluster: add warming node %d to partition %d: %w", node, p, ErrUnknownPartition)
		}
		info := parts[p]
		if info.Primary == node {
			return nil
		}
		for _, r := range info.Replicas {
			if r == node {
				return nil
			}
		}
		for _, r := range info.Warming {
			if r == node {
				return nil
			}
		}
		info.Warming = append(append([]transport.NodeID(nil), info.Warming...), node)
		parts[p] = info
		return nil
	})
}

// RemoveWarming drops node from partition p's warming set (aborting a
// handoff). A node not warming is a no-op.
func (t *Topology) RemoveWarming(p PartitionID, node transport.NodeID) {
	_ = t.mutate(func(parts []PartitionInfo) error {
		if int(p) < 0 || int(p) >= len(parts) {
			return nil
		}
		info := parts[p]
		warm := make([]transport.NodeID, 0, len(info.Warming))
		for _, r := range info.Warming {
			if r != node {
				warm = append(warm, r)
			}
		}
		info.Warming = warm
		parts[p] = info
		return nil
	})
}

// CommitWarming flips a warming node into the synced replica set, the
// step after its backfill completed and the handoff flush confirmed
// every in-flight stream message landed. From this snapshot on the node
// is a full replica: snapshot reads may serve from it, consistency
// checks cover it, and Promote accepts it.
func (t *Topology) CommitWarming(p PartitionID, node transport.NodeID) error {
	return t.mutate(func(parts []PartitionInfo) error {
		if int(p) < 0 || int(p) >= len(parts) {
			return fmt.Errorf("cluster: commit warming node %d of partition %d: %w", node, p, ErrUnknownPartition)
		}
		info := parts[p]
		idx := -1
		for i, r := range info.Warming {
			if r == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("cluster: commit warming node %d of partition %d: %w", node, p, ErrNotWarming)
		}
		warm := make([]transport.NodeID, 0, len(info.Warming)-1)
		warm = append(warm, info.Warming[:idx]...)
		warm = append(warm, info.Warming[idx+1:]...)
		info.Warming = warm
		info.Replicas = append(append([]transport.NodeID(nil), info.Replicas...), node)
		parts[p] = info
		return nil
	})
}

// RemoveReplica drops node from partition p's replica set — the tail of
// a handoff that would otherwise leave the partition over-replicated,
// or of a node removal. The primary cannot be removed (promote first).
func (t *Topology) RemoveReplica(p PartitionID, node transport.NodeID) error {
	return t.mutate(func(parts []PartitionInfo) error {
		if int(p) < 0 || int(p) >= len(parts) {
			return fmt.Errorf("cluster: remove replica %d of partition %d: %w", node, p, ErrUnknownPartition)
		}
		info := parts[p]
		idx := -1
		for i, r := range info.Replicas {
			if r == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("cluster: remove replica %d of partition %d: %w", node, p, ErrNotReplica)
		}
		reps := make([]transport.NodeID, 0, len(info.Replicas)-1)
		reps = append(reps, info.Replicas[:idx]...)
		reps = append(reps, info.Replicas[idx+1:]...)
		info.Replicas = reps
		parts[p] = info
		return nil
	})
}

// Snapshot returns a deep copy of the current layout (safe to hold or
// mutate; used by the topology-exchange codec).
func (t *Topology) Snapshot() []PartitionInfo {
	parts := t.load()
	out := make([]PartitionInfo, len(parts))
	for i, info := range parts {
		info.Replicas = append([]transport.NodeID(nil), info.Replicas...)
		info.Warming = append([]transport.NodeID(nil), info.Warming...)
		out[i] = info
	}
	return out
}

// Install atomically replaces the whole layout with the given snapshot
// (which the topology takes ownership of) — the receiving side of the
// topology-exchange verbs, and the joiner's bootstrap.
func (t *Topology) Install(parts []PartitionInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.view.Store(&parts)
}

// HasNode reports whether the layout names n (a coordinator-only client is not).
func (t *Topology) HasNode(n transport.NodeID) bool {
	for _, info := range t.load() {
		if info.Primary == n || slices.Contains(info.Replicas, n) || slices.Contains(info.Warming, n) {
			return true
		}
	}
	return false
}

// PartitionOfNode returns the partition primaried on the given node, or
// -1 if none.
func (t *Topology) PartitionOfNode(n transport.NodeID) PartitionID {
	for _, p := range t.load() {
		if p.Primary == n {
			return p.ID
		}
	}
	return -1
}

// EncodeTopologyTo appends the topology's current layout to a wire
// writer (the payload of the topology-exchange verbs).
func EncodeTopologyTo(w *wire.Writer, t *Topology) {
	parts := t.Snapshot()
	w.Uint32(uint32(len(parts)))
	for _, info := range parts {
		w.Uint32(uint32(info.ID))
		w.Uint32(uint32(info.Primary))
		w.Uint32(uint32(len(info.Replicas)))
		for _, r := range info.Replicas {
			w.Uint32(uint32(r))
		}
		w.Uint32(uint32(len(info.Warming)))
		for _, r := range info.Warming {
			w.Uint32(uint32(r))
		}
	}
}

// DecodeTopologyFrom parses a layout encoded by EncodeTopologyTo,
// leaving the reader positioned after it (verbs append addressing
// metadata behind the layout).
func DecodeTopologyFrom(r *wire.Reader) ([]PartitionInfo, error) {
	n := r.Uint32()
	parts := make([]PartitionInfo, 0, n)
	for i := uint32(0); i < n; i++ {
		info := PartitionInfo{
			ID:      PartitionID(r.Uint32()),
			Primary: transport.NodeID(r.Uint32()),
		}
		nr := r.Uint32()
		for j := uint32(0); j < nr; j++ {
			info.Replicas = append(info.Replicas, transport.NodeID(r.Uint32()))
		}
		nw := r.Uint32()
		for j := uint32(0); j < nw; j++ {
			info.Warming = append(info.Warming, transport.NodeID(r.Uint32()))
		}
		parts = append(parts, info)
	}
	return parts, r.Err()
}

// DefaultPartitioner is the orthogonal (non-workload-aware) scheme that
// routes every record not present in the lookup table, e.g. hash or range
// partitioning on the primary key.
type DefaultPartitioner interface {
	Partition(rid storage.RID) PartitionID
	Name() string
}

// HashPartitioner routes by a hash of (table, key). This is the scheme
// evaluated as "Hashing" in Figure 7.
type HashPartitioner struct {
	N int
}

// Partition implements DefaultPartitioner.
func (h HashPartitioner) Partition(rid storage.RID) PartitionID {
	x := uint64(rid.Key)
	x ^= uint64(rid.Table) << 56
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return PartitionID(x % uint64(h.N))
}

// Name implements DefaultPartitioner.
func (h HashPartitioner) Name() string { return "hash" }

// RangePartitioner routes by dividing the key space of each table into N
// contiguous ranges. TPC-C's by-warehouse layout is expressed this way:
// keys are packed with the warehouse in the high bits.
type RangePartitioner struct {
	N int
	// MaxKey is the exclusive upper bound of the key space per table.
	MaxKey map[storage.TableID]storage.Key
}

// Partition implements DefaultPartitioner.
func (r RangePartitioner) Partition(rid storage.RID) PartitionID {
	max, ok := r.MaxKey[rid.Table]
	if !ok || max == 0 {
		return PartitionID(uint64(rid.Key) % uint64(r.N))
	}
	span := (uint64(max) + uint64(r.N) - 1) / uint64(r.N)
	p := uint64(rid.Key) / span
	if p >= uint64(r.N) {
		p = uint64(r.N) - 1
	}
	return PartitionID(p)
}

// Name implements DefaultPartitioner.
func (r RangePartitioner) Name() string { return "range" }

// FuncPartitioner adapts a function (e.g. TPC-C's warehouse extraction).
type FuncPartitioner struct {
	Fn    func(rid storage.RID) PartitionID
	Label string
}

// Partition implements DefaultPartitioner.
func (f FuncPartitioner) Partition(rid storage.RID) PartitionID { return f.Fn(rid) }

// Name implements DefaultPartitioner.
func (f FuncPartitioner) Name() string {
	if f.Label == "" {
		return "func"
	}
	return f.Label
}

// Directory routes records to partitions: hot records via the lookup
// table, everything else via the default partitioner. It also answers
// hotness queries for the run-time region decision. Safe for concurrent
// use; the read path takes no lock: one pointer load, then a probe of
// the open-addressing lookup table (see hotTable).
type Directory struct {
	topo *Topology
	def  DefaultPartitioner

	// lanes is the number of single-threaded execution lanes per node
	// (sub-partitions of a partition). It is fixed at deployment time and
	// identical cluster-wide, so every coordinator derives the same
	// record→lane mapping without consulting the record's home node.
	lanes int

	mu     sync.Mutex // serializes writers: SetHotPlacement, SetHotTable, growth, InstallLayout
	layout atomic.Pointer[layout]
}

// layout is what routing reads, published as one pointer so that a
// reader never pairs a new lookup table with an old full map.
type layout struct {
	hot hotTable
	// rules are the hot tables (SetHotTable): every record of such a
	// table is hot at its home placement with weight 1. Readers consult
	// them only after the row probe misses. Copied on write, never
	// modified once published.
	rules []storage.TableID
	// full, when non-nil, is a complete record→partition map as built by
	// Schism-style partitioners; it takes precedence over def but not
	// over hot. Chiller itself never populates it, and nothing writes it
	// once it is published.
	full map[storage.RID]PartitionID
}

// hotTable is the §4.4 lookup table: insert-only open addressing with
// linear probing at load <= 1/2, read without locks. Only a writer
// holding Directory.mu stores to a slot, and it stores meta last, so a
// reader that sees a present meta sees that row's key and weight. A full
// table is not rehashed in place: the writer fills one twice the size
// and publishes it in a new layout.
type hotTable struct {
	slots []hotSlot // len is a power of two
	rows  int       // occupied slots; guarded by Directory.mu
}

// hotSlot is one lookup-table row: the record's home partition, its
// contention weight (§4.3's contention likelihood, which lets the
// run-time region decision pick the inner host with the largest
// contention mass instead of merely the most hot records) and, when
// pinned, its execution lane on that partition's node.
type hotSlot struct {
	key    atomic.Uint64
	meta   atomic.Uint64 // table<<32 | partition<<16 | (lane+1)<<1 | present; 0 = empty slot
	weight atomic.Uint64 // math.Float64bits
}

// What hotSlot.meta has room for; SetHotPlacement rejects anything
// beyond. Table ids keep all of their 32 bits.
const (
	maxHotPartition = 1<<16 - 1 // 16 bits
	maxHotLane      = 1<<15 - 2 // lane+1 in 15 bits
)

func metaPartition(m uint64) PartitionID { return PartitionID(m >> 16 & maxHotPartition) }

// metaLane returns the pinned lane, or -1 for the stable hash mapping
// (and for the zero meta of a miss).
func metaLane(m uint64) int { return int(m>>1&(1<<15-1)) - 1 }

// newHotTable returns an empty table with room for rows rows.
func newHotTable(rows int) hotTable {
	n := 8
	for n < 2*rows {
		n *= 2
	}
	return hotTable{slots: make([]hotSlot, n)}
}

// rid returns the record of a present slot whose meta word is m.
func (s *hotSlot) rid(m uint64) storage.RID {
	return storage.RID{Table: storage.TableID(m >> 32), Key: storage.Key(s.key.Load())}
}

// find probes for rid. It returns rid's slot and the meta word read from
// it, or, with a zero meta, the empty slot that ended the probe (at most
// half the slots are taken, so there is one).
func (t *hotTable) find(rid storage.RID) (*hotSlot, uint64) {
	slots, mask := t.slots, uint64(len(t.slots)-1)
	h := uint64(rid.Key) ^ uint64(rid.Table)<<32
	h ^= h >> 32
	for i := h * 0x9E3779B97F4A7C15 >> 32; ; i++ {
		s := &slots[i&mask]
		m := s.meta.Load()
		if m == 0 || s.rid(m) == rid {
			return s, m
		}
	}
}

// set writes rid's row, in place when it has one. It reports false,
// having written nothing, when a new row would take the table past half
// full. The caller holds Directory.mu or has not published t yet.
func (t *hotTable) set(rid storage.RID, meta, weight uint64) bool {
	s, m := t.find(rid)
	if m == 0 {
		if 2*(t.rows+1) > len(t.slots) {
			return false
		}
		t.rows++
		s.key.Store(uint64(rid.Key))
	}
	s.weight.Store(weight)
	s.meta.Store(meta)
	return true
}

// grown returns a table of twice the slots holding t's rows.
func (t *hotTable) grown() hotTable {
	next := newHotTable(len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		if m := s.meta.Load(); m != 0 {
			next.set(s.rid(m), m, s.weight.Load())
		}
	}
	return next
}

// NewDirectory creates a directory over the topology with the given
// default partitioner.
func NewDirectory(topo *Topology, def DefaultPartitioner) *Directory {
	d := &Directory{topo: topo, def: def, lanes: 1}
	d.layout.Store(&layout{hot: newHotTable(0)})
	return d
}

// Topology returns the directory's topology.
func (d *Directory) Topology() *Topology { return d.topo }

// SetLanes fixes the number of execution lanes per node. Call once at
// deployment time, before traffic, with the same value on every node's
// directory (the bench harness shares one directory cluster-wide).
func (d *Directory) SetLanes(n int) {
	if n < 1 {
		n = 1
	}
	d.lanes = n
}

// Lanes returns the number of execution lanes per node (>= 1).
func (d *Directory) Lanes() int { return d.lanes }

// Lane maps a record to the execution lane that serializes it on its
// home node. Hot records with an explicit lane placement (from the
// contention-centric partitioner's sub-partition assignment) use it;
// everything else uses the stable storage-layer hash, so the mapping
// needs no per-record metadata for cold data — the same economy the
// §4.4 lookup table applies to partition routing.
func (d *Directory) Lane(rid storage.RID) int {
	if d.lanes <= 1 {
		return 0
	}
	_, m := d.layout.Load().hot.find(rid)
	if lane := metaLane(m); lane >= 0 {
		return lane % d.lanes
	}
	return storage.LaneOf(rid, d.lanes)
}

// Default returns the default partitioner.
func (d *Directory) Default() DefaultPartitioner { return d.def }

// Partition routes a record.
func (d *Directory) Partition(rid storage.RID) PartitionID {
	l := d.layout.Load()
	if _, m := l.hot.find(rid); m != 0 {
		return metaPartition(m)
	}
	if p, ok := l.full[rid]; ok {
		return p
	}
	return d.def.Partition(rid)
}

// PrimaryOf routes a record straight to its primary node.
func (d *Directory) PrimaryOf(rid storage.RID) transport.NodeID {
	return d.topo.Primary(d.Partition(rid))
}

// IsHot reports whether the record is in the hot lookup table, as a row
// or through its table's rule.
func (d *Directory) IsHot(rid storage.RID) bool {
	l := d.layout.Load()
	_, m := l.hot.find(rid)
	return m != 0 || slices.Contains(l.rules, rid.Table)
}

// SetHot places a hot record on a partition (a lookup-table entry) with
// a neutral contention weight of 1.
func (d *Directory) SetHot(rid storage.RID, p PartitionID) {
	d.SetHotWeight(rid, p, 1)
}

// SetHotWeight places a hot record on a partition with an explicit
// contention weight (its contention likelihood from the statistics
// service). Weights bias the run-time inner-host decision toward the
// partition carrying the most contention mass. The lane stays on the
// stable hash mapping; use SetHotPlacement to pin one.
func (d *Directory) SetHotWeight(rid storage.RID, p PartitionID, w float64) {
	d.SetHotPlacement(rid, p, w, -1)
}

// SetHotPlacement places a hot record on a partition with an explicit
// contention weight and, when lane >= 0, an explicit execution lane on
// that partition's node — the full sub-partition placement emitted by
// the contention-centric partitioner when it treats lanes as
// sub-partitions. It panics on a partition the topology does not have
// and on a partition or lane too large for a lookup-table slot.
func (d *Directory) SetHotPlacement(rid storage.RID, p PartitionID, w float64, lane int) {
	meta, weight := d.row(rid, HotPlacement{Partition: p, Weight: w, Lane: lane})
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.layout.Load()
	if cur.hot.set(rid, meta, weight) {
		return
	}
	next := &layout{hot: cur.hot.grown(), rules: cur.rules, full: cur.full}
	next.hot.set(rid, meta, weight)
	d.layout.Store(next)
}

// SetHotTable declares every record of a table hot at its home placement
// (where Partition routes it, on the stable hash lane) with SetHot's
// neutral weight of 1: one rule where per-record marking takes a row per
// record. A row of the table keeps its own partition, lane and weight.
// Setting a table again changes nothing.
func (d *Directory) SetHotTable(table storage.TableID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := *d.layout.Load()
	if slices.Contains(next.rules, table) {
		return
	}
	next.rules = append(slices.Clone(next.rules), table)
	d.layout.Store(&next)
}

// row validates one placement and packs it into a slot's meta and
// weight words.
func (d *Directory) row(rid storage.RID, h HotPlacement) (meta, weight uint64) {
	if h.Partition < 0 || int(h.Partition) >= d.topo.NumPartitions() || h.Partition > maxHotPartition {
		panic(fmt.Sprintf("cluster: partition %d out of range", h.Partition))
	}
	if h.Lane > maxHotLane {
		panic(fmt.Sprintf("cluster: lane %d of %v does not fit a lookup-table slot (max %d)", h.Lane, rid, maxHotLane))
	}
	if h.Weight <= 0 {
		h.Weight = 1
	}
	if h.Lane < 0 {
		h.Lane = -1
	}
	return uint64(rid.Table)<<32 | uint64(h.Partition)<<16 | uint64(h.Lane+1)<<1 | 1, math.Float64bits(h.Weight)
}

// HotWeight returns the record's contention weight — its row's, else 1
// through its table's rule — or 0 when the record is not in the lookup
// table.
func (d *Directory) HotWeight(rid storage.RID) float64 {
	l := d.layout.Load()
	if s, m := l.hot.find(rid); m != 0 {
		return math.Float64frombits(s.weight.Load())
	}
	if slices.Contains(l.rules, rid.Table) {
		return 1
	}
	return 0
}

// HotPlacement is one lookup-table row handed to InstallLayout: the
// arguments of SetHotPlacement.
type HotPlacement struct {
	Partition PartitionID
	Weight    float64
	Lane      int
}

// InstallLayout replaces the lookup table's rows and the full map (a
// complete record→partition assignment, the way Schism-style tools
// materialize their output; it yields to the lookup table and may elide
// entries equal to the default partitioner's choice) in one step; the
// hot-table rules stay. Routing never observes a half-installed layout:
// clearing the table and re-adding rows one at a time would, for a
// moment, route every relocated record to its default partition — a
// second primary for it.
func (d *Directory) InstallLayout(hot map[storage.RID]HotPlacement, full map[storage.RID]PartitionID) {
	next := &layout{hot: newHotTable(len(hot)), full: full}
	for rid, h := range hot {
		meta, weight := d.row(rid, h)
		next.hot.set(rid, meta, weight)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	next.rules = d.layout.Load().rules
	d.layout.Store(next)
}

// LookupTableSize returns the number of hot entries — rows, one per
// hot-table rule, and full-map entries: the metadata cost compared in
// §7.2.2.
func (d *Directory) LookupTableSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.layout.Load()
	return l.hot.rows + len(l.rules) + len(l.full)
}

// HotEntries returns a snapshot of the lookup table's rows (hot-table
// rules name no record and are not listed).
func (d *Directory) HotEntries() map[storage.RID]PartitionID {
	d.mu.Lock()
	defer d.mu.Unlock()
	hot := &d.layout.Load().hot
	out := make(map[storage.RID]PartitionID, hot.rows)
	for i := range hot.slots {
		s := &hot.slots[i]
		if m := s.meta.Load(); m != 0 {
			out[s.rid(m)] = metaPartition(m)
		}
	}
	return out
}
