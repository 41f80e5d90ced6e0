package deploy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

// ErrInvalid marks a request the deployment cannot satisfy as asked (an
// out-of-range node or partition, a sizing that cannot be built) — as
// opposed to a failure while carrying a valid one out.
var ErrInvalid = errors.New("deploy: invalid request")

// Transport kinds a cluster can be assembled over.
const (
	// TransportSim is the in-process simulated fabric (the default).
	TransportSim = "simnet"
	// TransportTCP assembles the cluster over loopback TCP: every node
	// gets its own tcpnet fabric on 127.0.0.1, and every verb crosses a
	// real socket. Simulated latency does not apply (the kernel
	// provides the latency); fault injection does.
	TransportTCP = "tcp"
)

// Config sizes an in-process cluster.
type Config struct {
	// Transport selects the fabric: TransportSim (default when empty) or
	// TransportTCP.
	Transport string
	// Partitions is the number of partitions; each gets a primary node.
	Partitions int
	// Replication is the replication degree (1 = no replicas, also the
	// default; the paper's evaluation uses 2).
	Replication int
	// Latency is the simulated one-way network latency between nodes.
	Latency time.Duration
	// Seed seeds the access sampler.
	Seed int64
	// SampleRate enables access sampling on every node at the given rate
	// (0 disables; the paper samples ~0.1%).
	SampleRate float64
	// Lanes is the number of single-threaded execution lanes per node —
	// the paper's one-engine-per-core deployment (§2, §5). 0 derives a
	// default from the host's CPU count (cluster.DefaultLanes); 1 restores
	// the single-engine-per-node behaviour.
	Lanes int
	// Deprecated: nothing reads this field — every engine's participant
	// verbs ride doorbell waves unconditionally. It stays only because
	// the benchmark module sets it; a benchmark-only change drops it.
	VerbBatching bool
	// Faults is the plan of the cluster's fault injector (drop dice,
	// delay spikes, the verb filter partitions honor) — the
	// chaos harness's knob (internal/check). It works on either transport.
	// nil rolls no dice; Cluster.Faults still cuts partitions, then on
	// every verb.
	Faults *transport.FaultPlan
	// WALDir, when non-empty, attaches a write-ahead log to every node
	// under WALDir/node-<id>: commit-point applies append before
	// acknowledging, and whatever a previous incarnation logged there is
	// replayed at construction. Empty runs the cluster volatile.
	WALDir string
	// WALPolicy tunes group commit and snapshotting when WALDir is set;
	// the zero value takes wal.Open's defaults.
	WALPolicy wal.Policy
	// MVCC attaches a cluster-shared commit clock to every node and
	// switches the stores to versioned records: commit-point applies are
	// stamped with clock timestamps, read-only procedures execute on the
	// lock-free snapshot path, and a background loop garbage-collects
	// versions behind the clock's stable point. Works over both
	// transports — all nodes share the process, so the clock is shared
	// directly even when the verbs cross loopback TCP.
	MVCC bool
}

// MVCC garbage collection cadence: the watermark trails the clock's
// stable point by GCRetention timestamps so in-flight snapshot readers
// keep their versions, and advances every GCInterval so version chains
// stay bounded under long-running write workloads.
const (
	GCRetention = 1024
	GCInterval  = 5 * time.Millisecond
)

// Cluster is a fully-wired in-process deployment: fabric, routing
// directory, and the nodes with one engine of each kind apiece.
type Cluster struct {
	// Cfg is the configuration the cluster was built with, defaults
	// applied.
	Cfg Config
	// Net is the simulated fabric; nil when the cluster runs over
	// TransportTCP.
	Net *simfab.Network
	// Faults is the fault injector every node endpoint is wrapped in, on
	// either transport: partitions (a crash is a node cut from all the
	// others) and Cfg.Faults' dice.
	Faults   *transport.Faults
	Topo     *cluster.Topology
	Dir      *cluster.Directory
	Registry *txn.Registry
	Sampler  *stats.Sampler // shared sampler (nil if disabled)
	// Clock is the cluster-shared commit clock (nil unless Cfg.MVCC).
	Clock *storage.Clock

	// nodes is copy-on-write: AddNode publishes a longer slice while
	// coordinators and tooling read the old one lock-free, so cluster
	// growth never stalls in-flight transactions. Node ID == slice index.
	nodes atomic.Pointer[[]*Node]

	mu     sync.Mutex // serializes membership changes and Close
	closed bool
	// recovered reports that a founding node replayed durable state;
	// LoadRecord then yields to recovered values. Fixed at construction.
	recovered bool

	stop chan struct{}  // closed by Close to stop the GC loop
	bg   sync.WaitGroup // the GC loop
}

// NewCluster builds a cluster with the given default partitioner. On
// error everything already built is torn down again.
func NewCluster(cfg Config, def cluster.DefaultPartitioner) (*Cluster, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("deploy: partitions must be positive, got %d: %w", cfg.Partitions, ErrInvalid)
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	c := &Cluster{Registry: txn.NewRegistry(), Faults: transport.NewFaults(cfg.Faults), stop: make(chan struct{})}
	c.Topo, c.Dir = NewDirectory(cfg.Partitions, cfg.Replication, cfg.Lanes, def)
	cfg.Lanes = c.Dir.Lanes()
	switch cfg.Transport {
	case "", TransportSim:
		c.Net = simfab.New(simfab.Config{Latency: cfg.Latency})
	case TransportTCP: // addNode gives every node a fabric of its own
	default:
		return nil, fmt.Errorf("deploy: unknown transport %q: %w", cfg.Transport, ErrInvalid)
	}
	c.Cfg = cfg
	if cfg.SampleRate > 0 {
		c.Sampler = stats.NewSampler(cfg.SampleRate, cfg.Seed+1)
	}
	if cfg.MVCC {
		// One commit clock shared by every node: timestamps are reserved
		// at commit points and released once a transaction's applies have
		// landed cluster-wide, so the clock's stable watermark is a
		// consistent snapshot boundary for the whole deployment.
		c.Clock = storage.NewClock()
	}
	c.nodes.Store(&[]*Node{})
	for p := 0; p < cfg.Partitions; p++ {
		n, err := c.addNode(cluster.PartitionID(p))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.recovered = c.recovered || n.Recovered
	}
	if c.Clock != nil {
		c.bg.Add(1)
		go c.gcLoop()
	}
	return c, nil
}

// Nodes returns the current node list. The slice is immutable once
// published; callers may iterate it without synchronization.
func (c *Cluster) Nodes() []*Node { return *c.nodes.Load() }

// addNode builds node len(Nodes()) on the cluster's fabric, wrapped in
// the cluster's fault injector, and publishes it. Simfab endpoints are
// created on demand; over TCP a fresh fabric listens on a kernel-picked
// loopback port and the address book is merged both ways. No traffic
// addresses the node before it is published, so dial order cannot race
// its listener.
func (c *Cluster) addNode(home cluster.PartitionID) (*Node, error) {
	nodes := c.Nodes()
	id := transport.NodeID(len(nodes))
	var ep transport.Endpoint
	var fab *tcpnet.Fabric
	if c.Net != nil {
		ep = c.Net.Endpoint(id)
	} else {
		var err error
		if fab, err = tcpnet.New(tcpnet.Config{ID: id}); err != nil {
			return nil, fmt.Errorf("deploy: tcp fabric for node %d: %w", id, err)
		}
		addrs := map[transport.NodeID]string{id: fab.Addr()}
		for _, n := range nodes {
			addrs[n.ID()] = n.fab.Addr()
			n.fab.SetPeers(map[transport.NodeID]string{id: fab.Addr()})
		}
		fab.SetPeers(addrs)
		ep = fab
	}
	var schema *storage.Store
	if len(nodes) > 0 {
		schema = nodes[0].Store()
	}
	n, err := newNode(c.Faults.Wrap(ep), fab, home, c.spec(), schema)
	if err != nil {
		if fab != nil {
			fab.Close()
		}
		return nil, err
	}
	grown := append(append(make([]*Node, 0, len(nodes)+1), nodes...), n)
	c.nodes.Store(&grown)
	return n, nil
}

// spec is what every node of the cluster is built with.
func (c *Cluster) spec() Spec {
	return Spec{
		Registry:  c.Registry,
		Dir:       c.Dir,
		Sampler:   c.Sampler,
		Clock:     c.Clock,
		WALDir:    c.Cfg.WALDir,
		WALPolicy: c.Cfg.WALPolicy,
	}
}

// Reopen restarts node i in place, through the production restart path:
// it drains the node's engines, stops its lane executors and closes its
// WAL, then builds a new node on the same endpoint with the construction
// chiller.Open, AddNode and chiller-node run — SetClock → wal.Recover →
// RecoverStore → Clock.AdvanceTo → SetWAL → engines — and publishes it
// in slot i. The new node's handlers replace the old one's on the
// endpoint (over TCP, on the same tcpnet.Fabric, so peers keep their
// connections). Its store starts with the old store's tables and holds
// what the WAL replayed; rerun the loading phase through its LoadRecord,
// which yields to recovered keys. Its transaction and ack ids continue
// the old node's. Call only on a quiesced cluster: no
// transaction may touch the node across the call. On error slot i keeps
// the stopped node, and the cluster is fit only for Close.
func (c *Cluster) Reopen(i int) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("deploy: reopen node %d: cluster closed", i)
	}
	nodes := c.Nodes()
	if i < 0 || i >= len(nodes) {
		return nil, fmt.Errorf("deploy: no node %d: %w", i, ErrInvalid)
	}
	old := nodes[i]
	old.Drain()
	old.Node.Close()
	if err := old.closeWAL(); err != nil {
		return nil, fmt.Errorf("deploy: reopen node %d: %w", i, err)
	}
	// No home partition: server.New keeps none, the topology names what
	// the node serves.
	n, err := newNode(old.Endpoint(), old.fab, -1, c.spec(), old.Store())
	if err != nil {
		return nil, err
	}
	n.ContinueIDs(old.LastIDs()) // quiesced: nothing has minted on n yet
	reopened := append([]*Node(nil), nodes...)
	reopened[i] = n
	c.nodes.Store(&reopened)
	return n, nil
}

// gcLoop periodically raises every store's MVCC GC watermark to the
// commit clock's stable point minus a retention window; each raise
// sweeps the chains it passed on this goroutine. Without it the
// watermark only moves during WAL recovery and version chains grow for
// the lifetime of the process.
func (c *Cluster) gcLoop() {
	defer c.bg.Done()
	t := time.NewTicker(GCInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			if w := c.Clock.Stable(); w > GCRetention {
				for _, n := range c.Nodes() {
					n.Store().SetWatermark(w - GCRetention)
				}
			}
		}
	}
}

// Close tears the cluster down, in the one order that leaks nothing and
// loses nothing: stop the background loop; drain in-flight engine work
// so no background commit hits a closed fabric; stop the fabric (a
// closed fabric delivers no new lane work, so the lanes drain
// deterministically); stop every node's lane executors; and close the
// WALs last, so every record a lane logged is flushed before the files
// are released. Idempotent; returns every node's WAL close error, a
// failed background snapshot's included, joined.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.stop)
	c.bg.Wait()
	nodes := c.Nodes()
	for _, n := range nodes {
		n.Drain()
	}
	if c.Net != nil {
		c.Net.Close()
	}
	for _, n := range nodes {
		n.closeFabric()
	}
	for _, n := range nodes {
		n.Node.Close()
	}
	var errs []error
	for _, n := range nodes {
		errs = append(errs, n.closeWAL())
	}
	return errors.Join(errs...)
}

// Engine returns the engine of the given kind coordinated at node i.
func (c *Cluster) Engine(kind EngineKind, node int) cc.Engine {
	return c.Nodes()[node].Engine(kind)
}

// Drain joins every engine's outstanding background work (async commit
// tails), after which the cluster's lock state is stable.
func (c *Cluster) Drain() {
	for _, n := range c.Nodes() {
		n.Drain()
	}
}

// Settle runs one lane barrier per node: every lane executor drains the
// work queued before the call. With client traffic stopped and engines
// drained (Drain), that completes the quiesce barrier a crash schedule
// needs before it reads a store or reopens a node, on either fabric:
// every replication-stream send is awaited through server.Acks and a
// replica acks only after its apply and WAL flush, so a drained engine
// leaves no apply in flight — only lane work can remain.
func (c *Cluster) Settle() {
	for _, n := range c.Nodes() {
		n.LaneBarrier()
	}
}

// Quiesced reports whether all nodes have drained their participant
// state (no leaked locks).
func (c *Cluster) Quiesced() bool {
	for _, n := range c.Nodes() {
		if n.ActiveTxns() != 0 {
			return false
		}
	}
	return true
}

// CreateTable creates the table on every node (a node stores primary
// data of its own partition and replica data of partitions replicated
// onto it). Create all tables before loading or executing.
func (c *Cluster) CreateTable(id storage.TableID, buckets int) {
	for _, n := range c.Nodes() {
		n.CreateTable(id, buckets)
	}
}

// LoadRecord routes a record to its partition (per the current directory
// state — install partitioning layouts *before* loading) and inserts it
// into the primary store and every replica store, bypassing transaction
// execution. On a cluster that recovered durable state a key the replay
// already restored keeps its recovered value. With CreateTable it
// implements cluster.Loader: it is safe for concurrent use on distinct
// keys (the node list and the directory are read lock-free, and each
// insert takes only its bucket's lock), so cluster.LoadSlices may call
// it from every core.
func (c *Cluster) LoadRecord(table storage.TableID, key storage.Key, value []byte) error {
	pid := c.Dir.Partition(storage.RID{Table: table, Key: key})
	nodes := c.Nodes()
	if err := nodes[c.Topo.Primary(pid)].load(table, key, value, c.recovered); err != nil {
		return err
	}
	for _, r := range c.Topo.Replicas(pid) {
		if err := nodes[r].load(table, key, value, c.recovered); err != nil {
			return err
		}
	}
	return nil
}

// VerifyReplicaConsistency compares, for every partition with replicas,
// the table's records between primary and replica stores. It returns
// the number of mismatching records (0 means consistent). Call only on a
// quiesced cluster.
func (c *Cluster) VerifyReplicaConsistency(table storage.TableID) (mismatches int) {
	nodes := c.Nodes()
	for p := 0; p < c.Cfg.Partitions; p++ {
		pid := cluster.PartitionID(p)
		primary := nodes[c.Topo.Primary(pid)].Store().Table(table)
		if primary == nil {
			continue
		}
		for _, rn := range c.Topo.Replicas(pid) {
			replica := nodes[rn].Store().Table(table)
			if replica == nil {
				mismatches++
				continue
			}
			primary.Range(func(key storage.Key, value []byte, _ uint64) bool {
				if c.Dir.Partition(storage.RID{Table: table, Key: key}) != pid {
					return true // replica data of another partition
				}
				rv, _, err := replica.Bucket(key).Get(key)
				if err != nil || string(rv) != string(value) {
					mismatches++
				}
				return true
			})
		}
	}
	return mismatches
}

// AddNode grows the cluster by one node and returns its ID (the next
// slice index). The node starts empty — it primaries no partition — but
// is a full member: it mirrors the existing schema (so handed-off ranges
// land in tables with matching bucket counts), recovers its WAL when the
// cluster is durable, joins the fabric, and brings a coordinator engine
// of each kind. Hand it data with MovePartition. Traffic keeps flowing
// during the call; nothing is quiesced.
func (c *Cluster) AddNode() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("deploy: add node: cluster closed")
	}
	n, err := c.addNode(-1)
	if err != nil {
		return 0, err
	}
	return int(n.ID()), nil
}

// MovePartition hands primary ownership of partition p to node `to` —
// an existing replica (no backfill; the streams kept it synced) or a
// freshly added node (backfilled over the same streams) — via the
// incremental handoff protocol, while traffic keeps committing
// (docs/ELASTICITY.md). Transactions caught at the cutover abort with
// the retryable moved reason. Afterwards the replica set is trimmed back
// to the configured replication degree: the demoted old primary sits in
// the last replica slot (the join appends the warming node, then the
// promotion swaps the old primary into the promoted node's slot), so
// dropping from the tail frees the old node first — which is the point
// of scaling out.
func (c *Cluster) MovePartition(p, to int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := c.Nodes()
	if p < 0 || p >= c.Cfg.Partitions {
		return fmt.Errorf("deploy: no partition %d: %w", p, ErrInvalid)
	}
	if to < 0 || to >= len(nodes) {
		return fmt.Errorf("deploy: no node %d: %w", to, ErrInvalid)
	}
	pid := cluster.PartitionID(p)
	from := c.Topo.Primary(pid)
	if int(from) == to {
		return nil
	}
	if err := nodes[from].HandoffPartition(pid, transport.NodeID(to)); err != nil {
		return err
	}
	for {
		reps := c.Topo.Replicas(pid)
		if len(reps) <= c.Cfg.Replication-1 {
			return nil
		}
		if err := c.Topo.RemoveReplica(pid, reps[len(reps)-1]); err != nil {
			return fmt.Errorf("deploy: trim replicas of partition %d: %w", p, err)
		}
	}
}

// RemoveNode retires a node from data ownership: every partition it
// primaries is handed to that partition's first synced replica (no
// backfill — fence, drain, flush, flip), and its remaining replica slots
// are dropped. The node object stays alive as an empty coordinator so
// in-flight transactions it started can finish and stream messages still
// addressed to it are acknowledged, not lost. Fails if a primaried
// partition has no replica to absorb it.
func (c *Cluster) RemoveNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := c.Nodes()
	if id < 0 || id >= len(nodes) {
		return fmt.Errorf("deploy: no node %d: %w", id, ErrInvalid)
	}
	nid := transport.NodeID(id)
	for _, part := range c.Topo.Snapshot() {
		if part.Primary != nid {
			continue
		}
		reps := c.Topo.Replicas(part.ID)
		if len(reps) == 0 {
			return fmt.Errorf("deploy: partition %d has no replica to absorb node %d's primary role: %w", part.ID, id, ErrInvalid)
		}
		if err := nodes[id].HandoffPartition(part.ID, reps[0]); err != nil {
			return fmt.Errorf("deploy: partition %d: %w", part.ID, err)
		}
	}
	for _, part := range c.Topo.Snapshot() {
		for _, r := range part.Replicas {
			if r == nid {
				if err := c.Topo.RemoveReplica(part.ID, nid); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}
