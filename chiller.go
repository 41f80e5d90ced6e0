package chiller

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/partition/chillerpart"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
	"github.com/chillerdb/chiller/internal/wal"
)

// DB is a Chiller deployment handle: by default an embedded simulated
// multi-partition cluster with one coordinator engine per node, or —
// with WithTransport(TransportTCP) — a coordinator-only client joined
// to a cluster of chiller-node processes, executing registered stored
// procedures either way. It is the one supported way to embed the
// system; the internal packages carry no compatibility promise.
//
// A DB is safe for concurrent use. Execute calls may run from any number
// of goroutines; each is an independent coordinator.
type DB struct {
	cfg config
	// Exactly one of c and client is set: the embedded in-process
	// deployment, or the coordinator-only member of a chiller-node
	// cluster. Both are assembled by internal/deploy, the same code the
	// benchmark harness and the black-box checker run.
	c      *deploy.Cluster
	client *deploy.Client
	// topo, dir and registry are the deployment's, whichever it is.
	topo     *cluster.Topology
	dir      *cluster.Directory
	registry *txn.Registry

	next   atomic.Uint64 // round-robin coordinator choice
	closed atomic.Bool
	mu     sync.Mutex // serializes Close, Repartition, and membership changes

	stopBg chan struct{}  // closed by Close to stop the auto-repartition loop
	bg     sync.WaitGroup // the auto-repartition loop
}

// nodeList returns the current coordinator nodes. The slice is immutable
// once published (AddNode swaps in a longer one), so Execute and the
// tooling paths read it lock-free and cluster growth never stalls
// in-flight transactions.
func (db *DB) nodeList() []*deploy.Node {
	if db.client != nil {
		return db.client.Nodes()
	}
	return db.c.Nodes()
}

// Open assembles a cluster and returns the embedded database handle.
// With no options it is a single-partition, single-replica deployment of
// the Chiller engine with a hash partitioner and 5µs simulated one-way
// latency.
//
//	db, err := chiller.Open(
//		chiller.WithPartitions(4),
//		chiller.WithReplication(2),
//		chiller.WithEngine(chiller.EngineChiller),
//	)
//
// With WithTransport(TransportTCP) the handle instead joins a running
// cluster of chiller-node processes as a coordinator-only client:
//
//	db, err := chiller.Open(
//		chiller.WithTransport(chiller.TransportTCP),
//		chiller.WithPeers("127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"),
//		chiller.WithReplication(2), // must match the nodes
//	)
//
// The caller owns the handle and must Close it; Close drains in-flight
// background commit work before tearing the fabric down, so a returned
// Close means the cluster is quiesced.
func Open(opts ...Option) (*DB, error) {
	cfg := config{
		partitions:  1,
		replication: 1,
		latency:     5 * time.Microsecond,
		engine:      EngineChiller,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.transport == "" {
		cfg.transport = TransportSim
	}
	switch cfg.transport {
	case TransportSim:
		if len(cfg.peers) > 0 {
			return nil, fmt.Errorf("chiller: WithPeers requires WithTransport(TransportTCP): %w", ErrBadConfig)
		}
		if cfg.listenAddr != "" {
			return nil, fmt.Errorf("chiller: WithListenAddr requires WithTransport(TransportTCP): %w", ErrBadConfig)
		}
	case TransportTCP:
		if len(cfg.peers) == 0 {
			return nil, fmt.Errorf("chiller: WithTransport(TransportTCP) requires WithPeers: %w", ErrBadConfig)
		}
		if len(cfg.simOnly) > 0 {
			return nil, fmt.Errorf("chiller: %s is simulation-only and cannot combine with WithTransport(TransportTCP): %w",
				cfg.simOnly[0], ErrBadConfig)
		}
		// One partition per node process; the client owns none of them.
		cfg.partitions = len(cfg.peers)
	}
	switch p := cfg.partitioner.(type) {
	case nil:
		cfg.partitioner = cluster.HashPartitioner{N: cfg.partitions}
	case rangePartitioner:
		p.n = cfg.partitions
		cfg.partitioner = p
	}

	if cfg.fsync != (FsyncPolicy{}) && cfg.walDir == "" {
		return nil, fmt.Errorf("chiller: WithFsyncPolicy requires WithDurability: %w", ErrBadConfig)
	}
	if cfg.autoRepartition > 0 && cfg.sampleRate <= 0 {
		return nil, fmt.Errorf("chiller: WithAutoRepartition requires WithSampling: %w", ErrBadConfig)
	}

	if cfg.transport == TransportTCP {
		return openTCP(cfg)
	}

	c, err := deploy.NewCluster(deploy.Config{
		Partitions:  cfg.partitions,
		Replication: cfg.replication,
		Latency:     cfg.latency,
		Jitter:      cfg.jitter,
		Seed:        cfg.seed,
		SampleRate:  cfg.sampleRate,
		Lanes:       cfg.lanes,
		WALDir:      cfg.walDir,
		WALPolicy: wal.Policy{
			FlushInterval: cfg.fsync.FlushInterval,
			FlushBytes:    cfg.fsync.FlushBytes,
			NoSync:        cfg.fsync.NoSync,
			SnapshotBytes: cfg.fsync.SnapshotBytes,
		},
		MVCC: cfg.mvcc,
	}, cfg.partitioner)
	if err != nil {
		return nil, fmt.Errorf("chiller: %w", err)
	}
	db := &DB{cfg: cfg, c: c, topo: c.Topo, dir: c.Dir, registry: c.Registry, stopBg: make(chan struct{})}
	if cfg.autoRepartition > 0 {
		db.bg.Add(1)
		go db.autoRepartitionLoop()
	}
	return db, nil
}

// openTCP joins a chiller-node cluster as a coordinator-only client
// (deploy.Connect): every locality check in the coordination paths
// resolves to a remote verb over the socket. The client's topology,
// directory, and registry must mirror the nodes' — Register the same
// procedures the nodes registered before Execute.
func openTCP(cfg config) (*DB, error) {
	cl, err := deploy.Connect(deploy.ClientConfig{
		Peers:       cfg.peers,
		ListenAddr:  cfg.listenAddr,
		Replication: cfg.replication,
		Lanes:       cfg.lanes,
	}, cfg.partitioner)
	if err != nil {
		return nil, fmt.Errorf("chiller: %w", err)
	}
	return &DB{cfg: cfg, client: cl, topo: cl.Topo, dir: cl.Dir, registry: cl.Registry, stopBg: make(chan struct{})}, nil
}

// unsupported returns the typed rejection for store-touching methods on
// a TCP-client DB (nil on the embedded simulated deployment, where the
// stores are in-process).
func (db *DB) unsupported(op string) error {
	if db.client != nil {
		return fmt.Errorf("chiller: %s over tcp: %w", op, ErrUnsupported)
	}
	return nil
}

// Close quiesces and tears the cluster down: every engine's outstanding
// background commit work is drained first (so no async commit tail hits
// a closed fabric and no lock outlives the handle), then the fabric and
// the nodes' lane executors stop. Close is idempotent; after it every
// other method returns ErrClosed.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	// Stop the auto-repartition loop before taking db.mu: it acquires
	// db.mu inside Repartition, so waiting for it while holding the lock
	// would deadlock.
	close(db.stopBg)
	db.bg.Wait()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.client != nil {
		return db.client.Close()
	}
	return db.c.Close()
}

// Partitions returns the partition count the DB was opened with.
func (db *DB) Partitions() int { return db.cfg.partitions }

// CreateTable creates a table on every node with the given bucket count
// (buckets are the unit of locking; size generously for hot tables).
// Create all tables before loading or executing.
func (db *DB) CreateTable(t Table, buckets int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("CreateTable"); err != nil {
		return err
	}
	db.c.CreateTable(storage.TableID(t), buckets)
	return nil
}

// Register validates and registers a stored procedure on every node.
func (db *DB) Register(p *Proc) error {
	if db.closed.Load() {
		return ErrClosed
	}
	proc, err := p.build()
	if err != nil {
		return err
	}
	return db.registry.Register(proc)
}

// Load inserts a record directly, bypassing transaction execution: it
// routes by the current directory state and writes the primary and every
// replica copy. Use it for initial data loading, before traffic.
//
// On a DB recovered from a WithDurability dir, Load yields to recovery:
// a key the replayed log already holds keeps its recovered value (which
// reflects committed transactions, strictly newer than initial data),
// so restart code can rerun its loading phase unconditionally.
func (db *DB) Load(t Table, key Key, value []byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("Load"); err != nil {
		return err
	}
	if err := db.c.LoadRecord(storage.TableID(t), storage.Key(key), value); err != nil {
		return fmt.Errorf("chiller: load %d/%d: %w", t, key, err)
	}
	return nil
}

// Get reads a record's current value from its primary store, outside
// any transaction — a point-in-time peek for tooling and tests, not a
// consistent read (use a Read op in a procedure for that). Background
// commit tails of already-committed transactions are drained first, so
// a Get after a committed Execute observes that transaction's writes.
func (db *DB) Get(t Table, key Key) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if err := db.unsupported("Get"); err != nil {
		return nil, err
	}
	db.c.Drain()
	rid := storage.RID{Table: storage.TableID(t), Key: storage.Key(key)}
	tbl := db.c.Nodes()[db.dir.PrimaryOf(rid)].Store().Table(rid.Table)
	if tbl == nil {
		return nil, fmt.Errorf("chiller: table %d: %w", t, ErrNotFound)
	}
	v, _, err := tbl.Bucket(rid.Key).Get(rid.Key)
	if err != nil {
		return nil, fmt.Errorf("chiller: get %d/%d: %w", t, key, ErrNotFound)
	}
	// Copy out: the store's value buffers are shared with concurrent
	// readers and replicas; handing one to the caller would let writes
	// through the returned slice corrupt the database.
	return append([]byte(nil), v...), nil
}

// Result reports a committed transaction's outcome.
type Result struct {
	// Distributed reports whether more than one node took part in the
	// transaction (a snapshot read served entirely from partitions the
	// coordinating node holds is not distributed).
	Distributed bool

	reads txn.ReadSet
}

// Read returns a copy of the value read by the operation with the
// given ID (Op.ID), ok=false if the op read nothing.
func (r Result) Read(opID int) (val []byte, ok bool) {
	v, ok := r.reads[opID]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Execute runs one transaction of the named registered procedure to a
// single commit-or-abort outcome; it does not retry (see
// ExecuteWithRetry). On commit the error is nil. On abort the error
// wraps the typed taxonomy — errors.Is(err, ErrAborted) is true, along
// with the specific reason sentinel (ErrLockConflict, ErrConstraint,
// ErrNotFound, ...).
//
// ctx cancellation or deadline expiry aborts the transaction cleanly at
// the next protocol boundary before its commit point: all locks it
// acquired are released and the error wraps ctx.Err(). A ctx that is
// already done returns before any network verb is issued. Once a
// transaction passes its commit point it completes regardless of ctx.
func (db *DB) Execute(ctx context.Context, proc string, args ...int64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("chiller: %s not started: %w", proc, err)
	}
	if db.closed.Load() {
		return Result{}, ErrClosed
	}
	p := db.registry.Lookup(proc)
	if p == nil {
		return Result{}, fmt.Errorf("chiller: %q: %w", proc, ErrUnknownProc)
	}
	nodes := db.nodeList()
	engine := nodes[int(db.next.Add(1)%uint64(len(nodes)))].Engine(deploy.EngineKind(db.cfg.engine))
	req := &txn.Request{Proc: proc, Args: txn.Args(args)}
	res := engine.Run(ctx, req)
	if db.cfg.recorder != nil {
		// WithHistoryRecorder: record every outcome at the engine
		// boundary (reads observed, writes installed).
		db.cfg.recorder.Observe(p, req, &res)
	}
	if !res.Committed {
		return Result{Distributed: res.Distributed}, abortError(ctx, proc, res)
	}
	return Result{Distributed: res.Distributed, reads: res.Reads}, nil
}

// MarkHot adds the record to the hot lookup table at its current home
// partition, enabling the two-region execution path for transactions
// touching it. Equivalent to what Repartition derives from sampled
// statistics, for workloads that know their celebrities up front.
func (db *DB) MarkHot(t Table, key Key) error {
	return db.MarkHotWeight(t, key, 1)
}

// MarkHotWeight is MarkHot with an explicit contention weight: when a
// transaction touches several hot records on different partitions, the
// engine places its inner region on the partition carrying the most
// contention mass.
func (db *DB) MarkHotWeight(t Table, key Key, weight float64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("MarkHot"); err != nil {
		return err
	}
	if weight <= 0 {
		return fmt.Errorf("chiller: hot weight %v must be positive", weight)
	}
	rid := storage.RID{Table: storage.TableID(t), Key: storage.Key(key)}
	db.dir.SetHotWeight(rid, db.dir.Partition(rid), weight)
	return nil
}

// RepartitionReport summarizes one Repartition pass.
type RepartitionReport struct {
	// SampledTxns is the number of transaction samples consumed.
	SampledTxns int
	// HotRecords is the number of records whose contention likelihood
	// crossed the threshold and earned a lookup-table entry.
	HotRecords int
	// Moved is the number of hot records physically relocated to a new
	// home partition.
	Moved int
	// LookupTableSize is the routing-metadata size after the pass.
	LookupTableSize int
}

// Repartition runs the contention-centric partitioner (§4.2-4.4 of the
// paper) over the access samples collected since the last pass: records
// whose contention likelihood crosses the threshold are placed — and
// physically moved — so transactions co-locate with their contended
// data, and the hot lookup table is rewritten. Requires WithSampling;
// a pass that finds no sample to work from changes nothing and returns
// ErrNoSamples.
//
// Call it from a maintenance window: in-flight transactions racing a
// repartition pass may abort against moving records. ctx is consulted
// between phases; a cancelled pass leaves the previous layout intact.
func (db *DB) Repartition(ctx context.Context) (RepartitionReport, error) {
	if db.closed.Load() {
		return RepartitionReport{}, ErrClosed
	}
	if err := db.unsupported("Repartition"); err != nil {
		return RepartitionReport{}, err
	}
	if db.c.Sampler == nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition needs sampling: Open with WithSampling")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
	}

	samples := db.c.Sampler.Drain()
	if len(samples) == 0 {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", ErrNoSamples)
	}
	agg := stats.NewAggregate()
	agg.Add(samples)
	// Lock windows: treat the sampling frame as ~5 samples per window,
	// the same heuristic the benchmark harness uses.
	agg.Finalize(db.cfg.sampleRate, float64(len(samples))/5)

	res, err := chillerpart.Partition(agg, chillerpart.Config{
		K:     db.cfg.partitions,
		Lanes: db.dir.Lanes(),
		Seed:  db.cfg.seed,
	})
	if err != nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
	}

	// Relocate hot records whose new home differs from their current
	// partition. The pass must not lose writes racing it: for each
	// moving record the old primary bucket's lock word is held
	// exclusively across the whole move, so concurrent writers hit a
	// NO_WAIT conflict and retry instead of committing into the copy
	// window; the value is re-read under that lock, the copies land at
	// the new home BEFORE the layout flips routing to it, and the old
	// copies are deleted only after the flip. Load-time replicas of
	// unmoved records are untouched.
	type move struct {
		rid      storage.RID
		val      []byte
		from, to cluster.PartitionID
	}
	nodes := db.c.Nodes()
	locked := map[*storage.Bucket]bool{}
	unlockAll := func() {
		for b := range locked {
			b.Lock.Unlock(storage.LockExclusive)
		}
	}
	var moves []move
	// A record the new layout no longer lists goes home to its default
	// partition — a move like any other, not a mere routing flip onto
	// whatever copy sits there.
	homes := make(map[storage.RID]cluster.PartitionID, len(res.Layout.Hot))
	for rid := range db.dir.HotEntries() {
		homes[rid] = db.dir.Default().Partition(rid)
	}
	for rid, p := range res.Layout.Hot {
		homes[rid] = p
	}
	for rid, newPID := range homes {
		oldPID := db.dir.Partition(rid)
		if oldPID == newPID {
			continue
		}
		primary := nodes[int(db.topo.Primary(oldPID))]
		tbl := primary.Store().Table(rid.Table)
		if tbl == nil {
			continue
		}
		b := tbl.Bucket(rid.Key)
		// Two hot records can share a bucket; lock each bucket once.
		for !locked[b] {
			if !b.Lock.TryLock(storage.LockExclusive) {
				if err := ctx.Err(); err != nil {
					unlockAll()
					return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
				}
				time.Sleep(2 * time.Microsecond)
				continue
			}
			locked[b] = true
		}
		// The lock stops new commits on the record, but an inner region
		// unlocks at its commit point, before its replicas applied the
		// stream: flush the old primary's streams, or a straggling
		// message overwrites the copy below and a committed write is lost.
		if err := primary.FlushStreams(oldPID, 0, false); err != nil {
			unlockAll()
			return RepartitionReport{}, fmt.Errorf("chiller: repartition: %w", err)
		}
		v, _, err := b.Get(rid.Key)
		if err != nil {
			continue // sampled but since deleted
		}
		moves = append(moves, move{rid: rid, val: v, from: oldPID, to: newPID})
	}
	// Copies first: a transaction routed by the new layout the instant
	// it installs must find its record already at the new home.
	holds := make([]map[transport.NodeID]bool, len(moves))
	for i, m := range moves {
		holds[i] = make(map[transport.NodeID]bool)
		for _, target := range append([]transport.NodeID{db.topo.Primary(m.to)}, db.topo.Replicas(m.to)...) {
			if tbl := nodes[int(target)].Store().Table(m.rid.Table); tbl != nil {
				tbl.Bucket(m.rid.Key).Upsert(m.rid.Key, m.val)
				holds[i][target] = true
			}
		}
	}
	res.Layout.Install(db.dir)
	for i, m := range moves {
		// With few nodes the old and new homes may share physical
		// machines (a node primaries one partition and replicates
		// another); delete only from nodes that hold no copy under the
		// new placement.
		for _, target := range append([]transport.NodeID{db.topo.Primary(m.from)}, db.topo.Replicas(m.from)...) {
			if holds[i][target] {
				continue
			}
			if tbl := nodes[int(target)].Store().Table(m.rid.Table); tbl != nil {
				_ = tbl.Bucket(m.rid.Key).Delete(m.rid.Key)
			}
		}
	}
	unlockAll()

	return RepartitionReport{
		SampledTxns:     len(samples),
		HotRecords:      len(res.Layout.Hot),
		Moved:           len(moves),
		LookupTableSize: db.dir.LookupTableSize(),
	}, nil
}

// autoRepartitionLoop runs a Repartition pass every WithAutoRepartition
// interval. Passes are best-effort: one with no fresh samples
// (ErrNoSamples) is a no-op tick, and any other failure — a pass racing
// Close, say — is skipped, not fatal.
func (db *DB) autoRepartitionLoop() {
	defer db.bg.Done()
	t := time.NewTicker(db.cfg.autoRepartition)
	defer t.Stop()
	for {
		select {
		case <-db.stopBg:
			return
		case <-t.C:
			_, _ = db.Repartition(context.Background())
		}
	}
}

// membershipError wraps a deploy membership failure into the public
// taxonomy: a request naming a node or partition that does not exist (or
// one the layout cannot satisfy) is ErrBadConfig.
func membershipError(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	op := fmt.Sprintf(format, args...)
	if errors.Is(err, deploy.ErrInvalid) {
		return fmt.Errorf("chiller: %s: %v: %w", op, err, ErrBadConfig)
	}
	return fmt.Errorf("chiller: %s: %w", op, err)
}

// AddNode grows the simulated cluster by one node and returns its ID.
// The node starts empty — it primaries no partition — but is a full
// cluster member: it mirrors the existing schema, joins the fabric, and
// contributes a coordinator engine to Execute's round-robin. Hand it
// data with MovePartition. Traffic keeps flowing during the call;
// nothing is quiesced.
func (db *DB) AddNode() (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if err := db.unsupported("AddNode"); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	id, err := db.c.AddNode()
	return id, membershipError(err, "add node")
}

// MovePartition hands primary ownership of partition p to the given
// node via the incremental handoff protocol (see docs/ELASTICITY.md):
// the target warms up on the live replication stream while a backfill
// copies the partition's records behind it, then a brief per-partition
// fence drains pinned transactions and flips the routing. Transactions
// caught mid-flight abort with ErrMoved and succeed on retry against
// the new primary; no other partition is disturbed.
func (db *DB) MovePartition(p int, node int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("MovePartition"); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return membershipError(db.c.MovePartition(p, node), "move partition %d", p)
}

// RemoveNode retires a node from data ownership: every partition it
// primaries is handed off to that partition's first synced replica (no
// backfill needed — the replica already holds the data), and its
// remaining replica slots are dropped. The node object stays alive as
// an empty coordinator so in-flight transactions it started can finish;
// it owns no data afterwards. Fails if a primaried partition has no
// replica to absorb it.
func (db *DB) RemoveNode(id int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.unsupported("RemoveNode"); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return membershipError(db.c.RemoveNode(id), "remove node %d", id)
}
