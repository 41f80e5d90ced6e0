package chiller

import (
	"errors"
	"fmt"
	"time"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/history"
	"github.com/chillerdb/chiller/internal/storage"
)

var errNilRecorder = errors.New("chiller: nil history recorder")

// EngineKind selects the concurrency-control engine a DB executes with.
type EngineKind string

// The three engines of the paper's evaluation. EngineChiller is the
// default; the 2PL and OCC baselines exist for comparison.
const (
	EngineChiller EngineKind = "Chiller"
	Engine2PL     EngineKind = "2PL"
	EngineOCC     EngineKind = "OCC"
)

// TransportKind selects the fabric a DB runs over.
type TransportKind string

// The two fabrics a DB can be opened on.
const (
	// TransportSim is the default: an embedded, simulated multi-node
	// cluster inside this process, with configurable latency, jitter,
	// and deterministic fault injection.
	TransportSim TransportKind = "simnet"
	// TransportTCP joins a cluster of chiller-node processes over TCP as
	// a coordinator-only client. Requires WithPeers; the
	// simulation-only options (WithPartitions, WithLatency, WithJitter,
	// WithSampling) are rejected with ErrBadConfig, and store-touching
	// DB methods return ErrUnsupported (the data lives in the node
	// processes). See docs/NETWORK.md for the transport semantics.
	TransportTCP TransportKind = "tcp"
)

// config collects Open's settings; Options mutate it.
type config struct {
	partitions  int
	replication int
	latency     time.Duration
	jitter      time.Duration
	lanes       int
	seed        int64
	engine      EngineKind
	partitioner cluster.DefaultPartitioner
	sampleRate  float64
	recorder    *history.Recorder
	walDir      string
	fsync       FsyncPolicy
	mvcc        bool
	// autoRepartition > 0 starts the background repartitioner at that
	// interval (WithAutoRepartition).
	autoRepartition time.Duration

	transport  TransportKind
	listenAddr string
	peers      []string

	// simOnly names every simulation-only option that was explicitly
	// set, so Open can reject the combination with TransportTCP by name.
	simOnly []string
}

// Option configures Open.
type Option func(*config) error

// WithPartitions sets the number of partitions (each backed by one
// simulated node). Default 1.
func WithPartitions(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("chiller: partitions must be positive, got %d: %w", n, ErrBadConfig)
		}
		c.partitions = n
		c.simOnly = append(c.simOnly, "WithPartitions")
		return nil
	}
}

// WithReplication sets the replication degree: 1 means no replicas, 2
// (the paper's evaluation setting) means one synchronous backup per
// partition. Default 1.
func WithReplication(degree int) Option {
	return func(c *config) error {
		if degree <= 0 {
			return fmt.Errorf("chiller: replication degree must be positive, got %d: %w", degree, ErrBadConfig)
		}
		c.replication = degree
		return nil
	}
}

// WithLatency sets the simulated one-way network latency between nodes.
// The paper's InfiniBand EDR testbed sits around 1-2µs; the default is
// 5µs.
func WithLatency(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("chiller: negative latency %v: %w", d, ErrBadConfig)
		}
		c.latency = d
		c.simOnly = append(c.simOnly, "WithLatency")
		return nil
	}
}

// WithJitter adds random extra delay in [0, d) to every message.
func WithJitter(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("chiller: negative jitter %v: %w", d, ErrBadConfig)
		}
		c.jitter = d
		c.simOnly = append(c.simOnly, "WithJitter")
		return nil
	}
}

// WithLanes sets the number of single-threaded execution lanes per node
// — the paper's one-engine-per-core deployment. 0 (the default) derives
// a count from the host's CPUs (capped at 4); 1 restores
// single-engine-per-node behaviour.
func WithLanes(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("chiller: negative lane count %d: %w", n, ErrBadConfig)
		}
		c.lanes = n
		return nil
	}
}

// WithMVCC switches the stores to multi-version records and attaches a
// cluster-shared commit clock: every commit-point apply (primary and
// replica alike) is stamped with a commit timestamp, and procedures
// registered ReadOnly execute on a lock-free snapshot path — they take
// a stable snapshot timestamp, read committed versions without touching
// any lock word, never conflict-abort, and issue zero network verbs for
// partitions this coordinator holds locally (as primary or replica).
// Writing procedures are unaffected and keep full serializability; the
// snapshot path guarantees snapshot isolation for the read-only
// transactions (see docs/MVCC.md). Simulation-only: over TransportTCP
// the stores live in the node processes.
func WithMVCC() Option {
	return func(c *config) error {
		c.mvcc = true
		c.simOnly = append(c.simOnly, "WithMVCC")
		return nil
	}
}

// WithSeed makes the simulated fabric's jitter and sampling
// reproducible.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithEngine selects the concurrency-control engine. Default
// EngineChiller.
func WithEngine(kind EngineKind) Option {
	return func(c *config) error {
		switch kind {
		case EngineChiller, Engine2PL, EngineOCC:
			c.engine = kind
			return nil
		}
		return fmt.Errorf("chiller: unknown engine kind %q: %w", kind, ErrBadConfig)
	}
}

// WithHashPartitioner routes records by a hash of (table, key) — the
// default when no partitioner option is given.
func WithHashPartitioner() Option {
	return func(c *config) error {
		c.partitioner = nil // resolved against the partition count in Open
		return nil
	}
}

// WithRangePartitioner routes each table by dividing its key space
// [0, maxKey) into contiguous per-partition ranges. Tables absent from
// the map fall back to key modulo partitions.
func WithRangePartitioner(maxKey map[Table]Key) Option {
	return func(c *config) error {
		mk := make(map[storage.TableID]storage.Key, len(maxKey))
		for t, k := range maxKey {
			mk[storage.TableID(t)] = storage.Key(k)
		}
		c.partitioner = rangePartitioner{maxKey: mk}
		return nil
	}
}

// WithPartitionFunc installs a custom default partitioner. fn must be
// pure and total: every (table, key) maps to a partition in
// [0, partitions). Hot records relocated by MarkHot or Repartition
// override it through the lookup table.
func WithPartitionFunc(name string, fn func(table Table, key Key) int) Option {
	return func(c *config) error {
		if fn == nil {
			return fmt.Errorf("chiller: nil partition func: %w", ErrBadConfig)
		}
		c.partitioner = funcPartitioner{name: name, fn: fn}
		return nil
	}
}

// WithSampling enables transaction access-set sampling at the given
// rate in (0, 1] (the paper samples ~0.1%, rate 0.001). Sampling feeds
// Repartition; without it Repartition returns an error.
func WithSampling(rate float64) Option {
	return func(c *config) error {
		if rate <= 0 || rate > 1 {
			return fmt.Errorf("chiller: sampling rate %v outside (0, 1]: %w", rate, ErrBadConfig)
		}
		c.sampleRate = rate
		c.simOnly = append(c.simOnly, "WithSampling")
		return nil
	}
}

// WithAutoRepartition starts a background repartitioner: every interval
// the DB runs one Repartition pass over the access samples collected
// since the last pass, relocating records whose contention likelihood
// crossed the threshold and rewriting the hot lookup table — the
// paper's contention-centric partitioning run continuously instead of
// from a maintenance window. Passes with no fresh samples are skipped.
// Requires WithSampling; simulation-only (over TransportTCP the stores
// live in the node processes). See docs/ELASTICITY.md.
func WithAutoRepartition(interval time.Duration) Option {
	return func(c *config) error {
		if interval <= 0 {
			return fmt.Errorf("chiller: auto-repartition interval %v must be positive: %w", interval, ErrBadConfig)
		}
		c.autoRepartition = interval
		c.simOnly = append(c.simOnly, "WithAutoRepartition")
		return nil
	}
}

// FsyncPolicy tunes the write-ahead log's group commit and snapshot
// cadence (see WithDurability). The zero value takes the engine
// defaults. See docs/DURABILITY.md for the trade-offs.
type FsyncPolicy struct {
	// FlushInterval, when > 0, is an opt-in linger: the log holds each
	// group-commit batch open that long after its first record arrives,
	// so more commits share one fsync and every acknowledgement waits
	// that much longer. The default, 0, flushes as soon as there is
	// something to flush — a batch is whatever commits arrived during
	// the previous write+fsync, and a lone commit waits for exactly one.
	FlushInterval time.Duration
	// FlushBytes cuts a linger short once this many unflushed log
	// bytes accumulate on a node (default 256 KiB). It has no effect
	// while FlushInterval is 0.
	FlushBytes int
	// NoSync skips the fsync syscall: records still reach the OS
	// (surviving process death within the same boot) but not a power
	// failure. Substantially faster; the durability contract weakens
	// from crash-safe to process-death-safe.
	NoSync bool
	// SnapshotBytes, when > 0, snapshots a lane's records and truncates
	// its log once the log grows past this many bytes (default: no
	// automatic snapshots; the log grows until Close).
	SnapshotBytes int64
}

// WithDurability attaches a write-ahead log under dir — one directory
// per node, one append-only log per execution lane — making every
// acknowledged commit durable: a transaction's acknowledgement waits
// for its log records' group-commit flush, and a subsequent Open with
// the same dir replays snapshot+tail into the stores before serving
// traffic, so records Loaded or committed in a previous process
// incarnation come back. Simulation-only: over TransportTCP the data
// (and its durability, via chiller-node's -data-dir flag) lives in the
// node processes.
func WithDurability(dir string) Option {
	return func(c *config) error {
		if dir == "" {
			return fmt.Errorf("chiller: empty durability dir: %w", ErrBadConfig)
		}
		c.walDir = dir
		c.simOnly = append(c.simOnly, "WithDurability")
		return nil
	}
}

// WithFsyncPolicy tunes the group-commit and snapshot behaviour of the
// write-ahead log attached by WithDurability (which it requires).
func WithFsyncPolicy(p FsyncPolicy) Option {
	return func(c *config) error {
		if p.FlushInterval < 0 {
			return fmt.Errorf("chiller: negative flush interval %v: %w", p.FlushInterval, ErrBadConfig)
		}
		if p.FlushBytes < 0 {
			return fmt.Errorf("chiller: negative flush bytes %d: %w", p.FlushBytes, ErrBadConfig)
		}
		if p.SnapshotBytes < 0 {
			return fmt.Errorf("chiller: negative snapshot bytes %d: %w", p.SnapshotBytes, ErrBadConfig)
		}
		c.fsync = p
		c.simOnly = append(c.simOnly, "WithFsyncPolicy")
		return nil
	}
}

// WithTransport selects the fabric: TransportSim (the default, an
// embedded simulated cluster) or TransportTCP (join a running
// chiller-node cluster; requires WithPeers). The two transports are
// mutually exclusive with each other's knobs — see TransportTCP for
// which options the TCP client rejects.
func WithTransport(kind TransportKind) Option {
	return func(c *config) error {
		switch kind {
		case TransportSim, TransportTCP:
			c.transport = kind
			return nil
		}
		return fmt.Errorf("chiller: unknown transport %q: %w", kind, ErrBadConfig)
	}
}

// WithPeers lists every node of the TCP cluster to join; index i is
// node i, exactly as the nodes' own -peers flags order them. The
// partition count is derived from the peer list (one partition per
// node), so WithPartitions is rejected alongside it. Only valid with
// WithTransport(TransportTCP).
//
// The client is a full coordinator: replication degree, lane count,
// and partitioner must match what the nodes were started with (they
// shape verb addressing and are not negotiated on the wire).
func WithPeers(addrs ...string) Option {
	return func(c *config) error {
		if len(addrs) == 0 {
			return fmt.Errorf("chiller: WithPeers needs at least one address: %w", ErrBadConfig)
		}
		c.peers = append([]string(nil), addrs...)
		return nil
	}
}

// WithListenAddr sets the TCP client's own listen address (completions
// and replies arrive on connections the client dialed, so the listener
// mostly matters when node processes are expected to dial back; the
// default "127.0.0.1:0" picks a free loopback port). Only valid with
// WithTransport(TransportTCP).
func WithListenAddr(addr string) Option {
	return func(c *config) error {
		if addr == "" {
			return fmt.Errorf("chiller: empty listen address: %w", ErrBadConfig)
		}
		c.listenAddr = addr
		return nil
	}
}

// rangePartitioner adapts cluster.RangePartitioner to a deferred
// partition count (Open fills n after options are applied).
type rangePartitioner struct {
	n      int
	maxKey map[storage.TableID]storage.Key
}

func (r rangePartitioner) Partition(rid storage.RID) cluster.PartitionID {
	return cluster.RangePartitioner{N: r.n, MaxKey: r.maxKey}.Partition(rid)
}

func (r rangePartitioner) Name() string { return "range" }

// funcPartitioner adapts a public partition func.
type funcPartitioner struct {
	name string
	fn   func(Table, Key) int
}

func (f funcPartitioner) Partition(rid storage.RID) cluster.PartitionID {
	return cluster.PartitionID(f.fn(Table(rid.Table), Key(rid.Key)))
}

func (f funcPartitioner) Name() string {
	if f.name == "" {
		return "func"
	}
	return f.name
}
