package check

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/history"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport/simfab"
	"github.com/chillerdb/chiller/internal/wal"
)

// The chaos harness: assemble a cluster, wrap every engine in a history
// recorder, drive randomized multi-key traffic under an injected fault
// schedule, then hand the recorded history to the checker. One Run is
// one cell of the cross-product matrix (engine × lanes × transport ×
// faults) the nightly job sweeps.

// Faults configures the harness's fault schedule.
type Faults struct {
	// DropProb drops each pre-commit verb send with this probability
	// (exercising the abort/retry path).
	DropProb float64
	// DelayProb/DelaySpike hit any message with an extra latency spike.
	DelayProb  float64
	DelaySpike time.Duration
	// PartitionWindows cuts a random node pair for WindowLen, heals,
	// waits WindowGap, and repeats this many times during the run.
	PartitionWindows int
	WindowLen        time.Duration
	WindowGap        time.Duration
}

// DefaultFaults is the schedule the checker matrix runs with.
func DefaultFaults() *Faults {
	return &Faults{
		DropProb:         0.02,
		DelayProb:        0.02,
		DelaySpike:       200 * time.Microsecond,
		PartitionWindows: 3,
		WindowLen:        2 * time.Millisecond,
		WindowGap:        3 * time.Millisecond,
	}
}

// Config sizes one harness run.
type Config struct {
	// Engine picks the cell's engine.
	Engine bench.EngineKind
	// Transport selects the fabric: bench.TransportSim (default) or
	// bench.TransportTCP, which runs the cell over real loopback sockets
	// — one tcpnet fabric per node, every verb crossing the kernel.
	// Fault injection (Faults) is simnet-only: the simulator owns the
	// drop dice and partition filters, so a TCP cell must run with
	// Faults == nil. What the TCP cell buys is black-box checking of the
	// real wire path: framing, per-connection FIFO, and the inline
	// dispatch ordering all feed the same serializability checker.
	Transport string
	// Partitions, Replication, Lanes size the cluster (defaults 3, 2, 1).
	Partitions  int
	Replication int
	Lanes       int
	// Latency is the simulated one-way latency (default 2µs).
	Latency time.Duration
	// Seed makes the run's workload and fault dice reproducible.
	Seed int64
	// Clients is the number of concurrent clients per partition
	// (default 3); Txns is how many transactions each client commits
	// (default 15).
	Clients int
	Txns    int
	// Keys is the number of records per partition (default 16).
	Keys int
	// Faults is the fault schedule; nil runs a reliable fabric.
	Faults *Faults

	// MVCC runs the cell with versioned stores and a cluster commit
	// clock: the workload's read-only slice switches to ProcSRO (the
	// snapshot path — no locks, no lane scheduling), and certification
	// splits per the MVCC contract — the writing transactions must stay
	// serializable, the snapshot reads must observe snapshot isolation
	// (Result.SI). Works over both transports: the bench cluster keeps
	// every node in one process, so the clock is shareable even when the
	// verbs cross loopback TCP.
	MVCC bool

	// Crash enables the crash-restart schedule: every node gets a
	// write-ahead log, and between two workload phases a seeded-random
	// node is crashed (its links cut), its volatile store wiped, the
	// deployment image re-loaded, and the WAL replayed on top. The node
	// stays down into phase two — transactions needing it abort and
	// retry — and is revived mid-phase. Every end-of-run check (history
	// serializability, replica consistency, quiesce) then covers the
	// recovered state, and a direct pre-crash/post-recovery diff counts
	// acknowledged-then-lost commits as named violations. Simnet only.
	Crash bool
	// Promote additionally runs the primary-death recovery protocol: the
	// crashed node's partition is promoted to one of its replicas while
	// the node is down, phase-two clients of that partition coordinate
	// at the new primary, and the recovered node rejoins as a replica.
	// Requires Crash and Replication >= 2.
	Promote bool
	// Elastic runs a membership-change schedule concurrently with the
	// workload: a fresh node joins mid-phase and receives a seeded-random
	// partition through the incremental handoff protocol (warming stream
	// + backfill + fenced cutover — see docs/ELASTICITY.md), serves it
	// under live traffic, hands it back, and is retired. Clients caught
	// at a cutover see retryable moved-aborts and must stay within their
	// retry budget; after the run a lost-key oracle asserts every loaded
	// key is still present at its current primary (Result.LostKeys).
	// Works over both transports; incompatible with Crash.
	Elastic bool
	// WALDir roots the per-node logs when Crash is set; empty uses a
	// fresh temp dir, removed when the run ends.
	WALDir string
	// WALPolicy tunes group commit/snapshotting for crash cells; the
	// zero value takes the harness default, the policy the benchmark
	// and the public API's NoSync run (NoSync — the simulated crash
	// never loses the page cache — and nothing else set).
	WALPolicy wal.Policy
	// ForgeLostCommit is the checker-sensitivity hook: after recovery
	// it silently reverts one recovered record to its initial value,
	// forging a lost acknowledged commit the run MUST flag.
	ForgeLostCommit bool
}

func (cfg *Config) defaults() {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 3
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > cfg.Partitions {
		cfg.Replication = cfg.Partitions
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 2 * time.Microsecond
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 3
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 15
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 16
	}
	if cfg.Engine == "" {
		cfg.Engine = bench.EngineChiller
	}
}

// Result is one harness run's outcome.
type Result struct {
	// Recorder holds the full history (for artifacts on failure).
	Recorder *history.Recorder
	// Report is the checker's verdict over the history. On an MVCC cell
	// this is the writers-only serializability verdict (SI.WriterReport);
	// the snapshot reads are certified separately in SI.
	Report *Report
	// SI is the snapshot-isolation verdict over the full history
	// (writers + snapshot readers); nil unless Config.MVCC.
	SI *SIReport
	// Committed and Aborted count transaction attempts; GaveUp counts
	// client slots that exhausted their retry budget (0 on a healthy
	// run — fault windows heal well inside the budget).
	Committed, Aborted, GaveUp int
	// ReplicaMismatches is the post-quiesce primary/replica diff count.
	ReplicaMismatches int
	// Quiesced reports whether every node drained its participant state
	// (no leaked locks).
	Quiesced bool
	// LostCommits counts records whose post-recovery value diverged
	// from the crashed node's acknowledged pre-crash state — each one
	// is an acknowledged-then-lost commit, the violation durability
	// exists to rule out. Always 0 without Config.Crash.
	LostCommits int
	// CrashedNode is the node the crash schedule hit (-1 when none).
	CrashedNode int
	// LostKeys counts loaded keys absent from their current primary
	// after the membership schedule settled — each one is a record the
	// handoff dropped. Always 0 without Config.Elastic.
	LostKeys int
	// ElasticNode is the node the membership schedule added (-1 when
	// none).
	ElasticNode int
}

// Err folds every end-of-run assertion into one error: the history must
// check serializable, replicas must converge, and no lock may leak.
func (r *Result) Err() error {
	if r.SI != nil {
		// SI.Err covers both halves of the MVCC contract: writers
		// serializable, snapshot reads SI.
		if err := r.SI.Err(); err != nil {
			return err
		}
	} else if err := r.Report.Err(); err != nil {
		return err
	}
	if r.LostCommits != 0 {
		return fmt.Errorf("check: %d lost acknowledged commits (recovered state diverged from pre-crash state)", r.LostCommits)
	}
	if r.LostKeys != 0 {
		return fmt.Errorf("check: %d keys missing from their primary after handoff", r.LostKeys)
	}
	if r.ReplicaMismatches != 0 {
		return fmt.Errorf("check: %d replica mismatches after quiesce", r.ReplicaMismatches)
	}
	if !r.Quiesced {
		return fmt.Errorf("check: cluster did not quiesce (leaked participant state)")
	}
	if r.GaveUp > 0 {
		return fmt.Errorf("check: %d transactions exhausted their retry budget", r.GaveUp)
	}
	return nil
}

// Run executes one chaos cell and checks its history.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Transport == bench.TransportTCP && cfg.Faults != nil {
		return nil, fmt.Errorf("check: fault injection requires the simnet transport")
	}
	if cfg.Crash && cfg.Transport == bench.TransportTCP {
		return nil, fmt.Errorf("check: the crash schedule requires the simnet transport")
	}
	if cfg.Promote && (!cfg.Crash || cfg.Replication < 2) {
		return nil, fmt.Errorf("check: Promote requires Crash and Replication >= 2")
	}
	if cfg.Elastic && cfg.Crash {
		return nil, fmt.Errorf("check: Elastic and Crash schedules cannot combine")
	}

	var plan *simfab.FaultPlan
	if cfg.Faults != nil {
		plan = &simfab.FaultPlan{
			Seed:       cfg.Seed,
			DropProb:   cfg.Faults.DropProb,
			DelayProb:  cfg.Faults.DelayProb,
			DelaySpike: cfg.Faults.DelaySpike,
			Droppable:  server.PreCommitVerbs,
		}
	} else if cfg.Crash {
		// A crash needs a verb filter even with no drop dice: Crash cuts
		// only droppable verbs (the protected control plane must drain),
		// and a nil plan would make every verb fair game.
		plan = &simfab.FaultPlan{Seed: cfg.Seed, Droppable: server.PreCommitVerbs}
	}
	walDir := cfg.WALDir
	if cfg.Crash && walDir == "" {
		d, err := os.MkdirTemp("", "chiller-wal-")
		if err != nil {
			return nil, fmt.Errorf("check: wal dir: %w", err)
		}
		defer os.RemoveAll(d)
		walDir = d
	}
	walPolicy := cfg.WALPolicy
	if cfg.Crash && walPolicy == (wal.Policy{}) {
		// The simulated crash keeps the process (and so the page cache)
		// alive, so NoSync loses nothing while keeping the cell fast.
		walPolicy = wal.Policy{NoSync: true}
	}
	maxKey := storage.Key(cfg.Partitions * cfg.Keys)
	c := bench.NewCluster(bench.ClusterConfig{
		Transport:   cfg.Transport,
		Partitions:  cfg.Partitions,
		Replication: cfg.Replication,
		Latency:     cfg.Latency,
		Seed:        cfg.Seed,
		Lanes:       cfg.Lanes,
		MVCC:        cfg.MVCC,
		Faults:      plan,
		WALDir:      walDir,
		WALPolicy:   walPolicy,
	}, cluster.RangePartitioner{N: cfg.Partitions, MaxKey: map[storage.TableID]storage.Key{CheckTable: maxKey}})
	defer c.Close()

	if err := RegisterProcs(c.Registry); err != nil {
		return nil, err
	}
	c.CreateTable(CheckTable, 4096)
	for k := storage.Key(0); k < maxKey; k++ {
		if err := c.LoadRecord(CheckTable, k, InitialVal(k)); err != nil {
			return nil, err
		}
	}

	gen := &Generator{
		Partitions:    cfg.Partitions,
		Keys:          cfg.Keys,
		HotProb:       0.6,
		RemoteProb:    0.5,
		SnapshotReads: cfg.MVCC,
	}
	// Mark each partition's celebrity hot so Chiller exercises the
	// two-region path (ignored by 2PL/OCC).
	for p := 0; p < cfg.Partitions; p++ {
		rid := storage.RID{Table: CheckTable, Key: gen.HotKey(p)}
		c.Dir.SetHot(rid, c.Dir.Default().Partition(rid))
	}

	rec := history.NewRecorder()
	engines := make([]cc.Engine, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		engines[p] = history.Engine(c.Engine(cfg.Engine, p), c.Registry, rec)
	}

	// One workload phase: a fault-window goroutine (partition windows cut
	// a seeded-random node pair, heal, pause, repeat — only pre-commit
	// verbs are blocked, so in-flight commit tails finish and the cluster
	// stays live) plus retry-until-commit clients with a fresh nonce per
	// attempt (the checker needs every attempt's writes unique) and
	// jittered backoff. Every abort reason is retried — including a
	// snapshot read gone stale under the MVCC cells' moving GC watermark,
	// which re-snapshots on the next attempt (as ExecuteWithRetry does).
	// engs maps each partition to the engine its clients coordinate at —
	// normally engs[p] runs on node p; after a promotion the crashed
	// partition's slot points at the new primary.
	var nonces atomic.Int64
	var committed, aborted, gaveUp atomic.Int64
	const maxAttempts = 2000
	runPhase := func(phase int, engs []cc.Engine) {
		stopFaults := make(chan struct{})
		var faultWG sync.WaitGroup
		if cfg.Faults != nil && cfg.Faults.PartitionWindows > 0 && cfg.Partitions > 1 {
			faultWG.Add(1)
			go func() {
				defer faultWG.Done()
				frng := rand.New(rand.NewSource(cfg.Seed ^ 0x7a57 + int64(phase)*0x9e37))
				for i := 0; i < cfg.Faults.PartitionWindows; i++ {
					a := simfab.NodeID(frng.Intn(cfg.Partitions))
					b := simfab.NodeID((int(a) + 1 + frng.Intn(cfg.Partitions-1)) % cfg.Partitions)
					c.Net.Partition(a, b)
					if !sleepOrStop(stopFaults, cfg.Faults.WindowLen) {
						c.Net.Heal(a, b)
						return
					}
					c.Net.Heal(a, b)
					if !sleepOrStop(stopFaults, cfg.Faults.WindowGap) {
						return
					}
				}
			}()
		}
		var wg sync.WaitGroup
		for p := 0; p < cfg.Partitions; p++ {
			for cl := 0; cl < cfg.Clients; cl++ {
				wg.Add(1)
				go func(part, client int) {
					defer wg.Done()
					eng := engs[part]
					rng := rand.New(rand.NewSource(cfg.Seed + int64(part*1009+client)*7919 + int64(phase)*31337))
					for i := 0; i < cfg.Txns; i++ {
						req := gen.Next(part, rng)
						ok := false
						for attempt := 0; attempt < maxAttempts; attempt++ {
							req.Args[len(req.Args)-1] = nonces.Add(1)
							req.ID = 0
							res := eng.Run(context.Background(), req)
							if res.Committed {
								committed.Add(1)
								ok = true
								break
							}
							aborted.Add(1)
							// Jittered exponential backoff, capped so a whole
							// partition window fits in the retry budget.
							time.Sleep(cc.Jitter(rng, cc.BackoffCeiling(attempt+1, 2*time.Microsecond, 256*time.Microsecond)))
						}
						if !ok {
							gaveUp.Add(1)
						}
					}
				}(p, cl)
			}
		}
		wg.Wait()
		close(stopFaults)
		faultWG.Wait()
	}

	// settle quiesces the cluster between phases and at the end of the
	// run: heal partitions (crashed nodes stay crashed), join the async
	// commit tails, then give participant state a few grace rounds to
	// drain.
	settle := func() bool {
		if c.Net != nil {
			c.Net.HealAll()
		}
		c.Drain()
		// Fabric-level barrier: engine drains join coordinator work, but a
		// replica apply queued behind a one-way stream leaves no state to
		// poll — Settle waits until no message is in flight and every lane
		// executor has drained, so the crash schedule may safely read or
		// wipe stores.
		c.Settle()
		for i := 0; i < 50; i++ {
			if c.Quiesced() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}

	// The membership schedule runs concurrently with phase-0 clients (and
	// any fault windows): the whole point is that handoff happens under
	// live traffic, with no global quiesce.
	var memberWG sync.WaitGroup
	var memberErr error
	elasticNode := -1
	if cfg.Elastic {
		memberWG.Add(1)
		go func() {
			defer memberWG.Done()
			elasticNode, memberErr = membershipChurn(cfg, c)
		}()
	}
	runPhase(0, engines)
	memberWG.Wait()
	if memberErr != nil {
		return nil, memberErr
	}
	quiesced := settle()

	crashed := -1
	lost := 0
	if cfg.Crash {
		v, nLost, err := crashAndRecover(cfg, c, maxKey)
		if err != nil {
			return nil, err
		}
		crashed, lost = v, nLost

		// Phase two starts with the recovered node still down — its links
		// carry only the protected control plane — and revives it
		// mid-phase, so the history covers traffic that raced the outage.
		var reviveWG sync.WaitGroup
		reviveWG.Add(1)
		go func() {
			defer reviveWG.Done()
			time.Sleep(2 * time.Millisecond)
			c.RestartNode(crashed)
		}()
		engs := engines
		if cfg.Promote {
			engs = append([]cc.Engine(nil), engines...)
			engs[crashed] = engines[int(c.Topo.Primary(cluster.PartitionID(crashed)))]
		}
		runPhase(1, engs)
		reviveWG.Wait()
		quiesced = settle()
	}

	// Lost-key oracle: after the cluster settles, every loaded key must
	// still be present at whichever node the directory now names as its
	// primary — a key the handoff dropped (backfill missed it, or the
	// cutover raced a commit into the void) shows up here.
	lostKeys := 0
	if cfg.Elastic {
		for k := storage.Key(0); k < maxKey; k++ {
			pid := c.Dir.Partition(storage.RID{Table: CheckTable, Key: k})
			tbl := c.Nodes[int(c.Topo.Primary(pid))].Store().Table(CheckTable)
			if tbl == nil {
				lostKeys++
				continue
			}
			if _, _, gerr := tbl.Bucket(k).Get(k); gerr != nil {
				lostKeys++
			}
		}
	}

	res := &Result{
		Recorder:          rec,
		Committed:         int(committed.Load()),
		Aborted:           int(aborted.Load()),
		GaveUp:            int(gaveUp.Load()),
		ReplicaMismatches: c.VerifyReplicaConsistency(CheckTable),
		Quiesced:          quiesced,
		LostCommits:       lost,
		CrashedNode:       crashed,
		LostKeys:          lostKeys,
		ElasticNode:       elasticNode,
	}
	if cfg.MVCC {
		res.SI = SnapshotIsolation(rec.Txns(), Options{IsInitial: IsInitialVal})
		res.Report = res.SI.WriterReport
	} else {
		res.Report = Histories(rec.Txns(), Options{IsInitial: IsInitialVal})
	}
	return res, nil
}

// crashAndRecover is the inter-phase crash schedule: pick a seeded-random
// victim, oracle-snapshot its acknowledged state, crash and wipe it,
// restore a fresh deployment image, replay its WAL, and diff the result
// against the oracle — every divergence is an acknowledged-then-lost
// commit. With Promote it then flips the victim's partition to a replica
// (the primary-death recovery protocol) while the victim is still down.
// Called only on a quiesced cluster; the victim's links stay cut when it
// returns.
func crashAndRecover(cfg Config, c *bench.Cluster, maxKey storage.Key) (victim, lost int, err error) {
	crng := rand.New(rand.NewSource(cfg.Seed ^ 0x0dd5))
	v := crng.Intn(cfg.Partitions)
	var promoteTo simfab.NodeID
	if cfg.Promote {
		promoteTo = c.Topo.Replicas(cluster.PartitionID(v))[0]
	}

	// Oracle: the victim's full table image at the moment of the crash.
	// Everything here was acknowledged (the cluster is quiesced), so
	// recovery must reproduce it exactly.
	st := c.Nodes[v].Store()
	oracle := make(map[storage.Key]string)
	if tbl := st.Table(CheckTable); tbl != nil {
		tbl.Range(func(k storage.Key, val []byte, _ uint64) bool {
			oracle[k] = string(val)
			return true
		})
	}

	c.CrashNode(v)
	c.WipeNode(v)

	// The operator restart path: restore the fresh deployment image
	// (table plus initial values of every key the node hosts as primary
	// or replica), then replay the WAL on top.
	st.CreateTable(CheckTable, 4096)
	for k := storage.Key(0); k < maxKey; k++ {
		pid := c.Dir.Partition(storage.RID{Table: CheckTable, Key: k})
		hosted := c.Topo.Primary(pid) == simfab.NodeID(v)
		for _, r := range c.Topo.Replicas(pid) {
			hosted = hosted || r == simfab.NodeID(v)
		}
		if hosted {
			st.Bucket(CheckTable, k).Upsert(k, InitialVal(k))
		}
	}
	if err := c.RecoverNode(v); err != nil {
		return v, 0, fmt.Errorf("check: recover node %d: %w", v, err)
	}

	// Checker-sensitivity hook: silently revert one recovered record,
	// simulating a durability bug that lost an acknowledged commit. The
	// oracle diff below MUST flag it.
	if cfg.ForgeLostCommit {
		forged := false
		tbl := st.Table(CheckTable)
		tbl.Range(func(k storage.Key, val []byte, _ uint64) bool {
			if string(val) != string(InitialVal(k)) {
				tbl.Bucket(k).Upsert(k, InitialVal(k))
				forged = true
				return false
			}
			return true
		})
		if !forged {
			for k := range oracle {
				tbl.Bucket(k).Upsert(k, []byte("forged-lost-commit"))
				break
			}
		}
	}

	tbl := st.Table(CheckTable)
	for k, want := range oracle {
		got, _, gerr := tbl.Bucket(k).Get(k)
		if gerr != nil || string(got) != want {
			lost++
		}
	}

	if cfg.Promote {
		if err := c.Topo.Promote(cluster.PartitionID(v), promoteTo); err != nil {
			return v, lost, fmt.Errorf("check: %w", err)
		}
	}
	return v, lost, nil
}

// membershipChurn is the elastic schedule, run concurrently with
// phase-0 clients, through the deploy.Cluster membership operations the
// public DB.AddNode/MovePartition/RemoveNode call: grow the cluster by
// one node, hand it a seeded-random partition via the incremental
// handoff protocol, let it serve as primary under live traffic, hand the
// partition back, and retire the node. Every step runs against open-loop client load;
// transactions caught at a cutover abort with the retryable moved
// reason and re-route on retry.
func membershipChurn(cfg Config, c *bench.Cluster) (int, error) {
	// Let traffic build before the join so the warming stream and the
	// backfill genuinely race live commits.
	time.Sleep(500 * time.Microsecond)
	id, err := c.AddNode()
	if err != nil {
		return -1, fmt.Errorf("check: add node: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0317))
	pid := rng.Intn(cfg.Partitions)
	old := int(c.Topo.Primary(cluster.PartitionID(pid)))
	if err := c.MovePartition(pid, id); err != nil {
		return id, fmt.Errorf("check: handoff partition %d to node %d: %w", pid, id, err)
	}
	// Serve a stretch of the workload as the partition's primary.
	time.Sleep(time.Millisecond)
	if err := c.MovePartition(pid, old); err != nil {
		return id, fmt.Errorf("check: hand partition %d back to node %d: %w", pid, old, err)
	}
	if err := c.RemoveNode(id); err != nil {
		return id, fmt.Errorf("check: remove node %d: %w", id, err)
	}
	return id, nil
}

func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
