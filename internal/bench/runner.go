package bench

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/stats"
	"github.com/chillerdb/chiller/internal/txn"
)

// Workload produces transaction requests. Implementations must be safe
// for concurrent Next calls (each client goroutine passes its own rng).
type Workload interface {
	// Name identifies the workload in output.
	Name() string
	// Next returns the next request originating at the given partition
	// (the client is co-located with that partition's node, like the
	// paper's per-warehouse execution engines).
	Next(partition int, rng *rand.Rand) *txn.Request
}

// RunConfig drives a closed-loop measurement.
type RunConfig struct {
	// Engine selects the concurrency-control engine.
	Engine EngineKind
	// Concurrency is the number of closed-loop clients per partition —
	// the "concurrent transactions per warehouse" knob of Figure 9.
	Concurrency int
	// Duration is the measurement window.
	Duration time.Duration
	// WarmupFraction of Duration is run before counters reset (0-0.5).
	WarmupFraction float64
	// Seed makes client request streams reproducible.
	Seed int64
	// Retry re-runs aborted transactions (with the same request) until
	// they commit. Aborts are still counted. This is the closed-loop
	// behaviour the paper's throughput numbers imply.
	Retry bool
	// Outstanding switches a client to open-loop issuance with the given
	// window: the client keeps up to Outstanding transactions in flight
	// at once, modelling the paper's single-threaded execution engines
	// that switch to another open transaction while one waits on the
	// network — throughput is then no longer capped by per-transaction
	// latency. 0 or 1 is the classic closed loop.
	Outstanding int
}

// Metrics aggregates a run's outcome.
type Metrics struct {
	Engine      EngineKind
	Workload    string
	Lanes       int // execution lanes per node the cluster ran with
	Committed   uint64
	Aborted     uint64
	Distributed uint64 // committed transactions that spanned partitions
	Elapsed     time.Duration
	ByReason    map[txn.AbortReason]uint64
	ByProc      map[string]*ProcMetrics
	// Verbs is the per-verb network profile of the measurement window:
	// verb kind (server.Kind* labels: "lock-read", "commit",
	// "repl-apply", "doorbell", ...) → count and latency percentiles,
	// aggregated over every node.
	Verbs map[string]*VerbProfile
}

// VerbProfile summarizes one verb kind's traffic: how many completed and
// the round-trip latency distribution (zero percentiles for one-way
// kinds, which have no observable round trip).
type VerbProfile struct {
	Count         uint64
	P50, P95, P99 time.Duration

	hist *stats.LatencyHist
}

// refresh recomputes the exported percentiles from the backing
// histogram.
func (p *VerbProfile) refresh() {
	if p.hist == nil {
		return
	}
	p.P50 = p.hist.Percentile(0.50)
	p.P95 = p.hist.Percentile(0.95)
	p.P99 = p.hist.Percentile(0.99)
}

// ProcMetrics is the per-procedure breakdown (Figure 9c needs per-type
// abort rates).
type ProcMetrics struct {
	Committed uint64
	Aborted   uint64
}

// Throughput returns committed transactions per second.
func (m *Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Committed) / m.Elapsed.Seconds()
}

// AbortRate returns aborts / (aborts + commits).
func (m *Metrics) AbortRate() float64 {
	total := m.Committed + m.Aborted
	if total == 0 {
		return 0
	}
	return float64(m.Aborted) / float64(total)
}

// DistributedRatio returns the fraction of committed transactions that
// were distributed.
func (m *Metrics) DistributedRatio() float64 {
	if m.Committed == 0 {
		return 0
	}
	return float64(m.Distributed) / float64(m.Committed)
}

// AbortsByReason returns the per-reason abort counts keyed by the
// reason's stable string label ("lock-conflict", "validation",
// "constraint", "not-found", "internal", "cancelled") — the
// JSON-friendly view of ByReason.
func (m *Metrics) AbortsByReason() map[string]uint64 {
	if len(m.ByReason) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(m.ByReason))
	for r, n := range m.ByReason {
		out[r.String()] += n
	}
	return out
}

// ProcAbortRate returns the abort rate of one procedure.
func (m *Metrics) ProcAbortRate(proc string) float64 {
	pm := m.ByProc[proc]
	if pm == nil || pm.Committed+pm.Aborted == 0 {
		return 0
	}
	return float64(pm.Aborted) / float64(pm.Committed+pm.Aborted)
}

// shard is one client's private tally; a run sums them into Metrics.
type shard struct {
	committed   uint64
	aborted     uint64
	distributed uint64
	byReason    map[txn.AbortReason]uint64
	byProc      map[string]*ProcMetrics
}

func newShard() shard {
	return shard{byReason: make(map[txn.AbortReason]uint64), byProc: make(map[string]*ProcMetrics)}
}

func newMetrics(kind EngineKind, w Workload, lanes int) *Metrics {
	return &Metrics{
		Engine:   kind,
		Workload: w.Name(),
		Lanes:    lanes,
		ByReason: make(map[txn.AbortReason]uint64),
		ByProc:   make(map[string]*ProcMetrics),
	}
}

// add folds one client's tally into the run's totals.
func (m *Metrics) add(sh *shard) {
	m.Committed += sh.committed
	m.Aborted += sh.aborted
	m.Distributed += sh.distributed
	for r, n := range sh.byReason {
		m.ByReason[r] += n
	}
	for p, pm := range sh.byProc {
		agg := m.ByProc[p]
		if agg == nil {
			agg = &ProcMetrics{}
			m.ByProc[p] = agg
		}
		agg.Committed += pm.Committed
		agg.Aborted += pm.Aborted
	}
}

// runOne executes one request to completion (with retry policy) against
// an engine, recording outcomes into sh. It returns when the request
// committed, retry is off, or the run stopped.
func runOne(engine cc.Engine, req *txn.Request, sh *shard, rng *rand.Rand, cfg *RunConfig, counting, stop *atomic.Bool) {
	for retry := 1; ; retry++ {
		res := engine.Run(context.Background(), req)
		count := counting.Load()
		pm := sh.byProc[req.Proc]
		if pm == nil {
			pm = &ProcMetrics{}
			sh.byProc[req.Proc] = pm
		}
		if res.Committed {
			if count {
				sh.committed++
				pm.Committed++
				if res.Distributed {
					sh.distributed++
				}
			}
			return
		}
		if count {
			sh.aborted++
			pm.Aborted++
			sh.byReason[res.Reason]++
		}
		if !cfg.Retry || stop.Load() {
			return
		}
		// Randomized exponential backoff between retries (standard
		// NO_WAIT practice): identical requests replayed at spin speed
		// livelock against each other and flood the fabric.
		time.Sleep(cc.Jitter(rng, cc.BackoffCeiling(retry, 2*time.Microsecond, time.Millisecond)))
	}
}

// Run drives the workload: Concurrency clients per partition, each bound
// to its partition's engine, issuing transactions back to back for the
// configured duration — closed-loop by default, or keeping
// cfg.Outstanding transactions in flight per client when set (open
// loop).
func (c *Cluster) Run(w Workload, cfg RunConfig) *Metrics {
	engineFor := func(p int) cc.Engine { return c.Engine(cfg.Engine, p) }
	return runClients(c.Cfg.Partitions, c.Cfg.Lanes, engineFor, c.ResetVerbMetrics, c.Drain, c.VerbProfiles, w, cfg)
}

// runClients is the measurement loop behind Cluster.Run and
// RemoteClient.Run: cfg.Concurrency clients per partition, partition p's
// bound to engineFor(p); reset zeroes the verb metrics when the warm-up
// ends, drain joins the engines' commit tails after the clients stop,
// and profiles reads the window's per-verb profile. lanesLabel is
// recorded as Metrics.Lanes.
func runClients(partitions, lanesLabel int, engineFor func(int) cc.Engine, reset, drain func(), profiles func() map[string]*VerbProfile, w Workload, cfg RunConfig) *Metrics {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 500 * time.Millisecond
	}
	lanes := cfg.Outstanding
	if lanes <= 0 {
		lanes = 1
	}

	shards := make([]shard, partitions*cfg.Concurrency*lanes)
	for i := range shards {
		shards[i] = newShard()
	}
	var counting atomic.Bool
	var stop atomic.Bool

	var wg sync.WaitGroup
	clientID := 0
	for p := 0; p < partitions; p++ {
		engine := engineFor(p)
		for k := 0; k < cfg.Concurrency; k++ {
			id, part := clientID, p
			clientID++
			if lanes == 1 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sh := &shards[id]
					rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
					for !stop.Load() {
						runOne(engine, w.Next(part, rng), sh, rng, &cfg, &counting, &stop)
					}
				}()
				continue
			}
			// Open loop: one generator feeds `lanes` executor lanes
			// through an unbuffered channel, so requests are issued in
			// generation order with at most `lanes` in flight.
			reqCh := make(chan *txn.Request)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(reqCh)
				rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
				for !stop.Load() {
					reqCh <- w.Next(part, rng)
				}
			}()
			for l := 0; l < lanes; l++ {
				sh := &shards[id*lanes+l]
				laneSeed := cfg.Seed + int64(id*lanes+l)*104729
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(laneSeed))
					for req := range reqCh {
						runOne(engine, req, sh, rng, &cfg, &counting, &stop)
					}
				}()
			}
		}
	}

	warmup := time.Duration(float64(cfg.Duration) * cfg.WarmupFraction)
	time.Sleep(warmup)
	reset()
	counting.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration - warmup)
	counting.Store(false)
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	drain()

	m := newMetrics(cfg.Engine, w, lanesLabel)
	m.Elapsed = elapsed
	m.Verbs = profiles()
	for i := range shards {
		m.add(&shards[i])
	}
	return m
}

// RunN executes exactly n transactions per partition sequentially (one
// client per partition, retries until commit) — used by correctness
// tests where a fixed amount of work must land.
func (c *Cluster) RunN(w Workload, kind EngineKind, nPerPartition int, seed int64) *Metrics {
	cfg := RunConfig{Retry: true}
	var counting, stop atomic.Bool
	counting.Store(true)
	shards := make([]shard, c.Cfg.Partitions)
	var wg sync.WaitGroup
	for p := range shards {
		shards[p] = newShard()
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			engine := c.Engine(kind, part)
			// Backoff jitter draws from its own stream, so a partition's
			// request sequence depends on the seed alone, not on aborts.
			rng := rand.New(rand.NewSource(seed + int64(part)))
			jitter := rand.New(rand.NewSource(seed ^ int64(part+1)*104729))
			for i := 0; i < nPerPartition; i++ {
				runOne(engine, w.Next(part, rng), &shards[part], jitter, &cfg, &counting, &stop)
			}
		}(p)
	}
	wg.Wait()
	c.Drain()
	m := newMetrics(kind, w, c.Cfg.Lanes)
	for i := range shards {
		m.add(&shards[i])
	}
	return m
}
