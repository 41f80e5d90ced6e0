// Package core implements Chiller's contention-centric two-region
// transaction execution engine — the paper's primary contribution (§3).
//
// A transaction whose records include hot items is split into an outer
// region (cold records, locked first, committed last) and an inner region
// (hot records, all on the single partition that owns them). The node
// that primaries that partition — the inner host — coordinates the
// transaction (requests originating elsewhere are routed to it, §4.2)
// and executes and commits the inner region unilaterally, as local work:
// once the outer locks are all held, the transaction's fate rests
// entirely on the inner region, so the hot records' contention span
// shrinks from two-plus network round trips to the local execution time
// of the inner region. Where the paper's §3.3 step 4 delegates the inner
// region by RPC, this engine has no such verb: placing the coordinator
// on the inner host is the only shape a two-region transaction takes.
//
// Fault-tolerance for the inner region's early commit point uses the
// replication protocol of §5 (see package server's replication stream):
// the inner primary streams new values to its replicas without waiting,
// the replicas acknowledge to the coordinator, and the coordinator only
// completes the outer region after those acks. The outer primaries then
// replicate by the same rule, and the commit tail joins their acks.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/chillerdb/chiller/internal/cc"
	"github.com/chillerdb/chiller/internal/cc/twopl"
	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/depgraph"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// Engine is Chiller's coordinator. Safe for concurrent Run calls.
type Engine struct {
	node     *server.Node
	fallback *twopl.Engine

	gmu    sync.RWMutex
	graphs map[string]*depgraph.Graph

	// tails tracks background commit tails: once the inner region has
	// committed and its replicas have acked, the outer region's wave is
	// fire-and-forget from the transaction's perspective (2PC with
	// presumed commit needs no second-phase acks), so Run hands it to a
	// tail and returns. Drain joins them for tests and shutdown.
	tails sync.WaitGroup
}

// New creates a Chiller engine on a node and registers the
// transaction-placement verb peers route to: every node of the cluster
// needs one, whichever engine its own clients use.
func New(n *server.Node) *Engine {
	e := &Engine{
		node:     n,
		fallback: twopl.New(n),
		graphs:   make(map[string]*depgraph.Graph),
	}
	// Transaction placement (§4.2): the partitioner's star graph assigns
	// every transaction's t-vertex to the partition of its inner region,
	// i.e. transactions execute where their hot records live. A request
	// originating elsewhere is routed here and coordinated by this
	// engine. The handler runs a full transaction, so it must not block
	// the fabric's dispatcher.
	n.Endpoint().HandleAsync(server.VerbTxnRoute, func(_ transport.NodeID, raw []byte, reply func([]byte, error)) {
		go func() {
			req, err := decodeRouteRequest(raw)
			if err != nil {
				reply(nil, err)
				return
			}
			// A routed request is coordinated on behalf of a remote
			// client whose context does not travel on the wire; the
			// originating engine stops routing once its context is done,
			// and a routed transaction runs to completion here.
			res := e.run(context.Background(), req, true)
			reply(encodeRouteResult(&res), nil)
		}()
	})
	return e
}

// Name implements cc.Engine.
func (e *Engine) Name() string { return "Chiller" }

// Drain blocks until every background commit tail has finished. Call
// before tearing the fabric down or asserting a quiesced cluster.
func (e *Engine) Drain() { e.tails.Wait() }

// Node returns the engine's node.
func (e *Engine) Node() *server.Node { return e.node }

// graph returns the cached dependency graph for a procedure, building it
// on first use (the paper builds it "when registering a new stored
// procedure"; lazy construction is equivalent and keeps registration
// order-independent).
func (e *Engine) graph(proc *txn.Procedure) (*depgraph.Graph, error) {
	e.gmu.RLock()
	g, ok := e.graphs[proc.Name]
	e.gmu.RUnlock()
	if ok {
		return g, nil
	}
	g, err := depgraph.Build(proc)
	if err != nil {
		return nil, err
	}
	e.gmu.Lock()
	e.graphs[proc.Name] = g
	e.gmu.Unlock()
	return g, nil
}

// resolve adapts the directory to the static-analysis interface
// (depgraph.PartitionResolver): an op's partition is known pre-execution
// when its key resolves from args alone, or when it declares a
// partition-affinity hint (PartKey).
func (e *Engine) resolve(op *txn.OpSpec, args txn.Args) (int, bool) {
	dir := e.node.Directory()
	if key, ok := op.Key(args, nil); ok {
		return int(dir.Partition(storage.RID{Table: op.Table, Key: key})), true
	}
	if op.PartKey != nil {
		if pk, ok := op.PartKey(args, nil); ok {
			pt := op.PartTable
			if pt == 0 {
				pt = op.Table
			}
			return int(dir.Partition(storage.RID{Table: pt, Key: pk})), true
		}
	}
	return 0, false
}

// hot consults the lookup table of §4.4 (depgraph.HotFunc), yielding
// each record's contention weight (0 for cold records).
func (e *Engine) hot(op *txn.OpSpec, args txn.Args) float64 {
	key, ok := op.Key(args, nil)
	if !ok {
		return 0
	}
	return e.node.Directory().HotWeight(storage.RID{Table: op.Table, Key: key})
}

// Decide exposes the plan Run executes for a request, so tests and the
// ledger's probes can inspect it.
func (e *Engine) Decide(req *txn.Request) (depgraph.Decision, error) {
	proc := e.node.Registry().Lookup(req.Proc)
	if proc == nil {
		return depgraph.Decision{}, fmt.Errorf("core: unknown procedure %q", req.Proc)
	}
	g, err := e.graph(proc)
	if err != nil {
		return depgraph.Decision{}, err
	}
	return depgraph.Decide(g, req.Args, e.resolve, e.hot), nil
}

// Run implements cc.Engine: steps 1-5 of §3.3, preceded by the
// transaction-placement step of §4.2 — a two-region transaction whose
// inner host is another node is routed there and coordinated by that
// node's engine, so the inner region is always local work of its
// coordinator and the hot-record span never contains a delegation round
// trip.
//
// Cancellation of ctx is honored at every protocol boundary before the
// inner region commits: before routing, between outer lock waves, and
// inside the hot-wave and inner re-request ladders. A cancelled
// transaction releases every outer lock it holds and reports
// txn.AbortCancelled. Once the inner region has committed, the
// transaction is committed; the remaining steps run to completion
// regardless of ctx.
func (e *Engine) Run(ctx context.Context, req *txn.Request) txn.Result {
	return e.run(ctx, req, false)
}

// run decides a request's execution model and either coordinates it here
// or routes it to its inner host. routed marks a request that already
// took its one route hop (the VerbTxnRoute handler): it is never
// forwarded again, so a layout change mid-flight cannot loop it.
func (e *Engine) run(ctx context.Context, req *txn.Request, routed bool) txn.Result {
	n := e.node
	// A snapshot read (cc.Begin's preamble) needs no region analysis: it
	// has no contention span to shrink.
	proc, res, ok := cc.Begin(ctx, n, req)
	if !ok {
		return res
	}
	g, err := e.graph(proc)
	if err != nil {
		return txn.Result{Reason: txn.AbortInternal}
	}

	// Step 1-2: decide execution model and the inner host.
	dec := depgraph.Decide(g, req.Args, e.resolve, e.hot)
	if !dec.TwoRegion {
		// Cold transaction: normal 2PL with 2PC, in procedure order.
		return e.fallback.Run(ctx, req)
	}
	host := n.Directory().Topology().Primary(cluster.PartitionID(dec.InnerHost))
	switch {
	case host == n.ID():
		return e.runTwoRegion(ctx, req, proc, dec)
	case routed:
		// The origin's directory named this node the inner host and ours
		// does not (a handoff landed in between). Nothing is locked yet;
		// like a fenced partition, the retry re-reads the directory.
		return txn.Result{Reason: txn.AbortMoved,
			Detail: fmt.Sprintf("routed to node %d, inner host is node %d", n.ID(), host)}
	}
	// A routed transaction executes remotely and cannot be cancelled
	// mid-flight; don't start one on a context that is already done.
	if reason, done := cc.Cancelled(ctx); done {
		return txn.Result{Reason: reason}
	}
	return e.route(host, req)
}

// runTwoRegion executes steps 3-5 of §3.3 with this node coordinating.
// Precondition: this node primaries the inner partition (dec.InnerHost),
// so the inner region is a call on one of its own lanes.
func (e *Engine) runTwoRegion(ctx context.Context, req *txn.Request, proc *txn.Procedure, dec depgraph.Decision) txn.Result {
	n := e.node
	s := newScratch(n, req, proc)
	// This node takes part through the inner region, whether or not an
	// outer op locks here too: the transaction is distributed iff any
	// other node does.
	s.Participant(n.ID())
	// abort rolls back the outer region's locks and retires the scratch.
	abort := func(reason txn.AbortReason) txn.Result {
		res := s.Abort(n, reason)
		s.release()
		return res
	}

	// Step 3: read and lock the outer region. Within the outer region the
	// plan's late ops are locked last (§3: locks on the most contended
	// records are acquired last "if possible"): a hot record that could
	// not join the inner region still gets the shortest span the outer
	// region can give it. Lock acquisition is pipelined: every op whose
	// key resolves is batched per participant and fanned out in one
	// concurrent wave.
	if reason, ok := e.lockOuter(ctx, proc, req.Args, &dec, s); !ok {
		return abort(reason)
	}

	// Last cancellation point: the outer locks are held but the inner
	// region has not run, so aborting here is still clean.
	if reason, done := cc.Cancelled(ctx); done {
		return abort(reason)
	}

	// Step 4: execute and commit the inner region, on the lane owning the
	// plan's hottest record, chosen once: inner regions competing for that
	// record share one single-threaded lane and never NO_WAIT-abort each
	// other (lock words arbitrate any other overlap); it computes the
	// outer writes too, so every abort happens here. A lock conflict
	// inside it means some other transaction's outer region holds one of
	// our hot records — a window of at most a couple of round trips. The
	// outer locks we already hold are cold (uncontended), so tearing the
	// transaction down and re-acquiring them costs far more than briefly
	// re-requesting the inner region; as with the hot-wave re-request, the
	// bound keeps cross-transaction stalls finite and participants stay
	// NO_WAIT.
	hottest := &proc.Ops[dec.Hottest]
	hotKey, _ := hottest.Key(req.Args, nil) // a hot op's key resolves from args
	lane := n.Directory().Lane(storage.RID{Table: hottest.Table, Key: hotKey})
	reason := s.execInnerOnLane(n, lane, proc, req.Args, dec.InnerOps, dec.OuterOps)
	for attempt := 0; attempt < hotWaveRetries && reason == txn.AbortLockConflict; attempt++ {
		if !rerequestPause(ctx, attempt) {
			reason = txn.AbortCancelled
			break
		}
		reason = s.execInnerOnLane(n, lane, proc, req.Args, dec.InnerOps, dec.OuterOps)
	}
	if reason != txn.AbortNone {
		return abort(reason)
	}
	// The transaction is now committed (the inner region decided). The
	// steps below cannot abort it; a failure here is an engine invariant
	// violation, not a transaction abort.
	//
	// The region reserved the commit timestamp s.TS at its unilateral
	// commit point (under the hot records' bucket locks, so per-key
	// timestamp order equals lock order) and stamped the inner stream
	// with it; every outer apply below carries the same stamp, and finish
	// releases it only after the whole commit wave has landed
	// cluster-wide — the stable snapshot watermark never includes a
	// half-applied transaction. Zero when MVCC is off (Release(0) is a
	// no-op).

	// Wait for the inner region's replicas to acknowledge (to us, the
	// coordinator — Figure 6) before completing the transaction.
	if err := s.ack.Await(); err != nil {
		// The fabric closed under a committed inner region: the outer region
		// can be neither completed nor (the abort wave fails too) rolled back.
		s.Detail = "after inner commit: " + err.Error()
		return abort(txn.AbortInternal)
	}

	// Step 5: one wave over every outer participant (finish). The
	// transaction's outcome and read set are already final, so the wave
	// runs as a detached tail when it would otherwise block on the network
	// — the client gets its result one round trip earlier. The tail owns
	// the scratch from here: the result is built first, finish releases it.
	res := txn.Result{Committed: true, Reads: s.Reads, Distributed: s.Distributed()}
	w, outer := n.NewWave(), s.WriteSets()
	replicating := w.ReplicateAll(s.TS, s.Locked(), outer)
	w.CommitAll(s.ID, s.TS, s.Locked(), outer)
	e.tails.Add(1)
	if !replicating && !s.Distributed() {
		e.finish(s, w) // purely local: no network to wait on
	} else {
		go e.finish(s, w)
	}
	return res
}

// finish completes a committed transaction (Drain waits for it). Each
// outer participant gets a replicate and a commit frame in one ring: it
// streams the write set under the transaction's locks, then applies and
// releases — no lock waits on a replica. finish joins the replicas' acks,
// releases the commit timestamp, and hands the scratch back, its last reader.
func (e *Engine) finish(s *scratch, w *server.Wave) {
	defer e.tails.Done()
	n := e.node
	// Presumed commit: the locks release when the doorbells ring and
	// no second-phase ack gates the client, which already has its result.
	w.Wait()
	if err := w.Errs(); err != nil {
		panic(fmt.Sprintf("core: outer commit failed after inner commit: %v", err))
	}
	err := w.JoinReplicas()
	w.Release()
	// Every apply — inner stream, outer replicas, outer primaries —
	// has landed; snapshots may now advance past this timestamp. Not so
	// if the fabric closed before the outer replicas acked (ErrClosed).
	if c := n.Clock(); c != nil && err == nil {
		c.Release(s.TS)
	}
	s.SampleCommit(n)
	s.release()
}

// scratch is one two-region transaction's working memory, pooled: the
// shared coordinator context (cc.Txn: read set, participants, lock-wave
// batches, the write set) plus what only this policy needs — the outer
// region's wave plan and the inner region's ack waiter.
//
// Lifetime: runTwoRegion takes one and its inner region runs on it. Its
// last reader releases it, once: the abort path, or finish — a committed
// transaction's tail reads the outer writes and participants after Run
// has returned.
type scratch struct {
	*cc.Txn

	// Lock waves: the ops not yet locked and the current wave.
	pend []int
	wave []int

	// Inner region: once it committed (with TS), the waiter for its
	// replicas' acks.
	ack *server.Acks
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func newScratch(n *server.Node, req *txn.Request, proc *txn.Procedure) *scratch {
	s := scratchPool.Get().(*scratch)
	s.Txn = cc.NewTxn(n, req, proc)
	return s
}

// release retires the context and pools the scratch.
func (s *scratch) release() {
	s.Txn.Release()
	*s = scratch{pend: s.pend[:0], wave: s.wave[:0]}
	scratchPool.Put(s)
}

// lockOuter acquires locks and performs reads for the outer ops in
// concurrent waves, in the plan's two phases: the early ops, then the
// late ones (an early op never pk-depends on a late one). Each wave takes
// every op of the phase whose key resolves — an op is held back only
// while its key depends on an earlier outer read — groups the wave by
// participant node, and fans the per-node batches out as simultaneous
// lock-and-read calls. Writes are not materialized here — outer mutators
// may depend on inner reads.
func (e *Engine) lockOuter(ctx context.Context, proc *txn.Procedure, args txn.Args, dec *depgraph.Decision, s *scratch) (txn.AbortReason, bool) {
	early, late := s.pend[:0], dec.Late
	for _, op := range dec.OuterOps {
		if len(late) > 0 && late[0] == op {
			late = late[1:]
		} else {
			early = append(early, op)
		}
	}
	s.pend = early
	if reason, ok := e.lockWaves(ctx, proc, args, early, false, s); !ok {
		return reason, false
	}
	s.pend = append(early[:0], dec.Late...)
	return e.lockWaves(ctx, proc, args, s.pend, true, s)
}

// lockWaves locks one phase's ops, pend, wave by wave; it consumes pend.
// A late phase's failed wave climbs the bounded re-request ladder.
func (e *Engine) lockWaves(ctx context.Context, proc *txn.Procedure, args txn.Args, pend []int, late bool, s *scratch) (txn.AbortReason, bool) {
	for len(pend) > 0 {
		// Wave boundary: a cancelled coordinator stops acquiring and
		// lets the caller release what earlier waves locked.
		if reason, done := cc.Cancelled(ctx); done {
			return reason, false
		}
		wave := s.wave[:0]
		next := pend[:0]
		for _, op := range pend {
			if _, ok := proc.Ops[op].Key(args, s.Reads); ok {
				wave = append(wave, op)
			} else {
				next = append(next, op)
			}
		}
		s.wave = wave
		if len(wave) == 0 {
			// Remaining keys depend on reads that can never arrive.
			return txn.AbortInternal, false
		}
		reason, ok := e.lockWave(proc, args, wave, s)
		// Bounded re-request of a failed late wave: the cold locks
		// already held are uncontended by definition, so tearing
		// everything down on a NO_WAIT conflict only to re-acquire the
		// same cold locks wastes round trips and lengthens every span.
		// The coordinator instead re-issues just the failed hot batches a
		// few times (participants never block — this is still NO_WAIT at
		// the lock table; the bound keeps cross-transaction stalls from
		// turning into deadlock).
		if !ok && late {
			for attempt := 0; attempt < hotWaveRetries &&
				!ok && reason == txn.AbortLockConflict && len(s.Failed) > 0; attempt++ {
				if !rerequestPause(ctx, attempt) {
					return txn.AbortCancelled, false
				}
				reason, ok = e.lockWave(proc, args, s.Failed, s)
			}
		}
		if !ok {
			return reason, false
		}
		// Ops are observed (their Checks run) once the whole wave's reads
		// are in, in wave op order, so a Check may consult any read the
		// wave produced. Every key of the wave resolved when it was built.
		for _, opID := range wave {
			op := &proc.Ops[opID]
			key, _ := op.Key(args, s.Reads)
			if reason := s.Observe(op, args, key); reason != txn.AbortNone {
				return reason, false
			}
		}
		pend = next
	}
	return txn.AbortNone, true
}

// Hot-wave re-request policy: a few exponentially spaced, jittered
// attempts whose total window (~600µs) covers a typical holder's
// remaining span (the couple of round trips between its hot-lock
// acquisition and its commit).
const (
	hotWaveRetries   = 5
	hotWaveRetryBase = 20 // microseconds; attempt k sleeps ~base<<k
)

// rerequestPause sleeps out rung attempt of a re-request ladder: a
// uniformly jittered pause in (c, 2c], c = hotWaveRetryBase<<attempt µs,
// or until ctx is done (false).
func rerequestPause(ctx context.Context, attempt int) bool {
	c := cc.BackoffCeiling(attempt+1, hotWaveRetryBase*time.Microsecond, 0)
	return cc.Sleep(ctx, c+cc.Jitter(nil, c))
}

// lockWave groups one wave of ops by participant (node, lane) and issues
// every batch in one wave (cc.Txn.LockWave): all of a destination node's
// lane batches ride a single doorbell — one round trip per node per wave,
// however many lanes the wave touches there — and the local batches (if
// any) execute while the rings are in flight. Grouping by lane — not just
// node — keeps every batch single-lane and its own frame, so a conflict
// rolls back (and the re-request ladder re-issues) exactly one lane
// batch: on failure s.Failed lists the ops of the conflict-refused
// batches (wave may be a previous call's s.Failed: it is consumed before
// they are rebuilt). Observing the ops is the caller's job (it must
// happen only after the whole wave, re-requests included, has succeeded).
func (e *Engine) lockWave(proc *txn.Procedure, args txn.Args, wave []int, s *scratch) (txn.AbortReason, bool) {
	dir := e.node.Directory()
	topo := dir.Topology()

	s.Batches = s.Batches[:0]
	for _, opID := range wave {
		op := &proc.Ops[opID]
		key, keyOK := op.Key(args, s.Reads)
		if !keyOK {
			return txn.AbortInternal, false
		}
		rid := storage.RID{Table: op.Table, Key: key}
		pid := dir.Partition(rid)
		b := s.BatchFor(topo.Primary(pid), dir.Lane(rid))
		b.Entries = append(b.Entries, s.Entry(op, key))
		s.Participant(b.Target)
	}

	// Canonical acquisition order within each batch: two transactions
	// whose batches list the same records in opposite orders would
	// otherwise each grab one and NO_WAIT-fail on the other, in lockstep
	// on every retry (an ABBA livelock the re-request ladder amplifies).
	// Sorting makes the first requester win every record *within a
	// batch*. Across same-node batches on different lanes the guarantee
	// is weaker — the lane executors run them concurrently, so two
	// transactions can still split a cross-lane record pair ABBA-style;
	// the jittered backoff (here and in the closed-loop runner) is what
	// desynchronizes those, the standard NO_WAIT answer. Response
	// semantics are order-independent (reads are keyed by op id), and a
	// wave never mixes early and late ops, so hot-last ordering is
	// unaffected.
	for i := range s.Batches {
		slices.SortFunc(s.Batches[i].Entries, func(x, y server.LockEntry) int {
			return cmp.Or(cmp.Compare(x.Table, y.Table), cmp.Compare(x.Key, y.Key))
		})
	}
	return s.LockWave(e.node)
}
