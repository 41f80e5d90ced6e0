package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/transport"
)

// Fault injection. The chaos harness (internal/check) drives the fabric
// through deterministic failure schedules: per-message drop dice and
// delay spikes rolled on a seeded per-link RNG, plus runtime partition
// windows cut and healed by the test schedule. Faults model a reliable
// transport (an RC queue pair): a dropped or partitioned message fails
// at the *sender*, synchronously, before anything reaches the wire — the
// destination never observes a half-delivered verb, and a response is
// never lost after its request was served. That asymmetry is what makes
// coordinator-side recovery (abort + retry the transaction) sound: a
// failed send is guaranteed to have had no remote effect.
//
// Two knobs decide which verbs a fault may touch:
//
//   - FaultPlan.Droppable selects the verbs the drop dice and partition
//     windows apply to. The chaos harness restricts faults to the
//     pre-commit-point protocol (lock waves, OCC read/validate,
//     routing, lock-wave doorbells), where NO_WAIT abort +
//     retry is the designed recovery path. Post-commit-point verbs
//     (commit, abort, replica apply, the inner replication stream and
//     its acks) ride a protected control plane: dropping them would not
//     exercise a recovery path, it would wedge locks or strand a
//     committed transaction half-applied — failures no retry can heal.
//   - With no FaultPlan installed, Partition cuts every verb on the
//     link. That is the blunt instrument for whole-cluster partition
//     tests that quiesce traffic around the window.
//
// Delay spikes apply to every *request* send (droppable or not) — the
// legs that carry protocol messages and one-way streams; RPC responses
// are handed back directly (see Endpoint.serve) and keep plain link
// latency. Extra latency never breaks liveness, only timing.

// FaultPlan configures deterministic fault injection on a Network. All
// randomness is drawn from per-link RNGs seeded by Seed and the link's
// endpoints, so a given (seed, per-link message sequence) rolls the same
// faults on every run.
type FaultPlan struct {
	// Seed seeds the per-link fault dice (independent of Config.Seed so
	// enabling faults does not perturb jitter draws).
	Seed int64
	// DropProb is the probability a droppable request message is dropped,
	// failing the send with ErrInjectedDrop.
	DropProb float64
	// DelayProb is the probability any request send (droppable or not)
	// is hit by a delay spike. Responses keep plain link latency.
	DelayProb float64
	// DelaySpike is the extra one-way latency a spiked message suffers.
	DelaySpike time.Duration
	// Droppable reports whether a verb may be dropped or blocked by a
	// partition. nil means every verb is fair game (see the package note
	// above for why harnesses should restrict this).
	Droppable func(method string) bool
}

// ErrUnreachable is the family error for injected transport faults:
// every dropped or partition-blocked send wraps it. Engines classify it
// as a transient, retryable transport failure (txn.AbortUnreachable) —
// distinct from ErrClosed and from engine-invariant internal errors. It
// is the shared transport sentinel, so tcpnet's connection failures
// classify identically.
var ErrUnreachable = transport.ErrUnreachable

// ErrInjectedDrop marks a message dropped by the fault plan's drop dice.
// It wraps ErrUnreachable.
var ErrInjectedDrop = fmt.Errorf("%w: message dropped (injected fault)", ErrUnreachable)

// ErrPartitioned marks a send blocked by a partition window. It wraps
// ErrUnreachable.
var ErrPartitioned = fmt.Errorf("%w: link partitioned", ErrUnreachable)

// ErrCrashed marks a send blocked because one end of the link is a
// crashed node. It wraps ErrUnreachable.
var ErrCrashed = fmt.Errorf("%w: node crashed", ErrUnreachable)

// faultState is the Network's runtime fault machinery: the installed
// plan plus the mutable partition set and the crashed-node set. cuts
// mirrors len(cut)+len(down) so the fault-free message hot path learns
// "no partitions, no crashes" from one atomic load instead of taking
// the mutex per send.
type faultState struct {
	plan *FaultPlan

	mu   sync.RWMutex
	cut  map[linkKey]bool
	down map[NodeID]bool
	cuts atomic.Int64
}

func (f *faultState) reCount() {
	f.cuts.Store(int64(len(f.cut) + len(f.down)))
}

// Crash marks a node as crashed: every droppable verb to or from it
// fails with ErrCrashed until Restart. Like Partition, the protected
// control plane (commit tails, replication streams, acks) keeps
// flowing, which models the §3.3 presumed-commit reality — a node's
// in-flight commit decisions drain even as new work is refused — and
// lets the harness quiesce cleanly before wiping the node's volatile
// state. The node's durable state (its WAL directory) is untouched;
// the harness pairs Crash with storage.Store.Reset plus a wal replay,
// then Restart.
func (n *Network) Crash(id NodeID) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	if n.faults.down == nil {
		n.faults.down = make(map[NodeID]bool)
	}
	n.faults.down[id] = true
	n.faults.reCount()
}

// Restart revives a crashed node: its links carry traffic again.
func (n *Network) Restart(id NodeID) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	delete(n.faults.down, id)
	n.faults.reCount()
}

// Crashed reports whether the node is currently marked crashed.
func (n *Network) Crashed(id NodeID) bool {
	n.faults.mu.RLock()
	defer n.faults.mu.RUnlock()
	return n.faults.down[id]
}

// linkDown reports whether either end of from→to is crashed.
func (n *Network) linkDown(from, to NodeID) bool {
	n.faults.mu.RLock()
	defer n.faults.mu.RUnlock()
	return n.faults.down[from] || n.faults.down[to]
}

// Partition cuts the links between a and b in both directions: sends of
// affected verbs fail with ErrPartitioned until Heal. With a FaultPlan
// installed, only Droppable verbs are blocked (the protected control
// plane keeps flowing, so in-flight transactions finish or abort
// cleanly); with no plan, everything on the link is blocked — the blunt
// instrument for whole-cluster partition drills. In that blunt mode,
// quiesce in-flight traffic first (drain engines' async commit tails):
// a Chiller transaction past its inner commit treats an undeliverable
// outer commit as an engine invariant violation and panics.
func (n *Network) Partition(a, b NodeID) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	if n.faults.cut == nil {
		n.faults.cut = make(map[linkKey]bool)
	}
	n.faults.cut[linkKey{a, b}] = true
	n.faults.cut[linkKey{b, a}] = true
	n.faults.reCount()
}

// Heal restores the links between a and b.
func (n *Network) Heal(a, b NodeID) {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	delete(n.faults.cut, linkKey{a, b})
	delete(n.faults.cut, linkKey{b, a})
	n.faults.reCount()
}

// HealAll removes every partition. Crashed nodes stay crashed; Restart
// is their explicit revival.
func (n *Network) HealAll() {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	n.faults.cut = nil
	n.faults.reCount()
}

// Partitioned reports whether the directed link from→to is currently
// cut.
func (n *Network) Partitioned(from, to NodeID) bool {
	n.faults.mu.RLock()
	defer n.faults.mu.RUnlock()
	return n.faults.cut[linkKey{from, to}]
}

// droppable reports whether the plan (if any) lets faults touch method.
func (f *faultState) droppable(method string) bool {
	if f.plan == nil || f.plan.Droppable == nil {
		return true
	}
	return f.plan.Droppable(method)
}

// requestFault rolls the fault dice for one request send from→to. It
// returns a non-nil error when the send must fail (partition or drop)
// and otherwise the extra delay-spike latency to add. l may be nil when
// the caller has no link at hand (the one-sided path resolves it).
func (n *Network) requestFault(l *link, from, to NodeID, method string) (time.Duration, error) {
	f := &n.faults
	// Fault-free fast path: one atomic load, no locks — this sits on
	// every message send of every benchmark.
	if f.plan == nil && f.cuts.Load() == 0 {
		return 0, nil
	}
	if from != to && f.cuts.Load() > 0 && f.droppable(method) {
		if n.Partitioned(from, to) {
			return 0, fmt.Errorf("%w: node %d -> node %d", ErrPartitioned, from, to)
		}
		if n.linkDown(from, to) {
			return 0, fmt.Errorf("%w: node %d -> node %d", ErrCrashed, from, to)
		}
	}
	p := f.plan
	if p == nil || (p.DropProb <= 0 && p.DelayProb <= 0) {
		return 0, nil
	}
	if l == nil {
		var err error
		if l, err = n.getLink(from, to); err != nil {
			return 0, err
		}
	}
	drop, spike := l.rollFault(p)
	if drop && from != to && f.droppable(method) {
		return 0, fmt.Errorf("%w: node %d -> node %d (%s)", ErrInjectedDrop, from, to, method)
	}
	if spike {
		return p.DelaySpike, nil
	}
	return 0, nil
}

// rollFault draws the link's fault dice: one drop draw, one spike draw,
// in a fixed order so the sequence is deterministic per link.
func (l *link) rollFault(p *FaultPlan) (drop, spike bool) {
	l.frngMu.Lock()
	defer l.frngMu.Unlock()
	if l.frng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 0xfa017
		}
		l.frng = rand.New(rand.NewSource(seed ^ int64(l.from)<<32 ^ int64(l.to)<<1 ^ 0x6661756c74))
	}
	if p.DropProb > 0 {
		drop = l.frng.Float64() < p.DropProb
	}
	if p.DelayProb > 0 && p.DelaySpike > 0 {
		spike = l.frng.Float64() < p.DelayProb
	}
	return drop, spike
}
