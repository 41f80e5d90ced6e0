package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Fault injection. The chaos harness (internal/check) drives a cluster
// through deterministic failure schedules: per-message drop dice and
// delay spikes rolled on a seeded per-link RNG, plus runtime partitions
// cut and healed by the test schedule (a crashed node is one cut from
// every other node). It is one
// Endpoint wrapper (Faults.Wrap), so both fabrics run the same schedules
// and neither knows faults exist.
//
// Faults model a reliable transport (an RC queue pair): a dropped or
// partitioned request fails at the *sender*, synchronously, before the
// wrapped fabric sees it — the destination never observes a
// half-delivered verb, and a response is never lost after its request
// was served. That asymmetry is what makes coordinator-side recovery
// (abort + retry the transaction) sound: a failed send is guaranteed to
// have had no remote effect.
//
// Two knobs decide which verbs a fault may touch:
//
//   - FaultPlan.Droppable selects the verbs the drop dice and partitions
//     apply to. The chaos harness restricts faults to
//     the pre-commit-point protocol (lock-wave doorbells, routing), where
//     NO_WAIT abort + retry is the designed recovery path.
//     Post-commit-point verbs (the commit-tail doorbell, replica apply,
//     the inner replication stream and its acks) ride a protected control
//     plane: dropping them would not exercise a recovery path, it would
//     wedge locks or strand a committed transaction half-applied —
//     failures no retry can heal.
//   - With no FaultPlan, Partition cuts every verb on the link. That is
//     the blunt instrument for whole-cluster partition tests that quiesce
//     traffic around the window.
//
// Delay spikes apply to every *request* send (droppable or not): the
// sender sleeps DelaySpike before the request is handed to the fabric.
// Responses are not requests and keep the fabric's own latency. Extra
// latency never breaks liveness, only timing; a sender that holds the
// locks ordering a stream (the §5 replication stream is sent under the
// record's bucket lock) keeps holding them through the sleep, so the
// stream stays in lock order.

// FaultPlan configures deterministic fault injection. All randomness is
// drawn from per-link RNGs seeded by Seed and the link's endpoints, so a
// given (seed, per-link message sequence) rolls the same faults on every
// run.
type FaultPlan struct {
	// Seed seeds the per-link fault dice.
	Seed int64
	// DropProb is the probability a droppable request is dropped, failing
	// the send with ErrInjectedDrop.
	DropProb float64
	// DelayProb is the probability any request send (droppable or not)
	// is hit by a delay spike.
	DelayProb float64
	// DelaySpike is how long a spiked request waits at its sender.
	DelaySpike time.Duration
	// Droppable reports whether a verb may be dropped or blocked by a
	// partition. nil means every verb is fair game (see the note
	// above for why harnesses should restrict this).
	Droppable func(method string) bool
}

// ErrInjectedDrop marks a request dropped by the fault plan's drop dice.
// It wraps ErrUnreachable.
var ErrInjectedDrop = fmt.Errorf("%w: message dropped (injected fault)", ErrUnreachable)

// ErrPartitioned marks a send blocked by a partition window. It wraps
// ErrUnreachable.
var ErrPartitioned = fmt.Errorf("%w: link partitioned", ErrUnreachable)

// PeerDirectory is the optional fabric interface for transports that
// address peers by explicit endpoint addresses (tcpnet). Fabrics with
// implicit addressing (simnet) do not implement it and need no address
// exchange during membership changes. Faults.Wrap preserves it.
type PeerDirectory interface {
	SetPeers(map[NodeID]string)
	Peers() map[NodeID]string
}

type linkKey struct{ from, to NodeID }

// Faults is one cluster's fault injector: the plan plus the runtime
// partition cuts and per-link dice. Every endpoint it
// wraps shares that state, so a partition cuts both directions whichever
// node sends.
type Faults struct {
	plan *FaultPlan

	mu sync.RWMutex
	// cut counts the Partitions not yet healed on each directed link.
	cut map[linkKey]int
	// cuts mirrors len(cut), so the fault-free send path learns "no
	// partitions" from one atomic load.
	cuts atomic.Int64

	dmu  sync.Mutex
	dice map[linkKey]*rand.Rand
}

// NewFaults builds an injector for plan, which may be nil: no dice, and
// partitions cut every verb.
func NewFaults(plan *FaultPlan) *Faults {
	return &Faults{plan: plan, cut: make(map[linkKey]int), dice: make(map[linkKey]*rand.Rand)}
}

// edit applies one change to the cuts.
func (f *Faults) edit(change func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	change()
	f.cuts.Store(int64(len(f.cut)))
}

// Partition cuts the links between a and b in both directions: sends of
// droppable verbs fail with ErrPartitioned until Heal. Cuts nest: a link
// cut twice carries traffic again after two Heals, so a partition window
// over a crashed node's link does not revive it. With no plan,
// everything on the link is blocked. In that blunt mode, quiesce
// in-flight traffic first (drain engines' async commit tails): a Chiller
// transaction past its inner commit treats an undeliverable outer commit
// as an engine invariant violation and panics.
func (f *Faults) Partition(a, b NodeID) {
	f.edit(func() { f.cut[linkKey{a, b}]++; f.cut[linkKey{b, a}]++ })
}

// Heal undoes one Partition of the links between a and b.
func (f *Faults) Heal(a, b NodeID) {
	f.edit(func() {
		for _, k := range [2]linkKey{{a, b}, {b, a}} {
			if f.cut[k]--; f.cut[k] <= 0 {
				delete(f.cut, k)
			}
		}
	})
}

// HealAll removes every partition.
func (f *Faults) HealAll() { f.edit(func() { clear(f.cut) }) }

// Partitioned reports whether the directed link from→to is cut.
func (f *Faults) Partitioned(from, to NodeID) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.cut[linkKey{from, to}] > 0
}

// droppable reports whether the plan (if any) lets faults touch method.
func (f *Faults) droppable(method string) bool {
	return f.plan == nil || f.plan.Droppable == nil || f.plan.Droppable(method)
}

// check rolls the faults for one request send from→to: a non-nil error
// fails the send, otherwise the result is the delay spike to wait out.
func (f *Faults) check(from, to NodeID, method string) (time.Duration, error) {
	if from != to && f.cuts.Load() > 0 && f.droppable(method) {
		f.mu.RLock()
		cut := f.cut[linkKey{from, to}] > 0
		f.mu.RUnlock()
		if cut {
			return 0, fmt.Errorf("%w: node %d -> node %d", ErrPartitioned, from, to)
		}
	}
	p := f.plan
	if p == nil || (p.DropProb <= 0 && p.DelayProb <= 0) {
		return 0, nil
	}
	drop, spike := f.roll(p, from, to)
	if drop && from != to && f.droppable(method) {
		return 0, fmt.Errorf("%w: node %d -> node %d (%s)", ErrInjectedDrop, from, to, method)
	}
	if spike {
		return p.DelaySpike, nil
	}
	return 0, nil
}

// roll draws the link's fault dice: one drop draw, one spike draw, in a
// fixed order so the sequence is deterministic per link.
func (f *Faults) roll(p *FaultPlan, from, to NodeID) (drop, spike bool) {
	f.dmu.Lock()
	defer f.dmu.Unlock()
	rng := f.dice[linkKey{from, to}]
	if rng == nil {
		seed := p.Seed
		if seed == 0 {
			seed = 0xfa017
		}
		rng = rand.New(rand.NewSource(seed ^ int64(from)<<32 ^ int64(to)<<1 ^ 0x6661756c74))
		f.dice[linkKey{from, to}] = rng
	}
	if p.DropProb > 0 {
		drop = rng.Float64() < p.DropProb
	}
	if p.DelayProb > 0 && p.DelaySpike > 0 {
		spike = rng.Float64() < p.DelayProb
	}
	return drop, spike
}

// Wrap returns ep with every request send — Call, Send, GoOneSided,
// CallOneSided — checked against the injector first. Handler
// registration, ID, Closed and Stats pass straight through. The result
// implements PeerDirectory exactly when ep does.
func (f *Faults) Wrap(ep Endpoint) Endpoint {
	w := &faultyEndpoint{Endpoint: ep, f: f, id: ep.ID()}
	if pd, ok := ep.(PeerDirectory); ok {
		return &faultyPeerEndpoint{w, pd}
	}
	return w
}

type faultyEndpoint struct {
	Endpoint
	f  *Faults
	id NodeID
}

type faultyPeerEndpoint struct {
	*faultyEndpoint
	PeerDirectory
}

// gate applies the faults to one request send: it fails the send or
// waits out its delay spike.
func (e *faultyEndpoint) gate(to NodeID, method string) error {
	// Fault-free fast path: one atomic load, no lock, no allocation —
	// this sits on every send of every benchmark.
	if e.f.plan == nil && e.f.cuts.Load() == 0 {
		return nil
	}
	spike, err := e.f.check(e.id, to, method)
	if spike > 0 {
		time.Sleep(spike)
	}
	return err
}

func (e *faultyEndpoint) Call(to NodeID, method string, req []byte) ([]byte, error) {
	if err := e.gate(to, method); err != nil {
		return nil, err
	}
	return e.Endpoint.Call(to, method, req)
}

func (e *faultyEndpoint) Send(to NodeID, method string, payload []byte) error {
	if err := e.gate(to, method); err != nil {
		return err
	}
	return e.Endpoint.Send(to, method, payload)
}

func (e *faultyEndpoint) GoOneSided(to NodeID, method string, payload []byte, verbs int) (Pending, error) {
	if err := e.gate(to, method); err != nil {
		return nil, err
	}
	return e.Endpoint.GoOneSided(to, method, payload, verbs)
}

func (e *faultyEndpoint) CallOneSided(to NodeID, method string, payload []byte, verbs int) ([]byte, error) {
	if err := e.gate(to, method); err != nil {
		return nil, err
	}
	return e.Endpoint.CallOneSided(to, method, payload, verbs)
}
