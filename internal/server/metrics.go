package server

import (
	"sync/atomic"
	"time"

	"github.com/chillerdb/chiller/internal/stats"
)

// Per-verb metrics. Every node carries a VerbMetrics that its
// coordinator-side helpers feed: one observation per network verb round
// trip (count + latency into a log-bucketed histogram), one count for
// one-way sends. The benchmark harness aggregates the per-node snapshots
// into per-verb p50/p95/p99 figures (docs/FIGURES.md).

// Verb kind labels used as metric keys. They name the protocol role, not
// the wire method: a doorbell ring is one "doorbell" observation plus
// one observation per frame under the frame's own kind.
const (
	KindLockRead  = "lock-read"  // lock-and-read batch round trip
	KindCommit    = "commit"     // commit (apply + release) round trip
	KindAbort     = "abort"      // abort round trip
	KindReplicate = "replicate"  // replicate frame (primary streams an outer write set) round trip
	KindReplApply = "repl-apply" // per replicating transaction: its replicate ring → last replica ack
	// KindInnerExec labelled the inner-region delegation round trip. The
	// verb is gone (the inner region runs where its coordinator runs) and
	// nothing is recorded under it; the label stays only because the
	// benchmark module compiles against it and reports it as 0.
	KindInnerExec = "inner-exec"
	KindRoute     = "route"      // transaction placement round trip
	KindInnerRepl = "inner-repl" // one-way inner replication stream send
	KindInnerAck  = "inner-ack"  // one-way replica→coordinator ack send
	KindDoorbell  = "doorbell"   // whole doorbell-batch round trip
	KindSnapRead  = "snap-read"  // MVCC snapshot-read batch round trip
	KindRead      = "read"       // OCC unlocked read batch round trip
	KindValidate  = "validate"   // OCC phase-2 validate round trip
)

// verbKinds is the fixed key set; VerbMetrics maps are never mutated
// after construction, so lookups are lock-free.
var verbKinds = []string{
	KindLockRead, KindCommit, KindAbort, KindReplicate, KindReplApply,
	KindRoute, KindInnerRepl, KindInnerAck, KindDoorbell, KindSnapRead,
	KindRead, KindValidate,
}

// verbStat holds one kind's round-trip latency histogram (the sample
// count doubles as the round-trip count; one-way sends are counted
// separately in VerbMetrics.ones).
type verbStat struct {
	hist stats.LatencyHist
}

// VerbMetrics aggregates per-verb counts and round-trip latency
// histograms for one node's coordinator activity. All methods are safe
// for concurrent use and cost one or two atomic operations; a nil
// *VerbMetrics is a valid no-op sink.
type VerbMetrics struct {
	stats map[string]*verbStat
	ones  map[string]*counter
}

type counter struct {
	n atomic.Uint64
}

// NewVerbMetrics creates a collector covering every verb kind.
func NewVerbMetrics() *VerbMetrics {
	m := &VerbMetrics{
		stats: make(map[string]*verbStat, len(verbKinds)),
		ones:  make(map[string]*counter, len(verbKinds)),
	}
	for _, k := range verbKinds {
		m.stats[k] = &verbStat{}
		m.ones[k] = &counter{}
	}
	return m
}

// Observe records one completed round trip of the given kind.
func (m *VerbMetrics) Observe(kind string, d time.Duration) {
	if m == nil {
		return
	}
	if s := m.stats[kind]; s != nil {
		s.hist.Observe(d)
	}
}

// ObserveN records n completed round trips of identical duration (the
// verbs of one doorbell all complete with the batch).
func (m *VerbMetrics) ObserveN(kind string, d time.Duration, n uint64) {
	if m == nil || n == 0 {
		return
	}
	if s := m.stats[kind]; s != nil {
		s.hist.ObserveN(d, n)
	}
}

// Add records one one-way send of the given kind (no latency: the sender
// never observes a completion).
func (m *VerbMetrics) Add(kind string) {
	if m == nil {
		return
	}
	if c := m.ones[kind]; c != nil {
		c.n.Add(1)
	}
}

// VerbSnapshot is one kind's aggregated view.
type VerbSnapshot struct {
	// Count is the number of completed verbs (round trips plus one-way
	// sends).
	Count uint64
	// Hist holds the round-trip latency samples; empty for one-way-only
	// kinds. The snapshot owns the histogram (it does not alias the
	// collector).
	Hist *stats.LatencyHist
}

// Snapshot returns a point-in-time copy of every kind with at least one
// recorded verb.
func (m *VerbMetrics) Snapshot() map[string]VerbSnapshot {
	if m == nil {
		return nil
	}
	out := make(map[string]VerbSnapshot, len(m.stats))
	for _, k := range verbKinds {
		h := &stats.LatencyHist{}
		m.stats[k].hist.AddTo(h)
		n := h.Count() + m.ones[k].n.Load()
		if n == 0 {
			continue
		}
		out[k] = VerbSnapshot{Count: n, Hist: h}
	}
	return out
}

// Reset zeroes every kind (the bench harness resets after warmup).
func (m *VerbMetrics) Reset() {
	if m == nil {
		return
	}
	for _, k := range verbKinds {
		m.stats[k].hist.Reset()
		m.ones[k].n.Store(0)
	}
}
