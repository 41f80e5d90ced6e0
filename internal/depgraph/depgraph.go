// Package depgraph implements the static analysis of §3.2 and the
// run-time region decision of §3.3 of the Chiller paper.
//
// For each registered stored procedure we build a dependency graph whose
// nodes are operations and whose edges are primary-key dependencies
// (pk-deps) and value dependencies (v-deps). Only pk-deps restrict the
// order in which locks may be acquired: a v-dep merely delays when a new
// value can be computed, not when its lock can be taken.
//
// At run time, given the partitioning and the hot-record lookup table, the
// Decide function returns a transaction's whole plan: the inner host, the
// split of the operations into the outer and inner regions (steps 1-2 of
// §3.3), the outer locks postponed to the end of the expanding phase, and
// the inner op whose record's lane serializes the inner region.
package depgraph

import (
	"fmt"
	"slices"

	"github.com/chillerdb/chiller/internal/txn"
)

// Graph is the static dependency graph for one procedure.
type Graph struct {
	proc *txn.Procedure
	// pkChildren[i] lists ops whose key depends (directly) on op i.
	pkChildren [][]int
	// pkDesc[i] lists ops whose key depends transitively on op i, in
	// ascending order.
	pkDesc [][]int
}

// Build constructs the graph from a procedure's declared dependencies.
// The procedure must already satisfy Procedure.Validate (which guarantees
// dependencies point backwards, so the graph is acyclic by construction).
func Build(p *txn.Procedure) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("depgraph: %w", err)
	}
	n := len(p.Ops)
	g := &Graph{
		proc:       p,
		pkChildren: make([][]int, n),
		pkDesc:     make([][]int, n),
	}
	for i := range p.Ops {
		for _, d := range p.Ops[i].PKDeps {
			g.pkChildren[d] = append(g.pkChildren[d], i)
		}
	}
	// Transitive closure over pk edges. Ops are topologically ordered by
	// ID (deps point backwards), so a reverse sweep accumulates
	// descendants.
	desc := make([]map[int]bool, n)
	for i := n - 1; i >= 0; i-- {
		set := make(map[int]bool)
		for _, c := range g.pkChildren[i] {
			set[c] = true
			for d := range desc[c] {
				set[d] = true
			}
		}
		desc[i] = set
		for d := range set {
			g.pkDesc[i] = append(g.pkDesc[i], d)
		}
		sortInts(g.pkDesc[i])
	}
	return g, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Proc returns the procedure this graph describes.
func (g *Graph) Proc() *txn.Procedure { return g.proc }

// PKChildren returns ops whose key directly depends on op i.
func (g *Graph) PKChildren(i int) []int { return g.pkChildren[i] }

// PKDescendants returns ops whose key transitively depends on op i.
func (g *Graph) PKDescendants(i int) []int { return g.pkDesc[i] }

// ValidOrder reports whether executing ops in the given order respects
// every pk-dep (an op must run after all its pk-parents). order must be a
// permutation of 0..len(ops)-1.
func (g *Graph) ValidOrder(order []int) bool {
	n := len(g.proc.Ops)
	if len(order) != n {
		return false
	}
	pos := make([]int, n)
	seen := make([]bool, n)
	for idx, op := range order {
		if op < 0 || op >= n || seen[op] {
			return false
		}
		seen[op] = true
		pos[op] = idx
	}
	for i := range g.proc.Ops {
		for _, d := range g.proc.Ops[i].PKDeps {
			if pos[d] > pos[i] {
				return false
			}
		}
	}
	return true
}

// PartitionResolver reports, for an operation, which partition will serve
// it — when that is decidable before execution. Implementations resolve
// the op's key from args (no reads), falling back to the op's PartKey
// partition-affinity hint. ok=false means the partition cannot be
// determined statically (the op has an unresolvable pk-dep and no hint).
type PartitionResolver func(op *txn.OpSpec, args txn.Args) (partition int, ok bool)

// HotFunc reports an operation's contention weight: 0 means the record
// is cold, any positive value marks it hot. Hotness is decided against
// the lookup table of §4.4, and the weight is the record's contention
// likelihood (§4.3), which lets Decide place the inner region on the
// partition carrying the largest contention mass rather than merely the
// most hot records. Ops whose key is unresolvable are never hot (hot
// records are by definition identifiable up front).
type HotFunc func(op *txn.OpSpec, args txn.Args) float64

// Decision is a transaction's plan: the run-time region split (§3.3
// steps 1-2) and the order and lane the engine executes it in.
type Decision struct {
	// TwoRegion is true when the transaction should run under the
	// two-region model. False means no hot records were found (or no
	// candidate survived the dependency rules) and the transaction runs
	// as a normal 2PL/2PC transaction.
	TwoRegion bool
	// InnerHost is the partition that executes the inner region.
	InnerHost int
	// InnerOps are the op IDs executed (in ascending order) by the inner
	// host.
	InnerOps []int
	// OuterOps are the remaining op IDs in ascending order.
	OuterOps []int
	// Late are the outer ops locked after every other outer op, in
	// ascending order: the hot ops that could not join the inner region.
	// nil when there are none.
	Late []int
	// Hottest is the inner op with the largest contention weight (the
	// first one on a tie); -1 without an inner region. Its record's lane
	// serializes the inner region.
	Hottest int
}

// InnerSet returns the inner ops as a membership set.
func (d *Decision) InnerSet() map[int]bool {
	m := make(map[int]bool, len(d.InnerOps))
	for _, op := range d.InnerOps {
		m[op] = true
	}
	return m
}

// Decide plans one transaction instance:
//
//  1. Every op touching a hot record is examined. A hot op h is an inner
//     candidate iff every op whose key transitively depends on h can be
//     placed on h's own partition (paper: "no child depends on h, or all
//     children of h are located on the same partition as h"). A child
//     whose partition cannot be resolved disqualifies h.
//  2. Candidates are grouped by partition; the partition with the most
//     hot candidate ops becomes the inner host (§3.3 step 2). The inner
//     region is the union of the winning candidates and their pk
//     descendants. Closure over pk-deps holds by construction: every
//     descendant of an inner op is inner.
//  3. The hot outer ops are locked last, "if possible" (§3): all of them
//     when no cold outer op's key pk-depends on one, otherwise only those
//     that trail the last cold outer op. The hottest inner op names the
//     inner region's lane.
func Decide(g *Graph, args txn.Args, resolve PartitionResolver, hot HotFunc) Decision {
	ops := g.proc.Ops
	type cand struct {
		op     int
		part   int
		weight float64
	}
	// The working set is on the stack up to decideStack ops (longer
	// procedures spill to the heap); the op lists are the one allocation.
	var candBuf [decideStack]cand
	var weightBuf [decideStack]float64
	candidates, weight := candBuf[:0], weightBuf[:]
	if len(ops) > decideStack {
		weight = make([]float64, len(ops))
	}
	for i := range ops {
		w := hot(&ops[i], args)
		weight[i] = w
		if w <= 0 {
			continue
		}
		hp, ok := resolve(&ops[i], args)
		if !ok {
			continue
		}
		eligible := true
		for _, d := range g.pkDesc[i] {
			dp, ok := resolve(&ops[d], args)
			if !ok || dp != hp {
				eligible = false
				break
			}
		}
		if eligible {
			candidates = append(candidates, cand{op: i, part: hp, weight: w})
		}
	}
	if len(candidates) == 0 {
		split := make([]int, len(ops))
		for i := range split {
			split[i] = i
		}
		return Decision{TwoRegion: false, InnerHost: -1, OuterOps: split, Hottest: -1}
	}

	// Step 2: pick the partition carrying the largest hot contention
	// mass (§4.3's objective, evaluated at run time): a single
	// very-contended record outweighs several mildly hot ones, so the
	// records most likely to abort the transaction end up in the inner
	// region. The candidate list is tiny (bounded by the op count), so
	// sum by linear rescan instead of allocating a map.
	best, bestW := -1, 0.0
	for i, c := range candidates {
		w := 0.0
		for _, o := range candidates[i:] {
			if o.part == c.part {
				w += o.weight
			}
		}
		if w > bestW || (w == bestW && (best == -1 || c.part < best)) {
			best, bestW = c.part, w
		}
	}

	var innerBuf [decideStack]bool
	inner := innerBuf[:]
	if len(ops) > decideStack {
		inner = make([]bool, len(ops))
	}
	for _, c := range candidates {
		if c.part != best {
			continue
		}
		inner[c.op] = true
		for _, d := range g.pkDesc[c.op] {
			inner[d] = true
		}
	}

	// Step 3: the outer lock order. Moving a hot op behind a cold one is
	// illegal only when the cold op's key pk-depends on it (an outer op
	// never pk-depends on an inner one).
	allLate, lastCold := true, -1
	for i := range ops {
		if inner[i] || weight[i] > 0 {
			continue
		}
		lastCold = i
		for _, d := range ops[i].PKDeps {
			if weight[d] > 0 {
				allLate = false
			}
		}
	}
	late := func(i int) bool { return !inner[i] && weight[i] > 0 && (allLate || i > lastCold) }
	nInner, nLate, hottest := 0, 0, -1
	for i := range ops {
		switch {
		case inner[i]:
			nInner++
			if hottest == -1 || weight[i] > weight[hottest] {
				hottest = i
			}
		case late(i):
			nLate++
		}
	}
	// All three op lists share split: inner ops fill its front, outer ops
	// the middle and the late ops its tail, and the capacity cuts keep an
	// append to one list off the next.
	split := make([]int, len(ops)+nLate)
	d := Decision{TwoRegion: true, InnerHost: best, InnerOps: split[:0:nInner],
		OuterOps: split[nInner:nInner:len(ops)], Hottest: hottest}
	if nLate > 0 {
		d.Late = split[len(ops):len(ops)]
	}
	for i := range ops {
		if inner[i] {
			d.InnerOps = append(d.InnerOps, i)
			continue
		}
		d.OuterOps = append(d.OuterOps, i)
		if late(i) {
			d.Late = append(d.Late, i)
		}
	}
	return d
}

// decideStack is the procedure length up to which Decide's working set
// stays on the stack (a 15-line TPC-C NewOrder has 35 ops).
const decideStack = 64

// ExecutionOrder returns the full op order implied by a decision: the
// outer ops not in Late, then Late, then the inner ops, each group in
// ascending op-ID order. This is the re-ordering of §3: lock acquisition
// for hot records is postponed to the end of the expanding phase.
func (d *Decision) ExecutionOrder() []int {
	out := make([]int, 0, len(d.OuterOps)+len(d.InnerOps))
	for _, op := range d.OuterOps {
		if !slices.Contains(d.Late, op) {
			out = append(out, op)
		}
	}
	out = append(out, d.Late...)
	return append(out, d.InnerOps...)
}

// CheckDecision verifies the structural invariants of a decision against
// the graph: (a) inner+outer partition the op set and Late is a subset of
// the outer ops, (b) no outer op has a pk-dep on an inner op, (c) the
// execution order is valid, and (d) a two-region decision's Hottest is an
// inner op. Tests use it to certify Decide.
func CheckDecision(g *Graph, d *Decision) error {
	n := len(g.proc.Ops)
	order := d.ExecutionOrder()
	if len(order) != len(d.OuterOps)+len(d.InnerOps) {
		return fmt.Errorf("depgraph: late ops %v are not all outer ops", d.Late)
	}
	seen := make([]bool, n)
	for _, op := range order {
		if op < 0 || op >= n {
			return fmt.Errorf("depgraph: op %d out of range", op)
		}
		if seen[op] {
			return fmt.Errorf("depgraph: op %d appears twice", op)
		}
		seen[op] = true
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("depgraph: op %d missing from decision", i)
		}
	}
	inner := d.InnerSet()
	for _, op := range d.OuterOps {
		for _, dep := range g.proc.Ops[op].PKDeps {
			if inner[dep] {
				return fmt.Errorf("depgraph: outer op %d has pk-dep on inner op %d", op, dep)
			}
		}
	}
	if !g.ValidOrder(order) {
		return fmt.Errorf("depgraph: decision order violates pk-deps")
	}
	if d.TwoRegion && !inner[d.Hottest] {
		return fmt.Errorf("depgraph: hottest op %d is not an inner op", d.Hottest)
	}
	return nil
}
