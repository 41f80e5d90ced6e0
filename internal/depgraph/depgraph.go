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
// Decide function selects the inner host and splits the operations into
// the outer and inner regions (steps 1-2 of §3.3).
package depgraph

import (
	"fmt"

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
	// vChildren[i] lists ops whose new value depends on op i.
	vChildren [][]int
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
		vChildren:  make([][]int, n),
	}
	for i := range p.Ops {
		for _, d := range p.Ops[i].PKDeps {
			g.pkChildren[d] = append(g.pkChildren[d], i)
		}
		for _, d := range p.Ops[i].VDeps {
			g.vChildren[d] = append(g.vChildren[d], i)
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

// VChildren returns ops whose value computation depends on op i.
func (g *Graph) VChildren(i int) []int { return g.vChildren[i] }

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

// Decision is the outcome of the run-time region split (§3.3 steps 1-2).
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
}

// InnerSet returns the inner ops as a membership set.
func (d *Decision) InnerSet() map[int]bool {
	m := make(map[int]bool, len(d.InnerOps))
	for _, op := range d.InnerOps {
		m[op] = true
	}
	return m
}

// Decide performs the run-time region decision for one transaction
// instance:
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
func Decide(g *Graph, args txn.Args, resolve PartitionResolver, hot HotFunc) Decision {
	ops := g.proc.Ops
	type cand struct {
		op     int
		part   int
		weight float64
	}
	// The working set is on the stack up to decideStack ops (longer
	// procedures spill to the heap); split is the one allocation.
	var candBuf [decideStack]cand
	candidates := candBuf[:0]
	for i := range ops {
		w := hot(&ops[i], args)
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
	split := make([]int, len(ops))
	if len(candidates) == 0 {
		for i := range split {
			split[i] = i
		}
		return Decision{TwoRegion: false, InnerHost: -1, OuterOps: split}
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
	nInner := 0
	for _, in := range inner[:len(ops)] {
		if in {
			nInner++
		}
	}
	// Both op lists share split: inner ops fill its front, outer ops the
	// rest, and the capacity cut keeps an append to InnerOps off OuterOps.
	d := Decision{TwoRegion: true, InnerHost: best, InnerOps: split[:0:nInner], OuterOps: split[nInner:nInner]}
	for i := range ops {
		if inner[i] {
			d.InnerOps = append(d.InnerOps, i)
		} else {
			d.OuterOps = append(d.OuterOps, i)
		}
	}
	return d
}

// decideStack is the procedure length up to which Decide's working set
// stays on the stack (a 15-line TPC-C NewOrder has 35 ops).
const decideStack = 64

// ExecutionOrder returns the full op order implied by a decision: outer
// ops first, then inner ops, each group in ascending op-ID order. This is
// the re-ordering of §3: lock acquisition for hot records is postponed to
// the end of the expanding phase.
func (d *Decision) ExecutionOrder() []int {
	out := make([]int, 0, len(d.OuterOps)+len(d.InnerOps))
	out = append(out, d.OuterOps...)
	out = append(out, d.InnerOps...)
	return out
}

// CheckDecision verifies the structural invariants of a decision against
// the graph: (a) inner+outer partition the op set, (b) no outer op has a
// pk-dep on an inner op, and (c) the combined order is valid. It is used
// by tests and by the engine's debug mode.
func CheckDecision(g *Graph, d *Decision) error {
	n := len(g.proc.Ops)
	seen := make([]bool, n)
	for _, op := range append(append([]int{}, d.OuterOps...), d.InnerOps...) {
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
	if !g.ValidOrder(d.ExecutionOrder()) {
		return fmt.Errorf("depgraph: decision order violates pk-deps")
	}
	return nil
}
