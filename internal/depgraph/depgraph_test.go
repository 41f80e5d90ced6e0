package depgraph

import (
	"slices"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

func key(k storage.Key) txn.KeyFunc {
	return func(txn.Args, txn.ReadSet) (storage.Key, bool) { return k, true }
}

func unresolvable() txn.KeyFunc {
	return func(txn.Args, txn.ReadSet) (storage.Key, bool) { return 0, false }
}

func mut(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) { return old, nil }

// flightProc models the paper's Figure 4 ticket-purchase procedure:
//
//	0 fread  read flight         (hot)
//	1 cread  read customer
//	2 tread  read tax            (pk-dep on cread: key from c.state)
//	3 fupd   update flight       (pk-dep... same record as 0; v-dep on 0)
//	4 cupd   update customer     (v-dep on 0,2: cost)
//	5 sins   insert seat         (pk-dep on 0: seat_id; v-dep on 1: c.name)
func flightProc() *txn.Procedure {
	return &txn.Procedure{
		Name: "flight",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(100)},
			{ID: 1, Type: txn.OpRead, Table: 2, Key: key(200)},
			{ID: 2, Type: txn.OpRead, Table: 3, Key: key(300), PKDeps: []int{1}},
			{ID: 3, Type: txn.OpUpdate, Table: 1, Key: key(100), VDeps: []int{0}, Mutate: mut},
			{ID: 4, Type: txn.OpUpdate, Table: 2, Key: key(200), VDeps: []int{0, 2}, Mutate: mut},
			{ID: 5, Type: txn.OpInsert, Table: 4, Key: unresolvable(), PartKey: key(100), PKDeps: []int{0}, VDeps: []int{1}, Mutate: mut},
		},
	}
}

func TestBuildEdges(t *testing.T) {
	g, err := Build(flightProc())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.PKChildren(0); len(got) != 1 || got[0] != 5 {
		t.Errorf("PKChildren(0) = %v, want [5]", got)
	}
	if got := g.PKChildren(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("PKChildren(1) = %v, want [2]", got)
	}
	if got := g.PKDescendants(0); len(got) != 1 || got[0] != 5 {
		t.Errorf("PKDescendants(0) = %v", got)
	}
}

func TestTransitiveDescendants(t *testing.T) {
	p := &txn.Procedure{
		Name: "chain",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(1)},
			{ID: 1, Type: txn.OpRead, Table: 1, Key: key(2), PKDeps: []int{0}},
			{ID: 2, Type: txn.OpRead, Table: 1, Key: key(3), PKDeps: []int{1}},
		},
	}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	d := g.PKDescendants(0)
	if len(d) != 2 || d[0] != 1 || d[1] != 2 {
		t.Fatalf("PKDescendants(0) = %v, want [1 2]", d)
	}
}

func TestValidOrder(t *testing.T) {
	g, _ := Build(flightProc())
	if !g.ValidOrder([]int{0, 1, 2, 3, 4, 5}) {
		t.Error("original order should be valid")
	}
	// v-deps do not restrict order: 4 (cupd) may run before 0 and 2.
	if !g.ValidOrder([]int{4, 1, 2, 3, 0, 5}) {
		t.Error("v-dep-only reorder should be valid")
	}
	// pk-deps do restrict: 5 before 0 is illegal.
	if g.ValidOrder([]int{5, 0, 1, 2, 3, 4}) {
		t.Error("5 before its pk-parent 0 should be invalid")
	}
	// 2 before 1 is illegal.
	if g.ValidOrder([]int{0, 2, 1, 3, 4, 5}) {
		t.Error("2 before its pk-parent 1 should be invalid")
	}
	// Malformed permutations.
	if g.ValidOrder([]int{0, 0, 1, 2, 3, 4}) {
		t.Error("duplicate op accepted")
	}
	if g.ValidOrder([]int{0, 1, 2}) {
		t.Error("short order accepted")
	}
}

// resolverByTable maps table→partition; PartKey routes via its table too.
func partResolver(tableToPart map[storage.TableID]int) PartitionResolver {
	return func(op *txn.OpSpec, args txn.Args) (int, bool) {
		if _, ok := op.Key(args, nil); ok {
			p, found := tableToPart[op.Table]
			return p, found
		}
		if op.PartKey != nil {
			if _, ok := op.PartKey(args, nil); ok {
				pt := op.PartTable
				if pt == 0 {
					pt = op.Table
				}
				p, found := tableToPart[pt]
				return p, found
			}
		}
		return 0, false
	}
}

func hotOps(ids ...int) HotFunc {
	set := make(map[int]bool)
	for _, id := range ids {
		set[id] = true
	}
	return func(op *txn.OpSpec, _ txn.Args) float64 {
		if set[op.ID] {
			return 1
		}
		return 0
	}
}

// Paper scenario: flight (table 1) hot, seats (table 4) co-located with
// flights. Expect flight read+update and the seat insert in the inner
// region; customer/tax ops outer.
func TestDecideFlightExample(t *testing.T) {
	g, _ := Build(flightProc())
	resolve := partResolver(map[storage.TableID]int{1: 2, 2: 0, 3: 1, 4: 2})
	d := Decide(g, nil, resolve, hotOps(0, 3))
	if !d.TwoRegion {
		t.Fatal("expected two-region execution")
	}
	if d.InnerHost != 2 {
		t.Fatalf("InnerHost = %d, want 2", d.InnerHost)
	}
	wantInner := []int{0, 3, 5}
	if len(d.InnerOps) != len(wantInner) {
		t.Fatalf("InnerOps = %v, want %v", d.InnerOps, wantInner)
	}
	for i, op := range wantInner {
		if d.InnerOps[i] != op {
			t.Fatalf("InnerOps = %v, want %v", d.InnerOps, wantInner)
		}
	}
	if err := CheckDecision(g, &d); err != nil {
		t.Fatal(err)
	}
}

// If the seat table lives on a different partition than flights, the hot
// flight record is disqualified (its pk-child is remote) and the
// transaction falls back to normal execution (§3.3 step 1).
func TestDecideChildOnDifferentPartition(t *testing.T) {
	g, _ := Build(flightProc())
	resolve := partResolver(map[storage.TableID]int{1: 2, 2: 0, 3: 1, 4: 0})
	d := Decide(g, nil, resolve, hotOps(0, 3))
	// Op 3 (flight update) has no pk-children, so it alone is still a
	// candidate; inner region = {3}.
	if !d.TwoRegion {
		t.Fatal("op 3 should still qualify")
	}
	if len(d.InnerOps) != 1 || d.InnerOps[0] != 3 {
		t.Fatalf("InnerOps = %v, want [3]", d.InnerOps)
	}
	if err := CheckDecision(g, &d); err != nil {
		t.Fatal(err)
	}
}

func TestDecideNoHotRecords(t *testing.T) {
	g, _ := Build(flightProc())
	resolve := partResolver(map[storage.TableID]int{1: 0, 2: 0, 3: 0, 4: 0})
	d := Decide(g, nil, resolve, hotOps())
	if d.TwoRegion {
		t.Fatal("no hot records should mean normal execution")
	}
	if len(d.OuterOps) != 6 {
		t.Fatalf("OuterOps = %v", d.OuterOps)
	}
	if err := CheckDecision(g, &d); err != nil {
		t.Fatal(err)
	}
}

// Multiple candidate partitions: the one with more hot ops wins.
func TestDecideMajorityPartitionWins(t *testing.T) {
	p := &txn.Procedure{
		Name: "multi",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(1), Mutate: mut},
			{ID: 1, Type: txn.OpUpdate, Table: 1, Key: key(2), Mutate: mut},
			{ID: 2, Type: txn.OpUpdate, Table: 2, Key: key(3), Mutate: mut},
		},
	}
	g, _ := Build(p)
	// table 1 → partition 0 (two hot ops), table 2 → partition 1 (one).
	resolve := partResolver(map[storage.TableID]int{1: 0, 2: 1})
	d := Decide(g, nil, resolve, hotOps(0, 1, 2))
	if !d.TwoRegion || d.InnerHost != 0 {
		t.Fatalf("decision = %+v, want inner host 0", d)
	}
	if len(d.InnerOps) != 2 {
		t.Fatalf("InnerOps = %v, want [0 1]", d.InnerOps)
	}
	// Op 2 is hot but on the losing partition: it executes in the outer
	// region (the cost the partitioner is designed to avoid).
	if len(d.OuterOps) != 1 || d.OuterOps[0] != 2 {
		t.Fatalf("OuterOps = %v, want [2]", d.OuterOps)
	}
}

func TestDecideUnresolvableHotChild(t *testing.T) {
	// Hot op 0 has a pk-child with no PartKey hint: not a candidate.
	p := &txn.Procedure{
		Name: "unres",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(1)},
			{ID: 1, Type: txn.OpInsert, Table: 2, Key: unresolvable(), PKDeps: []int{0}, Mutate: mut},
		},
	}
	g, _ := Build(p)
	resolve := partResolver(map[storage.TableID]int{1: 0, 2: 0})
	d := Decide(g, nil, resolve, hotOps(0))
	if d.TwoRegion {
		t.Fatal("hot op with unresolvable child must not be a candidate")
	}
}

func TestExecutionOrder(t *testing.T) {
	d := Decision{TwoRegion: true, InnerHost: 1, InnerOps: []int{0, 3}, OuterOps: []int{1, 2, 4}, Late: []int{1}}
	if got, want := d.ExecutionOrder(), []int{2, 4, 1, 0, 3}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// A hot op on a losing partition stays outer and is locked after every
// cold outer op: nothing pk-depends on it, so all of the outer region's
// hot ops are late.
func TestDecideLateHotOnLosingPartition(t *testing.T) {
	p := &txn.Procedure{
		Name: "losing",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 2, Key: key(7), Mutate: mut}, // hot, partition 1
			{ID: 1, Type: txn.OpRead, Table: 1, Key: key(2)},
			{ID: 2, Type: txn.OpRead, Table: 1, Key: key(3)},
			{ID: 3, Type: txn.OpUpdate, Table: 3, Key: key(4), Mutate: mut}, // hot, partition 2
			{ID: 4, Type: txn.OpUpdate, Table: 3, Key: key(5), Mutate: mut}, // hot, partition 2
		},
	}
	g, _ := Build(p)
	d := Decide(g, nil, partResolver(map[storage.TableID]int{1: 0, 2: 1, 3: 2}), hotOps(0, 3, 4))
	if !d.TwoRegion || d.InnerHost != 2 || !slices.Equal(d.Late, []int{0}) {
		t.Fatalf("decision = %+v, want inner host 2 and Late [0]", d)
	}
	if got, want := d.ExecutionOrder(), []int{1, 2, 0, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if err := CheckDecision(g, &d); err != nil {
		t.Fatal(err)
	}
	// Only cold ops beside the inner region: nothing is late, and no
	// late list is allocated.
	d = Decide(g, nil, partResolver(map[storage.TableID]int{1: 0, 2: 1, 3: 2}), hotOps(3, 4))
	if d.Late != nil {
		t.Fatalf("Late = %v, want nil", d.Late)
	}
}

// A hot op whose pk-child lives on another partition stays outer, and a
// cold op's key depends on it: it cannot move behind that cold op, so
// only the hot op trailing the last cold op is late.
func TestDecideLateRespectsPKDeps(t *testing.T) {
	p := &txn.Procedure{
		Name: "dep",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpRead, Table: 1, Key: key(1)},                   // hot, partition 1
			{ID: 1, Type: txn.OpRead, Table: 2, Key: key(2), PKDeps: []int{0}}, // cold child, partition 0
			{ID: 2, Type: txn.OpUpdate, Table: 3, Key: key(3), Mutate: mut},    // hot, partition 2
			{ID: 3, Type: txn.OpUpdate, Table: 3, Key: key(4), Mutate: mut},    // hot, partition 2
			{ID: 4, Type: txn.OpUpdate, Table: 1, Key: key(5), Mutate: mut},    // hot, partition 1
		},
	}
	g, _ := Build(p)
	d := Decide(g, nil, partResolver(map[storage.TableID]int{1: 1, 2: 0, 3: 2}), hotOps(0, 2, 3, 4))
	if !d.TwoRegion || d.InnerHost != 2 || !slices.Equal(d.Late, []int{4}) {
		t.Fatalf("decision = %+v, want inner host 2 and Late [4]", d)
	}
	if got, want := d.ExecutionOrder(), []int{0, 1, 4, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if err := CheckDecision(g, &d); err != nil {
		t.Fatal(err)
	}
}

// Hottest is the inner op with the largest weight, the first one on a
// tie; a transaction without an inner region has none.
func TestDecideHottest(t *testing.T) {
	p := &txn.Procedure{
		Name: "weights",
		Ops: []txn.OpSpec{
			{ID: 0, Type: txn.OpUpdate, Table: 1, Key: key(1), Mutate: mut},
			{ID: 1, Type: txn.OpUpdate, Table: 1, Key: key(2), Mutate: mut},
			{ID: 2, Type: txn.OpUpdate, Table: 1, Key: key(3), Mutate: mut},
			{ID: 3, Type: txn.OpUpdate, Table: 1, Key: key(4), Mutate: mut},
		},
	}
	g, _ := Build(p)
	resolve := partResolver(map[storage.TableID]int{1: 0})
	weights := func(w ...float64) HotFunc {
		return func(op *txn.OpSpec, _ txn.Args) float64 { return w[op.ID] }
	}
	for _, tc := range []struct {
		w    []float64
		want int
	}{
		{[]float64{1, 3, 3, 2}, 1},
		{[]float64{0, 1, 0, 2}, 3},
		{[]float64{2, 2, 2, 2}, 0},
		{[]float64{0, 0, 0, 0}, -1},
	} {
		d := Decide(g, nil, resolve, weights(tc.w...))
		if d.Hottest != tc.want {
			t.Errorf("weights %v: Hottest = %d, want %d", tc.w, d.Hottest, tc.want)
		}
	}
}

func TestCheckDecisionCatchesViolations(t *testing.T) {
	g, _ := Build(flightProc())
	// Inner contains op 0 but its pk-child 5 is outer: outer op 5 has a
	// pk-dep on inner op 0 → invalid.
	bad := Decision{TwoRegion: true, InnerHost: 2, InnerOps: []int{0, 3}, OuterOps: []int{1, 2, 4, 5}}
	if err := CheckDecision(g, &bad); err == nil {
		t.Fatal("CheckDecision accepted an invalid split")
	}
	// Missing op.
	bad2 := Decision{TwoRegion: true, InnerHost: 2, InnerOps: []int{0}, OuterOps: []int{1, 2, 3}}
	if err := CheckDecision(g, &bad2); err == nil {
		t.Fatal("CheckDecision accepted missing ops")
	}
	// Duplicate op.
	bad3 := Decision{InnerOps: []int{0, 1}, OuterOps: []int{1, 2, 3, 4, 5}}
	if err := CheckDecision(g, &bad3); err == nil {
		t.Fatal("CheckDecision accepted duplicate ops")
	}
	// Late op 1 is locked after op 2, whose key pk-depends on it.
	bad4 := Decision{TwoRegion: true, InnerHost: 2, InnerOps: []int{0, 3, 5}, OuterOps: []int{1, 2, 4}, Late: []int{1}}
	if err := CheckDecision(g, &bad4); err == nil {
		t.Fatal("CheckDecision accepted a late op ahead of its pk-child")
	}
	// A late op that is not an outer op.
	bad5 := Decision{TwoRegion: true, InnerHost: 2, InnerOps: []int{0, 3, 5}, OuterOps: []int{1, 2, 4}, Late: []int{3}}
	if err := CheckDecision(g, &bad5); err == nil {
		t.Fatal("CheckDecision accepted a late inner op")
	}
}
