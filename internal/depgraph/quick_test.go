package depgraph

import (
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
	"github.com/chillerdb/chiller/internal/txn"
)

// Property test: for randomly generated procedures, partition layouts and
// hot sets, Decide must always produce a structurally valid decision —
// inner+outer partition the op set, no outer op pk-depends on an inner
// op, and the implied execution order (late outer ops after the others)
// respects every pk-dep.
func TestDecideAlwaysValid(t *testing.T) {
	rng := testutil.Rand(t, 20260612)
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		nOps := 1 + rng.Intn(10)
		nParts := 1 + rng.Intn(5)

		type opModel struct {
			resolvable bool
			part       int
			hot        bool
		}
		models := make([]opModel, nOps)
		ops := make([]txn.OpSpec, nOps)
		for i := 0; i < nOps; i++ {
			m := opModel{
				resolvable: rng.Float64() < 0.8,
				part:       rng.Intn(nParts),
				hot:        rng.Float64() < 0.3,
			}
			models[i] = m
			i := i
			spec := txn.OpSpec{
				ID:    i,
				Type:  txn.OpType(rng.Intn(3)), // read/update/insert
				Table: 1,
				Key: func(txn.Args, txn.ReadSet) (storage.Key, bool) {
					return storage.Key(i), models[i].resolvable
				},
			}
			if spec.Type != txn.OpRead {
				spec.Mutate = func(old []byte, _ txn.Args, _ txn.ReadSet) ([]byte, error) {
					return old, nil
				}
			}
			// Random backward pk-deps on reading ops.
			for d := 0; d < i; d++ {
				if rng.Float64() < 0.2 && ops[d].Type != txn.OpInsert {
					spec.PKDeps = append(spec.PKDeps, d)
				}
			}
			ops[i] = spec
		}
		proc := &txn.Procedure{Name: "q", Ops: ops}
		g, err := Build(proc)
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}

		resolve := func(op *txn.OpSpec, _ txn.Args) (int, bool) {
			m := models[op.ID]
			return m.part, m.resolvable
		}
		hot := func(op *txn.OpSpec, _ txn.Args) float64 {
			if models[op.ID].resolvable && models[op.ID].hot {
				return 1
			}
			return 0
		}
		dec := Decide(g, nil, resolve, hot)
		if err := CheckDecision(g, &dec); err != nil {
			t.Fatalf("trial %d: %v (decision %+v)", trial, err, dec)
		}
		if dec.TwoRegion {
			// Every inner op must resolve to the inner host's partition.
			for _, op := range dec.InnerOps {
				p, ok := resolve(&proc.Ops[op], nil)
				if !ok || p != dec.InnerHost {
					t.Fatalf("trial %d: inner op %d resolves to (%d,%v), host %d",
						trial, op, p, ok, dec.InnerHost)
				}
			}
			// At least one hot op must be inner (that is why we went
			// two-region).
			anyHot := false
			for _, op := range dec.InnerOps {
				if hot(&proc.Ops[op], nil) > 0 {
					anyHot = true
				}
			}
			if !anyHot {
				t.Fatalf("trial %d: two-region with no hot inner op", trial)
			}
			// Only hot ops are postponed, and the lane comes from a hot op.
			for _, op := range append([]int{dec.Hottest}, dec.Late...) {
				if hot(&proc.Ops[op], nil) <= 0 {
					t.Fatalf("trial %d: cold op %d in Late %v or Hottest %d", trial, op, dec.Late, dec.Hottest)
				}
			}
		}
	}
}
