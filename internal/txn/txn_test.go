package txn

import (
	"errors"
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/wire"
)

func constKey(k storage.Key) KeyFunc {
	return func(Args, ReadSet) (storage.Key, bool) { return k, true }
}

func identityMutate(old []byte, _ Args, _ ReadSet) ([]byte, error) { return old, nil }

func TestProcedureValidateOK(t *testing.T) {
	p := &Procedure{
		Name: "ok",
		Ops: []OpSpec{
			{ID: 0, Type: OpRead, Table: 1, Key: constKey(1)},
			{ID: 1, Type: OpUpdate, Table: 1, Key: constKey(2), VDeps: []int{0}, Mutate: identityMutate},
			{ID: 2, Type: OpInsert, Table: 2, Key: constKey(3), PKDeps: []int{0}, Mutate: identityMutate},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProcedureValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		proc *Procedure
	}{
		{"no name", &Procedure{Ops: []OpSpec{{ID: 0, Type: OpRead, Key: constKey(1)}}}},
		{"bad id", &Procedure{Name: "x", Ops: []OpSpec{{ID: 5, Type: OpRead, Key: constKey(1)}}}},
		{"no key", &Procedure{Name: "x", Ops: []OpSpec{{ID: 0, Type: OpRead}}}},
		{"no mutate", &Procedure{Name: "x", Ops: []OpSpec{{ID: 0, Type: OpUpdate, Key: constKey(1)}}}},
		{"self dep", &Procedure{Name: "x", Ops: []OpSpec{
			{ID: 0, Type: OpRead, Key: constKey(1), PKDeps: []int{0}},
		}}},
		{"forward dep", &Procedure{Name: "x", Ops: []OpSpec{
			{ID: 0, Type: OpRead, Key: constKey(1), PKDeps: []int{1}},
			{ID: 1, Type: OpRead, Key: constKey(2)},
		}}},
		{"dep on insert", &Procedure{Name: "x", Ops: []OpSpec{
			{ID: 0, Type: OpInsert, Key: constKey(1), Mutate: identityMutate},
			{ID: 1, Type: OpRead, Key: constKey(2), PKDeps: []int{0}},
		}}},
		{"out of range dep", &Procedure{Name: "x", Ops: []OpSpec{
			{ID: 0, Type: OpRead, Key: constKey(1), VDeps: []int{9}},
		}}},
	}
	for _, c := range cases {
		if err := c.proc.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", c.name)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	p := &Procedure{Name: "p1", Ops: []OpSpec{{ID: 0, Type: OpRead, Key: constKey(1)}}}
	if err := r.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(p); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	if r.Lookup("p1") != p {
		t.Fatal("Lookup failed")
	}
	if r.Lookup("missing") != nil {
		t.Fatal("Lookup returned phantom")
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "p1" {
		t.Fatalf("Names = %v", names)
	}
}

// A nil value (an absent record) and an empty one (a present record of
// length 0) stay apart across the wire, and a decoded value is capped at
// its length, so an append cannot write into the next.
func TestReadSetEncodeDecode(t *testing.T) {
	rs := ReadSet{3: []byte("c"), 1: []byte("a"), 2: nil, 4: []byte{}}
	w := wire.NewWriter(0)
	rs.Encode(w)
	got := DecodeReadSet(wire.NewReader(w.Bytes()), nil)
	if len(got) != 4 {
		t.Fatalf("decoded %d entries", len(got))
	}
	if string(got[1]) != "a" || string(got[3]) != "c" || cap(got[1]) != 1 {
		t.Fatalf("decoded %v", got)
	}
	if got[2] != nil {
		t.Fatalf("nil value decoded as %#v", got[2])
	}
	if got[4] == nil || len(got[4]) != 0 {
		t.Fatalf("empty value decoded as %#v", got[4])
	}
}

func TestReadSetClone(t *testing.T) {
	rs := ReadSet{0: []byte{1, 2}}
	c := rs.Clone()
	c[0][0] = 99
	if rs[0][0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestOpTypeProperties(t *testing.T) {
	if OpRead.IsWrite() {
		t.Error("OpRead.IsWrite")
	}
	for _, ty := range []OpType{OpUpdate, OpInsert, OpDelete} {
		if !ty.IsWrite() {
			t.Errorf("%v.IsWrite = false", ty)
		}
		if ty.LockMode() != storage.LockExclusive {
			t.Errorf("%v lock mode not exclusive", ty)
		}
	}
	if OpRead.LockMode() != storage.LockShared {
		t.Error("OpRead lock mode not shared")
	}
}

func TestAbortClassification(t *testing.T) {
	err := NewAbort(AbortLockConflict, "bucket 7")
	if ReasonOf(err) != AbortLockConflict {
		t.Fatalf("ReasonOf = %v", ReasonOf(err))
	}
	if ReasonOf(nil) != AbortNone {
		t.Fatal("nil should be AbortNone")
	}
	if ReasonOf(errors.New("misc")) != AbortInternal {
		t.Fatal("unclassified should be AbortInternal")
	}
	wrapped := &Abort{Reason: AbortValidation}
	if ReasonOf(wrapped) != AbortValidation {
		t.Fatal("direct Abort misclassified")
	}
	if got := err.Error(); got == "" {
		t.Fatal("empty error string")
	}
}

func TestAbortReasonStrings(t *testing.T) {
	for _, r := range []AbortReason{AbortNone, AbortLockConflict, AbortValidation, AbortConstraint, AbortNotFound, AbortInternal} {
		if r.String() == "" {
			t.Errorf("empty String for %d", r)
		}
	}
}
