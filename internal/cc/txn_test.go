package cc

import (
	"testing"

	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/txn"
)

func testKey(k storage.Key) txn.KeyFunc {
	return func(txn.Args, txn.ReadSet) (storage.Key, bool) { return k, true }
}

func testSet(v byte) txn.MutateFunc {
	return func([]byte, txn.Args, txn.ReadSet) ([]byte, error) { return []byte{v}, nil }
}

// A released context carries nothing into the pool: no participant,
// batch, write group or own-write entry, no read set, and — over the
// whole capacity of every array it recycles — no pointer to a value a
// mutator built, so the pool pins no record. The abort path (Unbuffer,
// as a re-requested inner region does) and the inner region's commit
// path (DropWrites, a prefix of a group, then the rest) are walked first.
func TestReleasePinsNothing(t *testing.T) {
	ops := []txn.OpSpec{
		{ID: 0, Type: txn.OpUpdate, Table: 1, Key: testKey(7), Mutate: testSet(70)},
		{ID: 1, Type: txn.OpInsert, Table: 1, Key: testKey(8), Mutate: testSet(80)},
		{ID: 2, Type: txn.OpRead, Table: 1, Key: testKey(7)},
		{ID: 3, Type: txn.OpDelete, Table: 2, Key: testKey(9)},
	}
	run := func(c *Txn) {
		for i := range ops {
			key, _ := ops[i].Key(nil, nil)
			b := c.BatchFor(1, i%2)
			b.Entries = append(b.Entries, c.Entry(&ops[i], key))
			c.Participant(b.Target).Locked = true
			if reason := c.Step(&ops[i], nil, key, 0, false); reason != txn.AbortNone {
				t.Fatalf("op %d: %v", i, reason)
			}
		}
	}
	c := txnPool.Get().(*Txn)
	c.ID, c.TS, c.Detail, c.Reads = 1, 2, "detail", txn.ReadSet{0: {7}}
	run(c)
	if got := c.Reads[2]; len(got) != 1 || got[0] != 70 {
		t.Fatalf("read after the transaction's own update saw %v, want [70]", got)
	}
	if len(c.WriteSets()[0]) != 3 || len(c.owns) != 3 {
		t.Fatalf("buffered %d writes, %d own-write entries, want 3 and 3", len(c.WriteSets()[0]), len(c.owns))
	}
	c.Unbuffer()
	if len(c.writes)+len(c.byPID)+len(c.owns) != 0 {
		t.Fatalf("Unbuffer left %d write groups, %d own-write entries", len(c.writes), len(c.owns))
	}
	run(c)
	c.DropWrites(0, 2) // an inner region's writes, ahead of the outer ones
	if ws := c.Writes(0); len(ws) != 1 || ws[0].Type != txn.OpDelete {
		t.Fatalf("DropWrites(0, 2) kept %v, want the delete buffered last", ws)
	}
	c.DropWrites(0, 1)
	if len(c.WriteSets()) != 0 || len(c.owns) != 3 {
		t.Fatalf("DropWrites left %d write sets, %d own-write entries (want 0 and 3: the index stays)", len(c.WriteSets()), len(c.owns))
	}
	run(c)
	c.Release()

	if len(c.Parts)+len(c.Batches)+len(c.Failed)+len(c.round)+len(c.served)+len(c.writes)+len(c.byPID)+len(c.owns)+len(c.readRIDs)+len(c.writeRIDs) != 0 ||
		c.Reads != nil || c.ID != 0 || c.TS != 0 || c.Detail != "" || c.sample {
		t.Errorf("a released context is dirty: %+v", c)
	}
	for _, g := range c.writes[:cap(c.writes)] {
		for _, w := range g.ws[:cap(g.ws)] {
			if w.Value != nil {
				t.Errorf("a released context still pins a written value: %v", w)
			}
		}
	}
	for _, o := range c.owns[:cap(c.owns)] {
		if o.val != nil {
			t.Errorf("a released context still pins an own-write value: %v", o)
		}
	}
}
