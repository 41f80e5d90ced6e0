package check

import (
	"strings"
	"testing"

	"github.com/chillerdb/chiller/internal/deploy"
	"github.com/chillerdb/chiller/internal/history"
	"github.com/chillerdb/chiller/internal/storage"
	"github.com/chillerdb/chiller/internal/testutil"
)

// Handcrafted-history fixtures for the SI certifier: each anomaly class
// gets the minimal witness history, built from the same traceable value
// encoding the chaos workload uses, and the certifier must name it.

func fixWriter(seq uint64, rw ...[3]interface{}) history.Txn {
	t := history.Txn{Seq: seq, Proc: ProcRMW2, Committed: true, Reason: "committed"}
	for i, e := range rw {
		k, old, val := e[0].(storage.Key), e[1].([]byte), e[2].([]byte)
		t.Reads = append(t.Reads, history.Read{Op: i, Table: CheckTable, Key: k, Value: old})
		t.Writes = append(t.Writes, history.Write{Op: i, Table: CheckTable, Key: k, Type: "update", Value: val})
	}
	return t
}

func fixReader(seq uint64, rd ...[2]interface{}) history.Txn {
	t := history.Txn{Seq: seq, Proc: ProcSRO, Committed: true, Reason: "committed", ReadOnly: true}
	for i, e := range rd {
		t.Reads = append(t.Reads, history.Read{Op: i, Table: CheckTable, Key: e[0].(storage.Key), Value: e[1].([]byte)})
	}
	return t
}

func TestSICertifierFixtures(t *testing.T) {
	const x, y = storage.Key(1), storage.Key(2)
	ix, iy := InitialVal(x), InitialVal(y)
	v1, v2 := EncodeVal(100, 0), EncodeVal(200, 0)
	opts := Options{IsInitial: IsInitialVal}

	t.Run("clean", func(t *testing.T) {
		// One writer; one reader on the new snapshot, one on the old.
		// SI permits stale-but-consistent snapshots — this must certify.
		rep := SnapshotIsolation([]history.Txn{
			fixWriter(1, [3]interface{}{x, ix, v1}),
			fixReader(2, [2]interface{}{x, v1}, [2]interface{}{y, iy}),
			fixReader(3, [2]interface{}{x, ix}, [2]interface{}{y, iy}),
		}, opts)
		if err := rep.Err(); err != nil {
			t.Fatalf("clean SI history rejected: %v", err)
		}
		if rep.Readers != 2 {
			t.Fatalf("Readers = %d, want 2", rep.Readers)
		}
	})

	t.Run("long-fork", func(t *testing.T) {
		// Two independent writers; reader A saw x new / y old, reader B
		// saw x old / y new. Serializable writers, yet no single commit
		// timeline contains both snapshots — the defining SI anomaly.
		rep := SnapshotIsolation([]history.Txn{
			fixWriter(1, [3]interface{}{x, ix, v1}),
			fixWriter(2, [3]interface{}{y, iy, v2}),
			fixReader(3, [2]interface{}{x, v1}, [2]interface{}{y, iy}),
			fixReader(4, [2]interface{}{x, ix}, [2]interface{}{y, v2}),
		}, opts)
		if rep.WriterReport.Err() != nil {
			t.Fatalf("independent writers flagged: %v", rep.WriterReport.Err())
		}
		assertSIViolation(t, rep, ViolationLongFork)
	})

	t.Run("fractured-read", func(t *testing.T) {
		// One writer updates x and y together; the snapshot saw its x but
		// not its y (atomic visibility broken).
		rep := SnapshotIsolation([]history.Txn{
			fixWriter(1, [3]interface{}{x, ix, v1}, [3]interface{}{y, iy, v2}),
			fixReader(2, [2]interface{}{x, v1}, [2]interface{}{y, iy}),
		}, opts)
		assertSIViolation(t, rep, ViolationFracturedRead)
	})

	t.Run("aborted-read", func(t *testing.T) {
		// The snapshot returned a value no committed transaction wrote.
		rep := SnapshotIsolation([]history.Txn{
			fixReader(1, [2]interface{}{x, EncodeVal(999, 0)}),
		}, opts)
		assertSIViolation(t, rep, ViolationAbortedRead)
	})

	t.Run("writers-broken", func(t *testing.T) {
		// A lost update among the writers fails step 1; the reader is not
		// blamed (no SI violations — the engine bug is beneath MVCC).
		rep := SnapshotIsolation([]history.Txn{
			fixWriter(1, [3]interface{}{x, ix, v1}),
			fixWriter(2, [3]interface{}{x, ix, v2}),
			fixReader(3, [2]interface{}{x, v1}),
		}, opts)
		if rep.OK() {
			t.Fatal("lost update among writers certified")
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("writer bug misattributed to snapshot reads: %v", rep.Violations)
		}
		if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "writers not serializable") {
			t.Fatalf("Err = %v, want writer-serializability failure", err)
		}
	})
}

func assertSIViolation(t *testing.T, rep *SIReport, code string) {
	t.Helper()
	if rep.OK() {
		t.Fatalf("anomalous history certified (want %s)", code)
	}
	for _, v := range rep.Violations {
		if v.Code == code {
			if err := rep.Err(); err == nil || !strings.Contains(err.Error(), code) {
				t.Fatalf("Err() = %v does not name %s", err, code)
			}
			return
		}
	}
	t.Fatalf("violations %v do not include %s", rep.Violations, code)
}

// TestSISensitivity proves the MVCC pipeline end to end has teeth: take
// a real recorded MVCC history (which certifies), forge a long fork by
// splitting two snapshot reads across two independent committed writers,
// and the certifier must reject the mutation naming the anomaly. Without
// this, a green MVCC matrix could mean the reader edges are never
// derived at all.
func TestSISensitivity(t *testing.T) {
	seed := testutil.Seed(t, 99)
	res, err := Run(Config{
		Engine: deploy.EngineChiller, Lanes: 2,
		Seed: seed, Faults: true, MVCC: true,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("unmutated MVCC history rejected: %v", err)
	}
	txns := res.Recorder.Txns()
	if !forgeLongFork(txns) {
		t.Fatal("no forgery site found (history too small?)")
	}
	rep := SnapshotIsolation(txns, Options{IsInitial: IsInitialVal})
	if rep.OK() {
		t.Fatal("forged long fork certified as SI")
	}
	t.Logf("caught as expected: %v", rep.Err())
}

// forgeLongFork mutates two committed snapshot readers so each observes
// one of two committed writes of distinct keys while missing the other —
// reader A gets key1 new / key2 pre-state, reader B the mirror image.
// Works on any history with two committed writers of distinct keys and
// two committed readers covering both keys.
func forgeLongFork(txns []history.Txn) bool {
	// Final committed version and its predecessor per key.
	type ver struct{ val, prev []byte }
	final := make(map[storage.Key]ver)
	for i := range txns {
		if !txns[i].Committed || txns[i].ReadOnly {
			continue
		}
		reads := make(map[storage.Key][]byte, len(txns[i].Reads))
		for _, r := range txns[i].Reads {
			reads[r.Key] = r.Value
		}
		for _, w := range txns[i].Writes {
			final[w.Key] = ver{val: w.Value, prev: reads[w.Key]}
		}
	}
	var readers []*history.Txn
	for i := range txns {
		if txns[i].Committed && txns[i].ReadOnly && len(txns[i].Reads) >= 2 {
			readers = append(readers, &txns[i])
		}
	}
	if len(readers) < 2 {
		return false
	}
	// Any two written keys whose predecessor version is known serve as
	// the fork's prongs; the two readers' observations are rewritten
	// wholesale (a snapshot read may observe any keys — the checker only
	// sees values).
	var k1, k2 storage.Key
	found := 0
	for k, v := range final {
		if v.val == nil || v.prev == nil {
			continue
		}
		if found == 0 {
			k1 = k
		} else if k != k1 {
			k2 = k
			found++
			break
		}
		found++
	}
	if found < 2 {
		return false
	}
	a, b := readers[0], readers[1]
	a.Reads = []history.Read{
		{Op: 0, Table: CheckTable, Key: k1, Value: final[k1].val},
		{Op: 1, Table: CheckTable, Key: k2, Value: final[k2].prev},
	}
	b.Reads = []history.Read{
		{Op: 0, Table: CheckTable, Key: k1, Value: final[k1].prev},
		{Op: 1, Table: CheckTable, Key: k2, Value: final[k2].val},
	}
	return true
}
