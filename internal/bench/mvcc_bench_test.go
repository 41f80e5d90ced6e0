package bench

import (
	"testing"
	"time"

	"github.com/chillerdb/chiller/internal/server"
)

// readHeavyAcceptanceOptions is the configuration the snapshot path is
// built for: a 2-partition cluster with full replication (every node
// holds a replica of every partition, so every snapshot read resolves
// against local versions), a slow simulated network (locking reads pay
// it, snapshot reads don't), hot-key contention between audits and
// transfers, and an open-loop window of 4 outstanding transactions per
// client.
//
// The window must NOT be wide enough to hide the network: with
// in-flight = parts × Concurrency × outstanding = 16 transactions and
// 100µs one-way latency, the locking run is latency-bound (every remote
// lock-read pays the round trip) while the snapshot run stays CPU-bound
// — the structural gap TestMVCCReadHeavyShapes pins. A saturating
// window (say 48 in-flight at 20µs) hides the latency behind pipelining
// and both runs converge on the same CPU ceiling.
func readHeavyAcceptanceOptions() (opt Options, parts, outstanding int) {
	opt = testOptions()
	opt.Replication = 2 // = parts: full replication
	opt.Latency = 100 * time.Microsecond
	opt.Concurrency = 2
	opt.Duration = 400 * time.Millisecond
	return opt, 2, 4
}

// TestMVCCReadHeavyAcceptance pins the two exact claims of the
// read-heavy MVCC path (the third, throughput ≥1.5× the locking path, is
// a wall-clock ordering and lives in TestMVCCReadHeavyShapes):
//   - aborts: snapshot audits never abort — the path takes no locks and
//     enters no lane schedule, so there is nothing to lose a race to;
//   - verbs: snapshot audits issue zero network verbs — with a replica
//     of every partition on the coordinator, VerbSnapshotRead is never
//     needed.
func TestMVCCReadHeavyAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opt, parts, outstanding := readHeavyAcceptanceOptions()
	opt.Duration = 150 * time.Millisecond // the invariants are exact at any length
	on, err := runReadHeavy(opt, parts, outstanding, true)
	if err != nil {
		t.Fatal(err)
	}
	audits := on.ByProc[BankSnapAuditProc]
	if audits == nil || audits.Committed == 0 {
		t.Fatalf("MVCC-on run committed no snapshot audits: %+v", audits)
	}
	if audits.Aborted != 0 {
		t.Errorf("snapshot audits aborted %d times, want 0", audits.Aborted)
	}
	if vp := on.Verbs[server.KindSnapRead]; vp != nil && vp.Count != 0 {
		t.Errorf("snapshot audits issued %d %s verbs on a fully-replicated cluster, want 0",
			vp.Count, server.KindSnapRead)
	}
}
