package check

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/chillerdb/chiller/internal/bench"
	"github.com/chillerdb/chiller/internal/history"
	"github.com/chillerdb/chiller/internal/testutil"
)

// cell is one point of the engine × fabric × lanes × crash matrix. Every
// engine's participant verbs ride doorbell waves, so the fault schedules
// (drops, spikes, partitions) hit the lock-wave rings of all three and
// commit/abort frames ride the protected tail. (The "-batched" in some
// cell names dates from when that was a Chiller-only option.)
type cell struct {
	name      string
	engine    bench.EngineKind
	lanes     int
	transport string // "" = simnet
	crash     bool   // crash-restart schedule (WAL recovery between phases)
	promote   bool   // additionally promote the crashed partition to a replica
	mvcc      bool   // versioned stores; read-only slice on the snapshot path
	elastic   bool   // live node add/remove with incremental handoff mid-run
}

func matrixCells() []cell {
	var cells []cell
	for _, lanes := range []int{1, 4} {
		cells = append(cells,
			cell{name: fmt.Sprintf("2pl-lanes%d", lanes), engine: bench.Engine2PL, lanes: lanes},
			cell{name: fmt.Sprintf("occ-lanes%d", lanes), engine: bench.EngineOCC, lanes: lanes},
			cell{name: fmt.Sprintf("chiller-batched-lanes%d", lanes), engine: bench.EngineChiller, lanes: lanes},
		)
	}
	// Loopback-TCP cells: the same workload and checker over real
	// kernel sockets (one tcpnet fabric per node). Fault injection is
	// simnet-only, so these cells run fault-free — what they check is
	// the wire path itself: framing, per-connection FIFO, inline
	// dispatch ordering, and doorbell servicing at the destination.
	cells = append(cells,
		cell{name: "tcp-2pl", engine: bench.Engine2PL, lanes: 1, transport: bench.TransportTCP},
		cell{name: "tcp-occ", engine: bench.EngineOCC, lanes: 1, transport: bench.TransportTCP},
		cell{name: "tcp-chiller-batched", engine: bench.EngineChiller, lanes: 1, transport: bench.TransportTCP},
	)
	// Crash-restart cells: every node runs a WAL, and between two
	// workload phases a seeded-random node is killed, wiped, and
	// recovered by snapshot+tail replay — then phase two races traffic
	// against its revival. The promote cell additionally runs the
	// primary-death protocol: the crashed partition fails over to its
	// replica while the node is down. Recovered histories must check
	// serializable and the recovered store must match the acknowledged
	// pre-crash state exactly (LostCommits == 0).
	cells = append(cells,
		cell{name: "crash-2pl", engine: bench.Engine2PL, lanes: 2, crash: true},
		cell{name: "crash-occ", engine: bench.EngineOCC, lanes: 2, crash: true},
		cell{name: "crash-chiller-batched", engine: bench.EngineChiller, lanes: 2, crash: true},
		cell{name: "crash-promote-chiller", engine: bench.EngineChiller, lanes: 1, crash: true, promote: true},
	)
	// MVCC cells: versioned stores, shared commit clock, the workload's
	// read-only slice on the lock-free snapshot path (ProcSRO). The
	// verdict splits: writers must stay serializable, snapshot reads must
	// certify snapshot isolation (Result.SI). The crash cell additionally
	// recovers the victim's version chains from its WAL between phases —
	// snapshot reads spanning the crash boundary must still certify SI.
	for _, eng := range []struct {
		key  string
		kind bench.EngineKind
	}{
		{"2pl", bench.Engine2PL},
		{"occ", bench.EngineOCC},
		{"chiller", bench.EngineChiller},
	} {
		for _, lanes := range []int{1, 4} {
			cells = append(cells, cell{
				name:   fmt.Sprintf("mvcc-%s-lanes%d", eng.key, lanes),
				engine: eng.kind, lanes: lanes, mvcc: true,
			})
		}
	}
	cells = append(cells,
		cell{name: "mvcc-tcp-chiller", engine: bench.EngineChiller, lanes: 1, transport: bench.TransportTCP, mvcc: true},
		cell{name: "mvcc-crash-chiller", engine: bench.EngineChiller, lanes: 2, crash: true, mvcc: true},
	)
	// Elastic cells: a node joins mid-run, takes a partition through the
	// incremental handoff protocol under live traffic (and, on simnet,
	// under the default fault schedule), serves it, hands it back, and
	// is retired. The history must still check serializable, replicas
	// must converge on the post-churn topology, and the lost-key oracle
	// must find every loaded key at its current primary.
	cells = append(cells,
		cell{name: "elastic-chiller-batched", engine: bench.EngineChiller, lanes: 2, elastic: true},
		cell{name: "elastic-tcp-chiller", engine: bench.EngineChiller, lanes: 1, transport: bench.TransportTCP, elastic: true},
	)
	return cells
}

// runsPerCell decides the sweep depth: a short deterministic slice for
// the PR gate, a moderate sweep for plain `go test ./...` (tier-1), and
// whatever CHILLER_CHECKER_RUNS asks for in the nightly fuzz job (the
// acceptance bar is ≥100 per cell).
func runsPerCell(t *testing.T) int {
	if s := os.Getenv("CHILLER_CHECKER_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHILLER_CHECKER_RUNS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return 8
}

// TestCheckerMatrix is the chaos harness's cross-product sweep: every
// engine × transport × lanes cell runs randomized multi-key workloads
// under injected faults (drops, delay spikes, partition windows), and
// every recorded history must check serializable, with replicas
// converged and no leaked locks. Failing seeds and their histories are
// written to CHILLER_CHECKER_ARTIFACTS (or the system temp dir) for
// offline replay — see docs/TESTING.md.
func TestCheckerMatrix(t *testing.T) {
	runs := runsPerCell(t)
	baseSeed := testutil.Seed(t, 20260729)
	for _, c := range matrixCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cellRuns := runs
			faults := DefaultFaults()
			if c.transport == bench.TransportTCP {
				// Fault injection is simnet-only; the TCP cells run
				// fault-free, and one deterministic run suffices for the
				// short-mode PR gate.
				faults = nil
				if testing.Short() && cellRuns > 1 {
					cellRuns = 1
				}
			}
			for run := 0; run < cellRuns; run++ {
				seed := baseSeed + int64(run)*101
				res, err := Run(Config{
					Engine:    c.engine,
					Transport: c.transport,
					Lanes:     c.lanes,
					Seed:      seed,
					Faults:    faults,
					Crash:     c.crash,
					Promote:   c.promote,
					MVCC:      c.mvcc,
					Elastic:   c.elastic,
				})
				if err != nil {
					t.Fatalf("run %d (seed %d): harness: %v", run, seed, err)
				}
				if res.Committed == 0 {
					t.Fatalf("run %d (seed %d): nothing committed", run, seed)
				}
				if err := res.Err(); err != nil {
					saveArtifact(t, c.name, seed, res.Recorder)
					t.Fatalf("run %d (seed %d): %v", run, seed, err)
				}
				if c.mvcc && res.SI.Readers == 0 {
					// A green MVCC cell that never exercised the snapshot
					// path certified nothing.
					t.Fatalf("run %d (seed %d): no snapshot reads committed", run, seed)
				}
			}
		})
	}
}

// TestCheckerMatrixNoFaults keeps a fault-free slice in the matrix: the
// checker must also pass on plain contended histories (and this is the
// cell that would expose a fault-injection artifact masquerading as an
// engine bug).
func TestCheckerMatrixNoFaults(t *testing.T) {
	seed := testutil.Seed(t, 4242)
	for _, c := range matrixCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Engine: c.engine, Transport: c.transport, Lanes: c.lanes, Seed: seed, Crash: c.crash, Promote: c.promote, MVCC: c.mvcc, Elastic: c.elastic})
			if err != nil {
				t.Fatalf("harness: %v", err)
			}
			if err := res.Err(); err != nil {
				saveArtifact(t, c.name+"-nofaults", seed, res.Recorder)
				t.Fatal(err)
			}
		})
	}
}

// TestCheckerSensitivity proves the end-to-end pipeline has teeth: take
// a real recorded history, forge a lost update (a later committed
// writer observing the same predecessor version as an earlier one), and
// the checker must reject the mutation. A checker that passes mutated
// histories would make every green matrix run meaningless.
func TestCheckerSensitivity(t *testing.T) {
	seed := testutil.Seed(t, 77)
	for _, lanes := range []int{1, 4} {
		res, err := Run(Config{
			Engine: bench.EngineChiller, Lanes: lanes,
			Seed: seed, Faults: DefaultFaults(),
		})
		if err != nil {
			t.Fatalf("lanes=%d: harness: %v", lanes, err)
		}
		if err := res.Err(); err != nil {
			t.Fatalf("lanes=%d: unmutated history rejected: %v", lanes, err)
		}
		txns := res.Recorder.Txns()
		mut := forgeLostUpdate(txns)
		if mut < 0 {
			t.Fatalf("lanes=%d: no mutation site found (history too small?)", lanes)
		}
		rep := Histories(txns, Options{IsInitial: IsInitialVal})
		if rep.Serializable() {
			t.Fatalf("lanes=%d: forged lost update (txn %d) checked clean", lanes, mut)
		}
	}
}

// TestCheckerLostCommitSensitivity proves the durability check has
// teeth: with ForgeLostCommit the harness silently reverts one recovered
// record after WAL replay — exactly what a durability bug that dropped
// an acknowledged commit would look like — and the run MUST flag it as a
// lost-commit violation. A green crash matrix is only meaningful if this
// forgery is caught.
func TestCheckerLostCommitSensitivity(t *testing.T) {
	seed := testutil.Seed(t, 88)
	res, err := Run(Config{
		Engine: bench.EngineChiller, Lanes: 2,
		Seed: seed, Crash: true, ForgeLostCommit: true,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	if res.LostCommits == 0 {
		t.Fatal("forged lost commit not counted (durability check has no teeth)")
	}
	if err := res.Err(); err == nil {
		t.Fatal("forged lost commit checked clean")
	} else {
		t.Logf("caught as expected: %v", err)
	}
}

// forgeLostUpdate makes a later committed writer of some key observe
// the same predecessor version an earlier writer consumed. Returns the
// mutated txn's seq, or -1 if no site exists.
func forgeLostUpdate(txns []history.Txn) int {
	lastWriterRead := make(map[[2]uint64][]byte)
	for i := range txns {
		if !txns[i].Committed {
			continue
		}
		writes := make(map[[2]uint64]bool, len(txns[i].Writes))
		for _, w := range txns[i].Writes {
			writes[[2]uint64{uint64(w.Table), uint64(w.Key)}] = true
		}
		for j := range txns[i].Reads {
			r := &txns[i].Reads[j]
			kk := [2]uint64{uint64(r.Table), uint64(r.Key)}
			if !writes[kk] {
				continue // only a writer's read can forge a lost update
			}
			if prev, ok := lastWriterRead[kk]; ok && string(prev) != string(r.Value) {
				r.Value = prev
				return int(txns[i].Seq)
			}
			lastWriterRead[kk] = r.Value
		}
	}
	return -1
}

// saveArtifact archives a failing run's seed and history JSON so the
// failure replays offline (CI uploads the directory).
func saveArtifact(t *testing.T, cellName string, seed int64, rec *history.Recorder) {
	t.Helper()
	dir := os.Getenv("CHILLER_CHECKER_ARTIFACTS")
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "chiller-checker-failures")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cellName, seed))
	f, err := os.Create(path)
	if err != nil {
		t.Logf("artifact: %v", err)
		return
	}
	defer f.Close()
	if err := rec.WriteJSON(f); err != nil {
		t.Logf("artifact write: %v", err)
		return
	}
	t.Logf("failing history archived: %s (replay: CHILLER_SEED=%d)", path, seed)
}
