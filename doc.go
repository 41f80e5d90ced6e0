// Package chiller is a from-scratch reproduction of "Chiller:
// Contention-centric Transaction Execution and Data Partitioning for Fast
// Networks" (Zamanian, Shun, Binnig, Kraska — SIGMOD 2020).
//
// The library implements the paper's two contributions — the two-region
// transaction execution model (internal/core) and the contention-centric
// partitioner (internal/partition/chillerpart) — together with every
// substrate they need: a simulated RDMA fabric (internal/simnet), a
// NAM-DB-style bucket storage engine (internal/storage), 2PL/2PC and OCC
// baseline engines (internal/cc/...), primary-backup and inner-region
// replication plus per-core execution lanes (internal/server), the
// statistics service (internal/stats), a multilevel graph partitioner
// (internal/metis), and the TPC-C and Instacart workloads
// (internal/workload/...). Every node shards its execution engine into
// single-threaded lanes — the paper's one-engine-per-core deployment —
// so per-node throughput scales with cores while same-record work stays
// serialized.
//
// This package is also the public embedded-database API — the one
// supported way to use the system as a library (the internal packages
// carry no compatibility promise). Open assembles a simulated cluster
// with functional options; NewProc declaratively builds stored
// procedures (key dependencies, value dependencies, constraint checks,
// co-location hints — the declarations the §3 static analysis
// consumes); DB.Execute runs one transaction under a context.Context
// with a typed, errors.Is-able error taxonomy (ErrAborted,
// ErrLockConflict, ErrConstraint, ErrNotFound, ErrUnknownProc, ...);
// Retry supplies the standard jittered-backoff NO_WAIT retry policy;
// DB.MarkHot and DB.Repartition expose the §4.4 hot lookup table and
// the §4 contention-centric partitioner; DB.Close drains asynchronous
// commit work before teardown, so quiesce is automatic. See the
// package example and the README quickstart.
//
// docs/ARCHITECTURE.md walks a transaction through the whole stack and
// maps each package to its paper section (its "Public API" section maps
// every DB method to the internal layers it drives); docs/FIGURES.md
// indexes the reproduced evaluation (experiments, JSON schema, expected
// shapes). Start with the examples/ directory — all of which run on the
// public API alone — the chiller-bench command (-exp list prints the
// experiment index), or the benchmark harness in bench_test.go, which
// regenerates every table and figure of the paper's evaluation;
// internal/bench/experiments.go defines the experiments themselves.
package chiller

// Version identifies the reproduction release.
const Version = "1.2.0"
