#!/usr/bin/env sh
# checkdocs.sh — documentation gates, run by the CI docs job and locally.
#
#   1. The root package and every internal/ and cmd/ package must carry
#      a package doc comment (go/doc extracts it; an empty .Doc means
#      the comment is missing).
#   2. The fabric packages (internal/simnet, internal/transport,
#      internal/wire) must document every exported symbol — their godoc
#      is the reference for the network/verb model (docs/NETWORK.md) —
#      enforced by scripts/doccheck.
#   3. Every relative markdown link in README.md and docs/ must point at
#      a file or directory that exists (anchors are stripped; external
#      http(s)/mailto links are skipped).
#   4. Transport layering: no package outside internal/transport (and
#      internal/simnet itself) may import internal/simnet. Engines and
#      harnesses program against the transport interface; composition
#      roots reach the simulator only through internal/transport/simfab,
#      so the TCP fabric (or a future RDMA one) stays a drop-in.
#   5. One assembly: outside _test.go files and benchmark/, nodes are
#      built (server.New), logs opened (wal.Recover / wal.Open) and
#      replayed into a store (server.RecoverStore) only under
#      internal/deploy — so the checker certifies the code users run,
#      restarts included.
#   6. One fan-out: outside _test.go files and benchmark/, doorbells are
#      built (NewDoorbell) only under internal/server — coordinators post
#      through server.Wave — and no two-sided send or handler
#      registration names a participant verb (VerbLockRead, VerbRead,
#      VerbValidate, VerbReplicate, VerbCommit, VerbAbort,
#      VerbSnapshotRead): those ride doorbell frames only.
#   7. One op interpreter: outside _test.go files, benchmark/ and
#      internal/history (the checker's independent replay, a separate
#      copy on purpose), an OpSpec's Mutate and its Check are each called
#      from exactly one file — cc.Txn, which every engine's locking path
#      and the MVCC snapshot path run on — so a procedure means the same
#      under each.
#   8. Nothing unrun: every non-main package under internal/ is imported
#      by some other package — of the module, its tests or benchmark/.
#      internal/check is the one exemption: it is the checker, run by its
#      own tests.
#   9. One fault layer: drops, spikes and partitions (a crash is a node
#      cut from all the others) live in
#      internal/transport (Faults, an Endpoint wrapper) and nowhere in a
#      fabric — no .go file under internal/simnet or internal/tcpnet names
#      the fault plan, its errors or a private fault roll.
#  10. One way onto the replication stream: every sender waits for its
#      replica acks through one waiter (server.Acks, ids from a node-local
#      counter), and the WAL's group commit is self-clocked — no non-test
#      .go file names the deleted ack-id namespace bits, per-sender ack
#      methods or linger knob.
#  11. One importer of the figure harness: outside _test.go files and
#      benchmark/, only cmd/chiller-bench imports internal/bench — the
#      checker assembles on internal/deploy, its tests included, and
#      chiller-node shares only the TPC-C sizing (tpcc.WarehousePerNode)
#      with the bench client.
#  12. One record write: outside internal/storage, _test.go files and
#      benchmark/, no .go file calls MVCCEnabled — every apply goes
#      through storage.Table.Write, and the store alone decides what a
#      stamp retains.
#  13. One plan: depgraph.Decide plans a Chiller transaction — its regions,
#      the outer ops locked last and the op whose lane runs the inner
#      region — and internal/core executes the plan without re-deriving
#      it: no non-test .go file under internal/core names PKDeps, and
#      exactly one calls HotWeight (the HotFunc core hands to Decide).
#  14. Pointer-free records stay the store's business: no non-test .go
#      file outside internal/storage imports unsafe — slot arrays and
#      value chunks are the one place that converts pointers, and the
#      layout tests there pin what the collector may not scan.
#  15. One load fan-out: no non-test .go file under internal/workload,
#      nor internal/bench/bank.go, starts a goroutine — a loader splits
#      its data into independent slices and cluster.LoadSlices alone
#      spreads them across the cores.
#  16. One lock list: a transaction's locks at a node are its participant
#      state's, taken and released through server.Region and the
#      commit/abort release — no non-test .go file under internal/core or
#      internal/cc calls a bucket lock word's TryLock, Upgrade or Unlock
#      or names LockWord, and no .go file names the deleted second list
#      or its bridges (BorrowLock, EnterPartition, LeavePartition,
#      innerLockRef).
#  17. One participant dispatch: the participant steps run only from
#      Node.serve, and a ring has one way to complete.
#  18. One record memory: slot arrays and overflow buckets are carved
#      from their table's slab.
#  19. One log per node: internal/wal keeps one append-only file and at
#      most one snapshot per node directory — no .go file names the
#      deleted per-lane state or its readers (laneLog, LaneSnapshot,
#      readLaneTail, walkLane, logLane, encodeLaneSnapshot,
#      applyLaneSnapshot) or a lane-%03d file name.
#  20. One delivery queue: simnet holds no per-link state and no random
#      source, and nothing names WithJitter.
#  21. One stream order: a replica applies each stream message whole on
#      the lane of its link — no non-test .go file in internal/server
#      declares groupByLane or laneGroup, the per-record-lane split.
#  22. One abort point: a Chiller transaction's every abort lies before
#      its inner region's commit — no non-test .go file under
#      internal/core says "outer op failed" or "infallible".
#
# Exits non-zero with a list of offenders on failure.
set -eu

cd "$(dirname "$0")/.."
fail=0

# --- 1. package doc comments -------------------------------------------
missing=$(go list -f '{{if not .Doc}}{{.Dir}}{{end}}' . ./internal/... ./cmd/...)
if [ -n "$missing" ]; then
    echo "packages missing a package doc comment:" >&2
    echo "$missing" >&2
    fail=1
fi

# --- 2. exported-symbol docs in the fabric packages ---------------------
if ! go run ./scripts/doccheck internal/simnet internal/transport internal/wire; then
    fail=1
fi

# --- 4. simnet import lint ----------------------------------------------
# Only transport implementations may import the simulator directly.
offenders=$(go list -f '{{$p := .ImportPath}}{{range .Imports}}{{if eq . "github.com/chillerdb/chiller/internal/simnet"}}{{$p}}{{println}}{{end}}{{end}}{{range .TestImports}}{{if eq . "github.com/chillerdb/chiller/internal/simnet"}}{{$p}} (tests){{println}}{{end}}{{end}}{{range .XTestImports}}{{if eq . "github.com/chillerdb/chiller/internal/simnet"}}{{$p}} (external tests){{println}}{{end}}{{end}}' ./... |
    sed '/^$/d' | sort -u |
    grep -v -e '^github.com/chillerdb/chiller/internal/simnet' \
            -e '^github.com/chillerdb/chiller/internal/transport' || true)
if [ -n "$offenders" ]; then
    echo "packages importing internal/simnet directly (use internal/transport or internal/transport/simfab):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 5. one assembly ------------------------------------------------------
offenders=$(grep -rnE --include='*.go' \
        'server\.(New|RecoverStore)\(|wal\.(Recover|Open)\(' . |
    grep -v -e '_test\.go:' -e '^\./benchmark/' -e '^\./internal/deploy/' || true)
if [ -n "$offenders" ]; then
    echo "node assembly outside internal/deploy (build nodes with deploy.NewNode / deploy.NewCluster):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 6. one fan-out -------------------------------------------------------
offenders=$( {
    grep -rnE --include='*.go' 'NewDoorbell\(' . | grep -v -e '^\./internal/server/'
    grep -rnE --include='*.go' \
        '(\.(Call|Send)|Handle[A-Za-z]*)\([^)]*Verb(LockRead|Read|Validate|Replicate|Commit|Abort|SnapshotRead)\b' .
} | grep -v -e '_test\.go:' -e '^\./benchmark/' || true)
if [ -n "$offenders" ]; then
    echo "participant verbs off the wave (post them through server.Wave; see docs/NETWORK.md):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 7. one op interpreter ------------------------------------------------
for hook in Mutate Check; do
    callers=$(grep -rlE --include='*.go' "[]A-Za-z0-9_]\\.$hook\\(" . |
        grep -v -e '_test\.go$' -e '^\./benchmark/' -e '^\./internal/history/' || true)
    if [ "$(printf '%s\n' "$callers" | grep -c .)" -ne 1 ]; then
        echo "an op's $hook must be called from exactly one file (cc.Txn gives an op its meaning), found:" >&2
        echo "${callers:-(none)}" >&2
        fail=1
    fi
done

# --- 8. nothing unrun ------------------------------------------------------
# "importer imported" pairs over the module, its tests and benchmark/; a
# package's own external tests (package x_test) do not count.
edges=$( {
    go list -f '{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}{{println}}{{end}}{{range .TestImports}}{{$p}} {{.}}{{println}}{{end}}{{range .XTestImports}}{{$p}} {{.}}{{println}}{{end}}' ./...
    (cd benchmark && go list -f '{{$p := .ImportPath}}{{range .Imports}}{{$p}} {{.}}{{println}}{{end}}{{range .TestImports}}{{$p}} {{.}}{{println}}{{end}}' ./...)
} | awk '$1 != $2 { print $2 }' | sort -u)
unimported=$(go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' ./internal/... |
    grep -v -e '^$' -e '/internal/check$' |
    while read -r pkg; do
        printf '%s\n' "$edges" | grep -qxF "$pkg" || echo "$pkg"
    done)
if [ -n "$unimported" ]; then
    echo "packages nothing imports (delete them, or import them from what runs):" >&2
    echo "$unimported" >&2
    fail=1
fi

# --- 9. one fault layer ---------------------------------------------------
offenders=$(grep -rnE --include='*.go' \
        'FaultPlan|ErrInjectedDrop|ErrPartitioned|ErrCrashed|rollFault|requestFault' \
        internal/simnet internal/tcpnet || true)
if [ -n "$offenders" ]; then
    echo "fault injection inside a fabric (it belongs to transport.Faults, which wraps every fabric):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 10. one way onto the replication stream -------------------------------
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' \
        'outerAckBit|backfillBit|ExpectInnerAcks|ExpectPendingAcks|ResolveInnerAcks|CancelInnerAcks|ReleaseInnerWaiter|FlushInterval' \
        . || true)
if [ -n "$offenders" ]; then
    echo "a second way onto the replication stream (open a server.Acks), or the WAL linger:" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 11. one importer of the figure harness ------------------------------
offenders=$({
    grep -rlE --include='*.go' --exclude='*_test.go' \
        '"github.com/chillerdb/chiller/internal/bench"' .
    grep -rlE --include='*_test.go' \
        '"github.com/chillerdb/chiller/internal/bench"' ./internal/check
} | grep -v -e '^\./benchmark/' -e '^\./cmd/chiller-bench/' || true)
if [ -n "$offenders" ]; then
    echo "internal/bench imported outside cmd/chiller-bench (assemble with internal/deploy):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 12. one record write --------------------------------------------------
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' 'MVCCEnabled\(' . |
    grep -v -e '^\./internal/storage/' -e '^\./benchmark/' || true)
if [ -n "$offenders" ]; then
    echo "the store kind read outside internal/storage (apply through storage.Table.Write; the store decides retention):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 13. one plan ---------------------------------------------------------
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' 'PKDeps' internal/core || true)
hotweight=$(grep -rnE --include='*.go' --exclude='*_test.go' 'HotWeight\(' internal/core || true)
if [ -n "$offenders" ] || [ "$(printf '%s\n' "$hotweight" | grep -c .)" -ne 1 ]; then
    echo "internal/core re-derives the plan (take it from depgraph.Decide; HotWeight only in the HotFunc core hands to Decide):" >&2
    printf '%s\n' "$offenders" "$hotweight" | grep . >&2
    fail=1
fi

# --- 14. unsafe only in the store ------------------------------------------
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]*(import[[:space:]]+)?"unsafe"' . |
    grep -v -e '^\./internal/storage/' || true)
if [ -n "$offenders" ]; then
    echo "unsafe imported outside internal/storage:" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 15. one load fan-out ---------------------------------------------------
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]*go[[:space:]]+[^[:space:]]' \
    internal/workload internal/bench/bank.go || true)
if [ -n "$offenders" ]; then
    echo "a loader starts its own goroutine (split the load into slices and run them with cluster.LoadSlices):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 16. one lock list ------------------------------------------------------
offenders=$({
    grep -rnE --include='*.go' --exclude='*_test.go' '\.Lock\.(TryLock|Upgrade|Unlock)\(|LockWord' \
        internal/core internal/cc
    grep -rnwE --include='*.go' 'BorrowLock|EnterPartition|LeavePartition|innerLockRef' .
} || true)
if [ -n "$offenders" ]; then
    echo "a lock list beside the participant state (lock through server.Region):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 17. one participant dispatch -------------------------------------------
# The participant steps run only from Node.serve (LockReadLocal, the
# benchmark probes' entry point, may call lockRead), and a ring has one
# way to complete.
offenders=$({
    find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' |
        xargs awk '
            FNR == 1 { fn = "" }
            /^func / { fn = $0; next }
            /^}/ { fn = ""; next }
            /^[[:space:]]*\/\// { next }
            /(^|[^[:alnum:]_])(lockRead|readLocal|validateLocal|SnapshotReadLocal|replicateLocal|CommitLocal|AbortLocal)\(/ {
                if (fn ~ /\) serve\(/) next
                if (fn ~ /\) LockReadLocal\(/ && $0 ~ /[^[:alnum:]_]lockRead\(/) next
                print FILENAME ":" FNR ":" $0
            }'
    grep -rnwE --include='*.go' 'Reap|PostCommit|PostReplicate|PostAbort|doorbellKinds|doorbellKindIndex' .
} || true)
if [ -n "$offenders" ]; then
    echo "a participant step served outside Node.serve, or a second way to post or complete a ring:" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 18. one record memory --------------------------------------------------
# Slot arrays and overflow buckets are carved from their table's slab;
# a Go object per bucket is what the slab replaced.
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' 'make\(\[\]entry|&Bucket\{' internal/storage |
    grep -v '^internal/storage/slab\.go:' || true)
if [ -n "$offenders" ]; then
    echo "a slot array or an overflow bucket allocated outside the table's slab (internal/storage/slab.go):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 19. one log per node ---------------------------------------------------
offenders=$(grep -rnE --include='*.go' \
        'laneLog|LaneSnapshot|readLaneTail|walkLane|logLane|encodeLaneSnapshot|applyLaneSnapshot|lane-%03d' . || true)
if [ -n "$offenders" ]; then
    echo "per-lane log state (a node has one log; see docs/DURABILITY.md):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 20. one delivery queue -----------------------------------------------
# simnet delivers two-sided messages from one queue in one order: every
# message between distinct nodes waits the same Latency, so nothing
# per-link and nothing random belongs in it. Delay faults are
# transport.Faults' (rule 9).
offenders=$({
    grep -rnE --include='*.go' --exclude='*_test.go' '"math/rand(/v2)?"|^type link\b|^[[:space:]]+link[[:space:]]+struct' internal/simnet
    grep -rnw --include='*.go' 'WithJitter' .
} || true)
if [ -n "$offenders" ]; then
    echo "per-link state, a random source or WithJitter on the simulated fabric (one delivery queue; delays are transport.Faults'):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 21. one stream order -------------------------------------------------
# Per-link FIFO is the stream's order; re-splitting a message by record
# lane made apply order depend on lane placements staying put.
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' \
        '^func (\([^)]*\) )?groupByLane\b|^type laneGroup\b' internal/server || true)
if [ -n "$offenders" ]; then
    echo "a replica re-splits stream messages by record lane (each applies whole on its link's lane; see applyStream):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 22. one abort point ---------------------------------------------------
# The inner region computes the outer writes before it commits, so a
# failing mutator or Check aborts; nothing past the commit point may.
offenders=$(grep -rnE --include='*.go' --exclude='*_test.go' 'outer op failed|infallible' internal/core || true)
if [ -n "$offenders" ]; then
    echo "a Chiller op that may fail past the inner commit (the outer writes are computed inside the inner region, before its commit point):" >&2
    echo "$offenders" >&2
    fail=1
fi

# --- 3. markdown links --------------------------------------------------
# Pull out ](target) occurrences, keep relative targets, strip anchors.
for md in README.md docs/*.md; do
    [ -f "$md" ] || continue
    dir=$(dirname "$md")
    links=$(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//') || true
    for link in $links; do
        case "$link" in
        http://*|https://*|mailto:*|\#*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
            echo "$md: broken link -> $link" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: FAILED" >&2
    exit 1
fi
echo "checkdocs: OK"
