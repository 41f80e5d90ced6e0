#!/usr/bin/env sh
# checkdocs.sh — documentation gates, run by the CI docs job and locally.
#
#   1. The root package and every internal/ and cmd/ package must carry
#      a package doc comment (go/doc extracts it; an empty .Doc means
#      the comment is missing).
#   2. The fabric packages (internal/simnet, internal/wire) must
#      document every exported symbol — their godoc is the reference for
#      the network/verb model (docs/NETWORK.md) — enforced by
#      scripts/doccheck.
#   3. Every relative markdown link in README.md and docs/ must point at
#      a file or directory that exists (anchors are stripped; external
#      http(s)/mailto links are skipped).
#   4. Transport layering: no package outside internal/transport (and
#      internal/simnet itself) may import internal/simnet. Engines and
#      harnesses program against the transport interface; composition
#      roots reach the simulator only through internal/transport/simfab,
#      so the TCP fabric (or a future RDMA one) stays a drop-in.
#   5. One assembly: outside _test.go files and benchmark/, nodes are
#      built (server.New) and logs opened (wal.Recover / wal.Open) only
#      under internal/deploy — so the checker certifies the code users run.
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
if ! go run ./scripts/doccheck internal/simnet internal/wire; then
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
        'server\.New\(|wal\.(Recover|Open)\(' . |
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
        '(\.(Go|Call|Send)|Handle[A-Za-z]*)\([^)]*Verb(LockRead|Read|Validate|Replicate|Commit|Abort|SnapshotRead)\b' .
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
