#!/usr/bin/env sh
# loc.sh — non-test Go lines per package and in total, excluding the
# self-contained benchmark/ module. The round's design aim is "the same
# behaviour from less code"; this is its number. The CI docs job prints
# it to the job summary so it has a trend line per commit.
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' |
    sort | xargs wc -l | awk '
        $2 == "total" { next }
        { dir = $2; sub(/\/[^\/]*$/, "", dir); n[dir] += $1; total += $1 }
        END {
            for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
            close("sort -k2")
            printf "%7d total\n", total
        }'
