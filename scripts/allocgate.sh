#!/usr/bin/env sh
# allocgate.sh — the machine-independent performance tripwire: runs each
# workload named in scripts/alloc_ceilings.txt once, traced, for two
# seconds at seed 42, and fails when a per-commit count — allocations,
# allocated bytes, messages, doorbells, RPCs: whichever metrics the file
# lists — exceeds its committed ceiling or the run's own correctness
# checks fail. These counts do not depend on the host's speed, so unlike
# the timing metrics (advisory in CI) this gate blocks.
set -eu

cd "$(dirname "$0")/.."
ceilings=scripts/alloc_ceilings.txt
status=0
for workload in $(sed 's/#.*//' "$ceilings" | awk 'NF { print $1 }' | sort -u); do
    result=$(bash benchmark/run.sh --workload "$workload" --seed 42 --seconds 2 --trace 1 | tail -n 1)
    case $result in
    '{"correct":true,'*) ;;
    *)
        echo "allocgate: $workload: the run did not report correct:true" >&2
        status=1
        continue
        ;;
    esac
    sed 's/#.*//' "$ceilings" | awk -v w="$workload" '$1 == w { print $2, $3 }' |
        while read -r metric ceiling; do
            value=$(printf '%s\n' "$result" | sed -n "s/.*\"$metric\":{\"value\":\([0-9.eE+-]*\).*/\1/p")
            if [ -z "$value" ]; then
                echo "allocgate: $workload: no $metric in the result" >&2
                exit 1
            fi
            if awk -v v="$value" -v c="$ceiling" 'BEGIN { exit !(v > c) }'; then
                echo "allocgate: $workload: $metric = $value exceeds the ceiling $ceiling" >&2
                exit 1
            fi
            echo "allocgate: $workload: $metric = $value (ceiling $ceiling)"
        done || status=1
done
exit $status
