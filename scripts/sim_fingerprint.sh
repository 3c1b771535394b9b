#!/usr/bin/env bash
# Prints one sha256 over the simulator's CSV results for a fixed matrix of
# experiments that together cover every GossipNode path: semantic and plain
# push, pull with pipelining and adaptive fanout, push-pull, network-level
# batching, overlay churn under a chaos schedule, and sharded Baseline with
# failover. The CSV holds only simulated fields (no wall time), so the hash
# is a bit-identity oracle: a change that must not alter simulated behaviour
# prints the same hash before and after.
#
# Usage:
#   scripts/sim_fingerprint.sh [-v] [EXPERIMENT_CLI]
#     -v              also print each run's CSV row (to stderr)
#     EXPERIMENT_CLI  binary to run (default build/examples/experiment_cli)
set -euo pipefail

verbose=0
if [[ "${1:-}" == "-v" ]]; then
    verbose=1
    shift
fi
cli="${1:-$(dirname "$0")/../build/examples/experiment_cli}"
if [[ ! -x "$cli" ]]; then
    echo "sim_fingerprint: $cli is not an executable (build experiment_cli first)" >&2
    exit 2
fi

matrix=(
    "--setup semantic"
    "--setup gossip"
    "--setup gossip --strategy pull --pipeline --fanout 2 --adaptive-fanout"
    "--setup gossip --strategy push-pull"
    "--setup gossip --batch 8"
    "--setup semantic --chaos moderate --fault-log"
    "--setup baseline --groups 8 --batch-size 8 --failover"
)

out=$(mktemp)
trap 'rm -f "$out"' EXIT
for args in "${matrix[@]}"; do
    # shellcheck disable=SC2086  # each matrix entry is a list of flags
    if ! "$cli" $args --csv --measure 2 > "$out.run"; then
        echo "sim_fingerprint: run failed: $args" >&2
        rm -f "$out.run"
        exit 1
    fi
    if [[ $verbose == 1 ]]; then
        { echo "# $args"; cat "$out.run"; } >&2
    fi
    { echo "# $args"; cat "$out.run"; } >> "$out"
    rm -f "$out.run"
done
sha256sum < "$out" | cut -d' ' -f1
