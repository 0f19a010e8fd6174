#!/usr/bin/env bash
# Rebuilds the figure, ablation, throughput and fault-sweep binaries in
# release mode, runs them, and diffs their stdout (plus the fig7 VCD
# waveform) against the committed snapshots in crates/bench/snapshots/.
# Every binary is deterministic, so any difference is a finding.
#
# Usage: scripts/check_snapshots.sh            # check
#        scripts/check_snapshots.sh --update   # rewrite the snapshots
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
snapshots="$root/crates/bench/snapshots"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p vcop-bench

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
bin="$root/target/release"
(
    cd "$out"
    for b in fig7 fig8 fig9 overheads ablations throughput; do
        "$bin/$b" > "$b.txt"
    done
    "$bin/faults" --quick > faults.txt
)

if [[ "${1:-}" == "--update" ]]; then
    cp "$out"/*.txt "$out/fig7.vcd" "$snapshots/"
    echo "snapshots updated"
    exit 0
fi

status=0
for f in fig7.txt fig8.txt fig9.txt overheads.txt ablations.txt throughput.txt faults.txt fig7.vcd; do
    if ! diff -u "$snapshots/$f" "$out/$f"; then
        echo "snapshot mismatch: $f" >&2
        status=1
    fi
done
[[ $status -eq 0 ]] && echo "all snapshots match"
exit $status
