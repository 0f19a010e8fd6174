#!/usr/bin/env bash
# Rebuilds the figure, ablation, throughput and fault-sweep binaries and
# the perfbench benchmark in release mode, runs them, and diffs their
# output against the committed snapshots in crates/bench/snapshots/:
#
# - the stdout of every figure binary, plus the fig7 VCD waveform;
# - the stdout of four `vcop_run` invocations, one per workload;
# - the modeled lines of one traced perfbench pass per workload
#   (`sim*`, `sim.*`, `speedup_vs_sw`, `hw_served_fraction`). Host
#   metrics are left out: BENCHMARK.json bounds those.
#
# Every output compared here is deterministic, so any difference is a
# finding.
#
# Usage: scripts/check_snapshots.sh            # check
#        scripts/check_snapshots.sh --update   # rewrite the snapshots
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
snapshots="$root/crates/bench/snapshots"
workloads=(idea_sync adpcm_overlap serving_mix adpcm_faults)
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p vcop-bench
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
bin="$root/target/release"
perfbench="$root/perfbench/target/release/vcop-perfbench"
(
    # Run from the temp dir: fig7 writes fig7.vcd and perfbench's trace
    # writes .bench_trace/ into the working directory.
    cd "$out"
    for b in fig7 fig8 fig9 overheads ablations throughput; do
        "$bin/$b" > "$b.txt"
    done
    "$bin/faults" --quick > faults.txt
    {
        "$bin/vcop_run" adpcm --size-kb 8
        "$bin/vcop_run" idea --size-kb 16 --policy lru --transfer dma
        "$bin/vcop_run" matmul
        "$bin/vcop_run" vecadd --n 1024
    } > vcop_run.txt
    for w in "${workloads[@]}"; do
        "$perfbench" --workload "$w" --seed 1 --seconds 0 --trace 1 \
            | grep -E '^  (sim|speedup_vs_sw|hw_served_fraction)' > "perfbench_$w.txt"
    done
)

if [[ "${1:-}" == "--update" ]]; then
    cp "$out"/*.txt "$out/fig7.vcd" "$snapshots/"
    echo "snapshots updated"
    exit 0
fi

status=0
files=(fig7.txt fig8.txt fig9.txt overheads.txt ablations.txt throughput.txt faults.txt vcop_run.txt
    fig7.vcd)
for w in "${workloads[@]}"; do
    files+=("perfbench_$w.txt")
done
for f in "${files[@]}"; do
    if ! diff -u "$snapshots/$f" "$out/$f"; then
        echo "snapshot mismatch: $f" >&2
        status=1
    fi
done
[[ $status -eq 0 ]] && echo "all snapshots match"
exit $status
