#!/usr/bin/env bash
# Build dls-serve, dls-trace and dls-bench from this checkout, then run
# dls-bench with the given arguments. Run from the repository root:
#   bash crates/bench/src/bin/dls-bench/run.sh --workload hot-direct --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p svc -p bench --bin dls-serve --bin dls-trace >&2
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
bench="$CARGO_TARGET_DIR/release/dls-bench"

# Pin a served workload (the benchmark and the dls-serve it starts) to one
# CPU, the last this shell may use. On a small VM a wake-up across vCPUs
# waits for the hypervisor to run the other vCPU, and that delay swung
# cold-routed's throughput twofold between runs of the same code.
# settle-sweep is one thread with no wake-ups, and stays unpinned so the
# kernel can keep other tasks off its CPU.
workload=""
prev=""
for arg in "$@"; do
    if [ "$prev" = "--workload" ]; then workload="$arg"; fi
    prev="$arg"
done
if [ "$workload" != "settle-sweep" ]; then
    if command -v taskset >/dev/null; then
        cpu="$(taskset -pc $$ | sed 's/.*: //; s/.*[,-]//')"
        exec taskset -c "$cpu" "$bench" "$@"
    fi
    echo "run.sh: taskset not found; running unpinned" >&2
fi
exec "$bench" "$@"
