#!/usr/bin/env bash
# Builds the wsan CLI and the benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload <city-shard|serve-churn|detect-wifi> \
#       --seed N --seconds S --trace <0|1>
#
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); serve-churn's journal and socket go under it too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p wsan-cli --bin wsan >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/wsan-perfbench" --wsan "$target/release/wsan" \
    --work "$target/perfbench-work" "$@"
