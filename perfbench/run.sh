#!/usr/bin/env bash
# Builds the release `xseed-serve` and the benchmark driver from this
# checkout, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload <est-hot|batch-cold> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Both builds share CARGO_TARGET_DIR
# (default: target). The last line of output is the result as JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p xseed-service --bin xseed-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/xseed-perfbench" \
    --server "$CARGO_TARGET_DIR/release/xseed-serve" \
    --out "$CARGO_TARGET_DIR/perfbench" "$@"
