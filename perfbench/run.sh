#!/usr/bin/env bash
# Builds the `rapid` binary and the benchmark harness from this checkout,
# then runs the harness pinned to every CPU this process may use (the
# server and every measured command inherit the pinning).
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds N --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# One target directory for both builds (the harness is a workspace of
# its own and would otherwise build under perfbench/).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --quiet --offline --locked --bin rapid >&2
cargo build --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml >&2
export PERFBENCH_RAPID="$target/release/rapid"
if command -v taskset >/dev/null; then
    exec taskset -c "$(taskset -pc $$ | sed 's/.*: //')" "$target/release/perfbench" "$@"
fi
exec "$target/release/perfbench" "$@"
