#!/usr/bin/env bash
# The one command of the repo benchmark (see README.md beside this file).
#
#   bash benchmark/run.sh                      whole suite: 3 interleaved repeats untraced, then the traced pass
#   bash benchmark/run.sh --tiny               smoke of every workload and both passes (a few rounds each)
#   bash benchmark/run.sh --selfcheck          two full sets interleaved; fails if they disagree beyond a bound
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              one run; the last stdout line is the JSON result
#
# Builds the product binary (`stellaris`, whose `worker` subcommand the remote
# workload spawns) and the benchmark package offline into one shared target
# directory, then hands every argument to `stellaris-benchmark`. Spans and the
# latest numbers land in benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"

build_start=$(date +%s.%N)
# cargo reports on stderr; stdout stays the benchmark's own.
cargo build --release --offline --bin stellaris --target-dir "$target"
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target"
build_end=$(date +%s.%N)
awk -v a="$build_start" -v b="$build_end" 'BEGIN { printf "benchmark: build %.1f s\n", b - a }' >&2

exec "$target/release/stellaris-benchmark" \
    --worker-bin "$target/release/stellaris" --out benchmark/out "$@"
