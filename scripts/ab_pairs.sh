#!/usr/bin/env bash
# Interleaved A/B pairs of one benchmark workload: a parent revision against
# the working tree.
#
#   bash scripts/ab_pairs.sh REV WORKLOAD SEED N
#
# Exports REV (any commit-ish, e.g. HEAD~1) to target/ab/<sha>/src and builds
# it offline into its own target directory; builds the working tree into
# target/, leaving its benchmark/Cargo.lock as it found it. Then runs N pairs
# of `stellaris-benchmark --workload WORKLOAD --seconds 10 --trace 0`, pair k
# on seed SEED+k for both sides, swapping which side goes first on every pair
# so drift on a shared host hits both.
#
# Prints each pair's three end-to-end metrics and the change/parent ratio of
# env_steps_per_s, then the number of pairs the change won, each side's
# medians, the median ratio and failed operations. The pair rule a claimed
# gain is judged by: the change wins at least 9 of 10 pairs and its median
# beats the parent's by more than the parent's interquartile range.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="$4"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --short=12 "$rev^{commit}")"
base="target/ab/$sha"
if [ ! -d "$base/src" ]; then
    mkdir -p "$base/src.partial"
    git archive "$sha" | tar -x -C "$base/src.partial"
    mv "$base/src.partial" "$base/src"
fi

# The offline build rewrites benchmark/Cargo.lock, and benchmark/ is frozen:
# the working tree's copy is put back on exit, failure included.
lock="$root/benchmark/Cargo.lock"
mkdir -p "$base"
cp "$lock" "$base/benchmark-Cargo.lock"
trap 'cp "$base/benchmark-Cargo.lock" "$lock"' EXIT

build() { # SRC TARGET
    cargo build -q --release --offline --manifest-path "$1/Cargo.toml" --bin stellaris \
        --target-dir "$2"
    cargo build -q --release --offline --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$2"
}
echo "ab: building parent $sha and the working tree" >&2
build "$base/src" "$root/$base/target"
build "$root" "$root/target"

results="$base/pairs-$workload-$seed-$pairs.tsv"
: >"$results"
run() { # SIDE TARGET SEED
    local out json
    out="$base/out-$1"
    mkdir -p "$out"
    json="$("$2/release/stellaris-benchmark" --worker-bin "$2/release/stellaris" \
        --out "$out" --workload "$workload" --seed "$3" --seconds 10 --trace 0 2>/dev/null |
        tail -n 1)"
    printf '%s\t%s\t%s\n' "$1" "$3" "$json" >>"$results"
}
for k in $(seq 0 $((pairs - 1))); do
    s=$((seed + k))
    if [ $((k % 2)) -eq 0 ]; then
        run parent "$root/$base/target" "$s"
        run change "$root/target" "$s"
    else
        run change "$root/target" "$s"
        run parent "$root/$base/target" "$s"
    fi
done

python3 - "$results" "$workload" <<'EOF'
import json, statistics, sys

path, workload = sys.argv[1], sys.argv[2]
keys = ["env_steps_per_s", "peak_rss_mib", "setup_s"]
runs = {"parent": {}, "change": {}}
failed = {"parent": [0, 0], "change": [0, 0]}
for line in open(path):
    side, seed, raw = line.rstrip("\n").split("\t", 2)
    d = json.loads(raw)
    runs[side][int(seed)] = {k: d["metrics"][k]["value"] for k in keys}
    failed[side][0] += d["failed"]
    failed[side][1] += d["attempted"]

def row(tag, m):
    return f"{tag} {m['env_steps_per_s']:10.0f} {m['peak_rss_mib']:7.1f} {m['setup_s']:6.3f}"

print(f"{workload}: change vs parent, env_steps_per_s / peak_rss_mib / setup_s")
ratios = []
for s in sorted(runs["parent"]):
    p, c = runs["parent"][s], runs["change"][s]
    r = c["env_steps_per_s"] / p["env_steps_per_s"]
    ratios.append(r)
    print(f"seed {s:4d}  {row('parent', p)}  {row('change', c)}  x{r:.3f}")
wins = sum(r > 1 for r in ratios)
print(f"wins {wins}/{len(ratios)}  median ratio x{statistics.median(ratios):.3f}")
for side in ("parent", "change"):
    vals = list(runs[side].values())
    med = {k: statistics.median(v[k] for v in vals) for k in keys}
    steps = sorted(v["env_steps_per_s"] for v in vals)
    q = statistics.quantiles(steps, n=4) if len(steps) > 1 else [steps[0]] * 3
    print(f"{side} medians  {row('', med).strip()}  steps IQR {q[2] - q[0]:.0f}"
          f"  ops failed {failed[side][0]}/{failed[side][1]}")
EOF
