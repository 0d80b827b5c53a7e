#!/bin/sh
# CI smoke test of the benchmark itself: the toy suite (4-16 channel
# members through the same code paths), a schema check of the document it
# writes, and a self-compare, which must report no REGRESSION.
# Run from anywhere; needs only cargo.
set -eu
cd "$(dirname "$0")/.."

suite() {
    cargo run --release --offline --quiet --manifest-path benchsuite/Cargo.toml --bin suite -- "$@"
}

out=benchsuite/target/astree-bench-work/ci-smoke.json
mkdir -p "$(dirname "$out")"
suite --toy --seed "${SEED:-1}" --out "$out" > /dev/null

grep -q '"schema": "astree-bench/1"' "$out"
for name in paper_cold small_mix edit_cycle parallel \
    wall_s cpu_s kloc_per_s peak_rss_mb disk_mb failed_share setup_s \
    host_cpus seed reps commit why members per_layer; do
    grep -q "\"$name\"" "$out" || { echo "ci-smoke: $out lacks \"$name\"" >&2; exit 1; }
done

suite --compare "$out" "$out"
echo "ci-smoke: ok"
