#!/usr/bin/env bash
# The end-to-end diff of the reference build against the default one.
#
#   ci/reference-diff.sh FAST_BIN REFERENCE_BIN [WORK_DIR]
#
# REFERENCE_BIN is `astree` built with `--features reference`, in which every
# fast path takes its plain reference (DESIGN, "Fast paths and their
# references"). Both binaries run the same corpus; every stable report must
# be equal, byte for byte, and their `--metrics` documents may differ only in
# the counters a reference changes by construction. Exits 1 on the first
# difference.
set -euo pipefail
fast=$1
ref=$2
work=${3:-$(mktemp -d)}
mkdir -p "$work/in" "$work/fast" "$work/ref"
repo=$(cd "$(dirname "$0")/.." && pwd)

stable() { grep -v '^time:\|^cache:\|^parallel:' || true; }

# run NAME ARGS...: the stable report of `astree ARGS...` from both binaries.
run() {
  local name=$1
  shift
  for side in fast ref; do
    local bin=$fast
    [ "$side" = ref ] && bin=$ref
    "$bin" "$@" > "$work/$side/$name.out" 2>&1 && echo 0 > "$work/$side/$name.exit" \
      || echo $? > "$work/$side/$name.exit"
    stable < "$work/$side/$name.out" > "$work/$side/$name.txt"
  done
}

for member in "8 42" "46 1" "256 7"; do
  set -- $member
  "$fast" generate --channels "$1" --seed "$2" -o "$work/in/m$1-s$2.c"
  for jobs in 1 4; do
    run "analyze-$1ch-s$2-j$jobs" analyze "$work/in/m$1-s$2.c" --census --dump-invariant \
      --jobs "$jobs"
  done
done
for bug in div0 oob overflow; do
  "$fast" generate --channels 4 --seed 3 --bug "$bug" -o "$work/in/bug-$bug.c"
  run "analyze-bug-$bug" analyze "$work/in/bug-$bug.c" --census --dump-invariant
done
for shape in "$repo"/tests/shapes/*.c; do
  run "shape-$(basename "$shape" .c)" analyze "$shape" --census --dump-invariant
done
for side in fast ref; do
  bin=$fast
  [ "$side" = ref ] && bin=$ref
  # Exit codes are compared with the reports (1: alarms or a failed premise).
  "$bin" batch --gen 6 --channels 2,4 --report "$work/$side/batch-report.txt" > /dev/null \
    && echo 0 > "$work/$side/batch.exit" || echo $? > "$work/$side/batch.exit"
  "$bin" fuzz --members 8 --seeds 2 --ticks 12 --report "$work/$side/campaign.json" \
    > "$work/$side/campaign.txt" && echo 0 > "$work/$side/fuzz.exit" || echo $? > "$work/$side/fuzz.exit"
  "$bin" analyze "$work/in/m8-s42.c" --jobs 4 --metrics "$work/$side/metrics.json" > /dev/null \
    || true
done

status=0
for f in "$work"/fast/*.txt "$work"/fast/*.exit "$work/fast/campaign.json"; do
  name=$(basename "$f")
  if ! cmp -s "$f" "$work/ref/$name"; then
    echo "reference build differs: $name"
    diff "$f" "$work/ref/$name" | head -20 || true
    status=1
  fi
done
[ "$status" = 0 ] || exit 1
echo "reference build: $(ls "$work"/fast/*.txt | wc -l) stable reports identical"

python3 - "$work/fast/metrics.json" "$work/ref/metrics.json" <<'PY'
import json, sys

fast, ref = (json.load(open(p)) for p in sys.argv[1:])

# The default build's fast paths fired, and the reference build's did not.
pf, pr = fast["pmap"], ref["pmap"]
assert pf["identity_preserved"] > 0, pf
assert pf["root_shortcut_hits"] + pf["interior_shortcut_hits"] > 0, pf
assert pr["identity_preserved"] == 0, pr
assert pr["root_shortcut_hits"] + pr["interior_shortcut_hits"] == 0, pr
assert pf["nodes_allocated"] < pr["nodes_allocated"], (pf, pr)
ff, fr = fast["core"]["frames"], ref["core"]["frames"]
assert ff["calls_framed"] > 0 and fr["calls_framed"] == 0, (ff, fr)

# Only the counters a reference changes by construction may move:
# - `pmap`: every allocation and shortcut counter (sharing);
# - `state.project`/`absorb` and `core.frames.calls_framed` (frames);
# - a loop's `narrowings` (the cuts), with its `iterations`, which count them,
#   and the work of the body passes those narrowings run.
# Every other counter of every loop is equal: the widening schedule does not
# move. The reference runs all `narrowing_iterations` (2 by default) of every
# solve. The work counts cannot be split per loop here; `tests/sharing.rs`
# checks them exactly (`plain` golden lines: equal in both builds with no
# narrowing, and each build's own with the default configuration).
def loops(m):
    return {(f, l): v for f, fn in m["functions"].items() for l, v in fn["loops"].items()}
lf, lr = loops(fast), loops(ref)
assert lf.keys() == lr.keys(), "the reference build solved other loops"
for key, v in lf.items():
    w = lr[key]
    for field in v.keys() - {"narrowings", "iterations"}:
        assert v[field] == w[field], (key, field, v[field], w[field])
    assert v["iterations"] - v["narrowings"] == w["iterations"] - w["narrowings"], (key, v, w)
    assert v["narrowings"] <= w["narrowings"] and w["narrowings"] % 2 == 0, (key, v, w)
moved_by_design = {("state", "project"), ("state", "absorb")}
def work(m):
    s = m["scheduler"]
    counts = {(d, op): v["count"] for d, ops in m["domains"].items() for op, v in ops.items()
              if (d, op) not in moved_by_design}
    counts.update({("scheduler", k): s[k] for k in ("stages", "merges")})
    counts[("scheduler", "slices")] = len(s["slices"])
    return counts
wf, wr = work(fast), work(ref)
assert wf.keys() == wr.keys(), sorted(wf.keys() ^ wr.keys())
extra = sum(w["narrowings"] - lf[k]["narrowings"] for k, w in lr.items())
for key in wf:
    # Each extra narrowing of the reference is an extra body pass: its work
    # can only grow, and only when it ran an extra narrowing.
    assert wf[key] <= wr[key] and (extra > 0 or wf[key] == wr[key]), (key, wf[key], wr[key])
for section in ("premise", "packs", "alarms"):
    assert fast[section] == ref[section], section
assert ff["frames"] == fr["frames"] and ff["calls_whole"] == fr["calls_whole"], (ff, fr)
assert fast["scheduler"]["fallbacks"] == ref["scheduler"]["fallbacks"]
print(f"metrics: {len(lf)} loops keep their widening schedule; {len(wf)} work counts "
      f"only grow ({extra} extra narrowings); sharing saved "
      f"{1 - pf['nodes_allocated'] / pr['nodes_allocated']:.1%} of node allocations")
PY
