#!/usr/bin/env bash
# Sim parity check for engine and profiler refactors: runs the six
# examples/ on the SimEngine from two build trees and diffs their RunStats
# JSON, then runs bench/prof_apps from both and compares every
# PROF_<app>.json byte for byte. Sim is deterministic, so a refactor that
# keeps behaviour keeps every number and every profile.
#
#   tools/sim_parity.sh PARENT_BUILD CHANGE_BUILD
#
# Each build tree is a configured-and-built default tree (its examples/
# directory holds the six demo binaries, its bench/ directory prof_apps).
# Examples that take --sched run under all six schedulers; the others run
# their fixed configuration. Each case runs twice from PARENT_BUILD first:
# a field (or a PROF file) that differs between those two runs is not
# deterministic and is left out of the comparison (and named). Exit status
# 0 means everything compared matched; 1 lists each case, field or file
# that differs.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)" || exit 2
change="$(cd "$2" && pwd)" || exit 2
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

scheds="fifo lifo asyncdf worksteal clustered dfdeques"
cases=("quickstart" "fft_demo" "nbody_demo" "render_demo")
for s in $scheds; do
  cases+=("classify_demo --sched $s" "pthread_port_demo --sched $s")
done

# run BUILD CASE OUT: one example run, RunStats JSON to OUT. Runs inside the
# work directory so render_demo's image lands there.
run() {
  local build="$1" words=($2) out="$3"
  (cd "$work" && "$build/examples/${words[0]}" "${words[@]:1}" \
     --stats-json "$out" > /dev/null) || {
    echo "FAIL: $build/examples/$2 exited non-zero" >&2
    return 1
  }
}

status=0
for c in "${cases[@]}"; do
  tag="${c// /_}"
  run "$parent" "$c" "$work/$tag.p1.json" &&
    run "$parent" "$c" "$work/$tag.p2.json" &&
    run "$change" "$c" "$work/$tag.c.json" || { status=1; continue; }
  python3 - "$c" "$work/$tag".{p1,p2,c}.json <<'EOF' || status=1
import json, sys

def flat(path):
    out = {}
    def walk(prefix, v):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(f"{prefix}.{k}" if prefix else k, x)
        else:
            out[prefix] = v
    walk("", json.load(open(path)))
    return out

case, p1, p2, c = sys.argv[1], *(flat(p) for p in sys.argv[2:])
unstable = sorted(k for k in p1.keys() | p2.keys() if p1.get(k) != p2.get(k))
diffs = [k for k in sorted(p1.keys() | c.keys())
         if k not in unstable and p1.get(k) != c.get(k)]
note = f" (skipped, differs run to run: {', '.join(unstable)})" if unstable else ""
if diffs:
    for k in diffs:
        print(f"DIFF  {case}: {k}: parent={p1.get(k)} change={c.get(k)}")
    sys.exit(1)
print(f"same  {case}: {len(p1) - len(unstable)} fields{note}")
EOF
done

# Second pass: the seven apps' work/span profiles. Each prof_apps run gets its
# own directory, since it writes PROF_<app>.json into the working directory.
prof_run() {
  local build="$1" dir="$2"
  mkdir -p "$dir" && (cd "$dir" && "$build/bench/prof_apps" --max-procs 8 > /dev/null) || {
    echo "FAIL: $build/bench/prof_apps exited non-zero" >&2
    return 1
  }
}
shopt -s nullglob
if prof_run "$parent" "$work/prof.p1" && prof_run "$parent" "$work/prof.p2" &&
   prof_run "$change" "$work/prof.c"; then
  profs=("$work"/prof.p1/PROF_*.json)
  [[ ${#profs[@]} -gt 0 ]] || { echo "FAIL: parent prof_apps wrote no PROF_*.json" >&2; status=1; }
  for f in "${profs[@]}"; do
    name="$(basename "$f")"
    if ! cmp -s "$f" "$work/prof.p2/$name"; then
      echo "skip  prof_apps: $name (differs run to run)"
    elif cmp -s "$f" "$work/prof.c/$name"; then
      echo "same  prof_apps: $name"
    else
      echo "DIFF  prof_apps: $name differs byte for byte"
      status=1
    fi
  done
else
  status=1
fi
exit $status
