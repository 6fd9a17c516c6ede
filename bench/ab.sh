#!/usr/bin/env bash
# Interleaved A/B runs of one dkbench workload: a base revision against
# this checkout (its working tree, uncommitted changes included).
#
#   bash bench/ab.sh BASE WORKLOAD [PAIRS] [SECONDS]
#   make dkbench-ab BASE=<rev> WORKLOAD=<w> PAIRS=<n>
#
# BASE is checked out as a detached git worktree under _build/ab-base
# (reused and moved to BASE on later calls).  Each pair runs
# bench/suite/run.sh once in each tree with the same seed; odd pairs
# run the base first, even pairs this checkout first, so drifting
# background load falls on both sides alike.  Every run's setup_s goes
# to stderr as it lands; at the end stdout gets the median, quartiles
# and IQR of setup_s per side, how many pairs this checkout won, and
# the failed requests each side counted.  A run with a wrong answer
# stops the script.
set -eu
cd "$(dirname "$0")/.."
base=${1:?usage: bench/ab.sh BASE WORKLOAD [PAIRS] [SECONDS]}
workload=${2:?usage: bench/ab.sh BASE WORKLOAD [PAIRS] [SECONDS]}
pairs=${3:-5}
seconds=${4:-20}
rev=$(git rev-parse --verify "$base^{commit}")
wt=_build/ab-base
mkdir -p _build
if [ -e "$wt/.git" ]; then
  git -C "$wt" checkout --quiet --detach "$rev"
else
  git worktree add --quiet --detach "$wt" "$rev"
fi
results=$(mktemp)
trap 'rm -f "$results"' EXIT

# run SIDE TREE: one dkbench run in TREE, recorded as
# "SIDE PAIR setup_s failed".
run() {
  local line setup failed
  line=$(bash "$2/bench/suite/run.sh" --workload "$workload" --seed 1 \
    --seconds "$seconds" --trace 0 | tail -n 1)
  case $line in
    *'"correct":true'*) ;;
    *) echo "ab: $1 run of pair $pair answered wrongly: $line" >&2; exit 1 ;;
  esac
  setup=$(printf '%s\n' "$line" | sed -n 's/.*"setup_s":{"value":\([^,}]*\).*/\1/p')
  failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
  echo "ab: pair $pair $1 setup_s=$setup failed=$failed" >&2
  echo "$1 $pair $setup $failed" >>"$results"
}

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run base "$wt"; run head .
  else
    run head .; run base "$wt"
  fi
done

echo "setup_s, $workload, $pairs interleaved pairs, base $(git rev-parse --short "$rev") vs this checkout:"
for side in base head; do
  awk -v side="$side" '$1 == side { print $3 }' "$results" | sort -g | awk -v side="$side" '
    { x[NR] = $1 }
    # Quantile with linear interpolation between closest ranks.
    function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return x[i] + (h - i) * (x[i + 1] - x[i]) }
    END {
      x[NR + 1] = x[NR]
      printf "  %s  median %.4f  q1 %.4f  q3 %.4f  IQR %.4f  (n=%d)\n", side, q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25), NR
    }'
done
awk '{ f[$1] += $4 } END { printf "  failed requests: base %d, head %d\n", f["base"], f["head"] }' "$results"
awk '{ v[$1, $2] = $3 } END {
  for (p = 1; (("base", p) in v); p++) { n++; if (v["head", p] < v["base", p]) w++ }
  printf "  head below base in %d of %d pairs\n", w, n }' "$results"
