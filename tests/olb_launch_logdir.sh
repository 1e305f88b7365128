#!/usr/bin/env bash
# olb_launch opens every rank's log before it starts any rank.
#
#   tests/olb_launch_logdir.sh OLB_LAUNCH_BINARY
#
# A --logdir that does not exist must fail the launch with exit 2 and the
# log path on stderr, before any rank runs (no rank leaves its mark); an
# existing one must run every rank and hold rank 1's log.
set -uo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OLB_LAUNCH_BINARY" >&2
  exit 2
fi
launch=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0
fail() {
  echo "FAIL $1"
  failures=$((failures + 1))
}

# Each rank touches <mark>.<its --rank argument>; olb_launch appends
# --backend, --rank and --peer-addrs, which sh sees as $1, $2 and $3.
mark() {
  "$launch" --n 2 --timeout-ms 20000 --logdir "$1" -- \
    sh -c 'touch "$0.$2"' "$dir/started" 2>&1
}

out=$(mark "$dir/missing")
code=$?
if [ "$code" -ne 2 ]; then
  fail "missing logdir: exit $code, want 2; output: $out"
elif ! grep -q -- "$dir/missing/rank1.log" <<<"$out"; then
  fail "missing logdir: the log path is not named in: $out"
elif compgen -G "$dir/started.*" >/dev/null; then
  fail "missing logdir: a rank ran before the launch failed"
else
  echo "ok   missing logdir (exit 2)"
fi

mkdir "$dir/logs"
out=$(mark "$dir/logs")
code=$?
if [ "$code" -ne 0 ]; then
  fail "existing logdir: exit $code, want 0; output: $out"
elif [ ! -e "$dir/started.--rank=0" ] || [ ! -e "$dir/started.--rank=1" ] ||
     [ ! -e "$dir/logs/rank1.log" ]; then
  fail "existing logdir: missing rank marks or rank 1's log"
else
  echo "ok   existing logdir (exit 0)"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures olb_launch check(s) failed"
  exit 1
fi
echo "olb_launch logdir: all checks passed"
