#!/usr/bin/env bash
# Exit codes of `perf_lab --compare`, CI perf-smoke's regression gate.
#
#   tests/perf_lab_gate.sh PERF_LAB_BINARY
#
# Writes small perf_lab result files and checks: 1 when a best rate drops
# below (1 - threshold) x baseline; 0 when every rate stays within it, when
# the new file adds a metric, and (with a note) when the machine
# fingerprints differ; 2 for a malformed or out-of-range threshold, an
# unknown argument and an unreadable file.
set -uo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PERF_LAB_BINARY" >&2
  exit 2
fi
perf_lab=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# result FILE CPU ENGINE_BEST MAILBOX_BEST [EXTRA_METRIC_BEST]
result() {
  local extra=""
  if [ $# -ge 5 ]; then
    extra=",
    {\"name\": \"extra_metric\", \"unit\": \"ops/s\", \"best\": $5, \"p50\": $5, \"reps\": [$5]}"
  fi
  cat > "$dir/$1" <<EOF
{
  "schema": "olb-perf-lab-v1",
  "experiment": "perf_lab",
  "suite": "smoke",
  "reps": 1,
  "git_sha": "test",
  "machine": {"cpu": "$2", "nproc": 4, "governor": "unknown", "compiler": "test"},
  "results": [
    {"name": "BM_EngineEventThroughput", "unit": "events/s", "best": $3, "p50": $3, "reps": [$3]},
    {"name": "mailbox_throughput", "unit": "msgs/s", "best": $4, "p50": $4, "reps": [$4]}$extra
  ]
}
EOF
}

result base.json cpuA 1000000 500000
result same.json cpuA 1000000 500000
result within.json cpuA 900000 450000    # -10 % on both: inside 15 %
result slower.json cpuA 1000000 400000   # mailbox -20 %: a regression
result other_cpu.json cpuB 1000000 400000
result added.json cpuA 1000000 500000 7

failures=0
# expect CODE NAME OUTPUT_PATTERN ARGS...: runs perf_lab ARGS, checks the
# exit code and that stdout+stderr match OUTPUT_PATTERN (grep -E; "" skips).
expect() {
  local want=$1 name=$2 pattern=$3
  shift 3
  local out code
  out=$("$perf_lab" "$@" 2>&1)
  code=$?
  if [ "$code" -ne "$want" ]; then
    echo "FAIL $name: exit $code, want $want; output:"
    echo "$out"
    failures=$((failures + 1))
  elif [ -n "$pattern" ] && ! grep -Eq -- "$pattern" <<<"$out"; then
    echo "FAIL $name: exit $code as wanted, but no '$pattern' in:"
    echo "$out"
    failures=$((failures + 1))
  else
    echo "ok   $name (exit $code)"
  fi
}

cd "$dir" || exit 2
expect 0 identical "no metric regressed" --compare base.json --json same.json
expect 0 within-threshold "no metric regressed" --compare base.json --json within.json
expect 1 regression "mailbox_throughput .*REGRESSION" --compare base.json --json slower.json
expect 1 regression-tighter "REGRESSION" --compare base.json --json within.json --threshold 0.05
expect 0 regression-looser "no metric regressed" --compare base.json --json slower.json --threshold 0.25
expect 0 fingerprints-differ "fingerprints differ" --compare base.json --json other_cpu.json
expect 1 fingerprints-forced "REGRESSION" --compare base.json --json other_cpu.json --force
expect 0 new-metric "extra_metric .*NEW" --compare base.json --json added.json
expect 2 threshold-malformed "FATAL: --threshold: 'abc'" --compare base.json --json same.json --threshold abc
expect 2 threshold-negative "FATAL: --threshold: '-0.5'" --compare base.json --json same.json --threshold -0.5
expect 2 threshold-above-one "FATAL: --threshold: '1.5'" --compare base.json --json same.json --threshold 1.5
expect 2 threshold-zero "FATAL: --threshold: '0'" --compare base.json --json same.json --threshold 0
expect 2 positional-argument "unexpected argument" --compare base.json same.json
expect 2 missing-file "FATAL: cannot open" --compare base.json --json absent.json

if [ "$failures" -ne 0 ]; then
  echo "$failures perf_lab gate check(s) failed"
  exit 1
fi
echo "perf_lab gate: all checks passed"
