#!/usr/bin/env bash
# Writes the pinned trace set and its SHA256SUMS.
#
#   tools/pinned_traces.sh BUILD_DIR OUT_DIR
#
# Every run below is a deterministic simulation, so two builds that schedule
# the same events produce byte-identical files. The set covers every
# termination scheme: plain, sharded-identity and metered fig5 runs; overlay,
# RWS, AHMW and MW under drops, duplicates and crashes; churn, service-mode
# and fault/schedule-perturbation fuzz repros; and the fault_sweep and
# churn_sweep tables. OUT_DIR/SHA256SUMS lists one digest per file; diff two
# of them to check a refactor (docs/BENCHMARKING.md).
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
rm -f "$out"/*.ndjson "$out"/*.txt "$out"/SHA256SUMS
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

fig5="$build/bench/fig5_scalability --scales 48 --uts_scales 24 --jobs21 10 --jobs23 10 --uts_seed 1 --seed 1"
$fig5 --trace="$out/fig5.ndjson" > /dev/null
$fig5 --trace="$out/fig5_metrics.ndjson" \
  --metrics="$scratch/fig5.prom" --metrics-interval=20 > /dev/null
$fig5 --shards 1 --trace="$out/fig5_shards1.ndjson" > /dev/null

# trace_explorer NAME WORKLOAD STRATEGY PEERS [FLAGS...]
explore() {
  local name=$1 workload=$2 strategy=$3 peers=$4
  shift 4
  "$build/examples/trace_explorer" --workload="$workload" --strategy="$strategy" \
    --peers="$peers" "$@" --out="$scratch/$name.json" \
    --ndjson="$out/explorer_$name.ndjson" > /dev/null
}
explore uts_btd32_faults uts BTD 32 --drop=0.1 --crashes=2
explore uts_td32_faults uts TD 32 --drop=0.1 --crashes=2
explore uts_tr24_faults uts TR 24 --drop=0.05 --dup=0.05 --crashes=1
explore bb_rws24_faults bb RWS 24 --drop=0.05 --crashes=1
explore uts_rws16_faults uts RWS 16 --drop=0.1 --dup=0.05 --crashes=2
explore bb_ahmw40_faults bb AHMW 40 --dmax=4 --drop=0.05 --dup=0.02
explore bb_mw16_faults bb MW 16 --drop=0.05 --crashes=1
explore uts_btd32 uts BTD 32
explore bb_btd24 bb BTD 24
explore uts_td32 uts TD 32
explore uts_rws32 uts RWS 32
explore bb_ahmw40 bb AHMW 40 --dmax=4

# olb_fuzz NAME TUPLE
repro() {
  "$build/tools/olb_fuzz" --repro "$2" --trace "$out/fuzz_$1.ndjson" > /dev/null
}
repro churn_btd "strategy=BTD peers=16 dmax=3 workload=0 seed=7 churn=2"
repro churn_td "strategy=TD peers=16 dmax=3 workload=0 seed=7 churn=2"
repro churn_tr "strategy=TR peers=12 dmax=4 workload=1 seed=42 churn=1"
for j in 1 2 3; do
  repro "jobs${j}_btd" "strategy=BTD peers=8 dmax=3 workload=1 seed=7 jobs=$j"
  repro "jobs${j}_tr" "strategy=TR peers=12 dmax=4 workload=2 seed=42 jobs=$j"
done
repro fault_ahmw "strategy=AHMW peers=12 dmax=3 workload=1 seed=5 fault=2 sched=1"
repro fault_rws "strategy=RWS peers=12 dmax=3 workload=0 seed=5 fault=2 sched=1"
repro fault_btd "strategy=BTD peers=12 dmax=3 workload=0 seed=5 fault=2 sched=1"

"$build/bench/service_sweep" --peers 16 --trace "$out/service_sweep.ndjson" > /dev/null

"$build/bench/fault_sweep" --peers 32 --uts_b0 300 --drops 0,0.05,0.1 \
  --crash_counts 0,2 > "$out/fault_sweep.txt"
"$build/bench/churn_sweep" --peers 16 > "$out/churn_sweep.txt"

(cd "$out" && sha256sum -- *.ndjson *.txt > SHA256SUMS)
echo "$(wc -l < "$out/SHA256SUMS") files hashed into $out/SHA256SUMS"
