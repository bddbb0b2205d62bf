#!/usr/bin/env bash
# Golden outputs: run every seed-deterministic bench and example at CI-sized
# flags and collect what each emits in one directory — stdout, the --json
# report and the --trace document of every bench, obs_overhead's --digest
# (its other fields are timings), and dohdig over every transport. The
# micro_* benches report timings and are not run.
#
# Every file is a pure function of the source tree, so a change that must
# not move any output proves it with one diff:
#
#   tools/golden_outputs.sh build-before golden-before
#   tools/golden_outputs.sh build-after golden-after
#   diff -r golden-before golden-after
#
# Usage: tools/golden_outputs.sh <build-dir> <out-dir>
# Runs that exit non-zero keep their output, gain an "exit status N" line,
# and make the script exit 1 after everything has run.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
failed=()

# run <name> <command...>: stdout+stderr to <name>.stdout. Commands run
# inside the output directory, so relative --json/--trace paths (and the
# "wrote <path>" lines benches print) do not depend on where it lives.
run() {
  local name=$1
  shift
  local status=0
  (cd "$out" && "$@") >"$out/$name.stdout" 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "exit status $status" >>"$out/$name.stdout"
    failed+=("$name")
  fi
}

# bench <name> [flags...]: a bench with its --json and --trace documents.
bench() {
  local name=$1
  shift
  run "$name" "$build/bench/$name" "$@" \
    --json="$name.json" --trace="$name.trace.json"
}

bench ablation_client_policies
bench ablation_hpack
bench ablation_tls
bench ablation_transport
bench availability_matrix
bench chaos_matrix --queries=60
bench ext_doq_comparison
bench fig1_queries_per_page --pages=2000
bench fig2_hol_blocking --queries=100
bench fig3_bytes_per_resolution --names=100
bench fig4_packets_per_resolution --names=100
bench fig5_overhead_breakdown --names=100
bench fig6_page_load --pages=10 --planetlab-nodes=4 --planetlab-pages=2
bench mobility_matrix
bench overload_matrix
bench table1_landscape
bench table2_features

# obs_overhead: stdout and --json carry CPU timings; keep only the digest.
run obs_overhead sh -c '"$0" "$@" >/dev/null' "$build/bench/obs_overhead" \
  --pages=4 --tier-requests=2000 --reps=1 --no-gate \
  --digest=obs_overhead.digest.json

for example in chaos_recovery doq_quickstart hol_blocking_demo \
  overhead_audit page_load_study quickstart resolver_survey; do
  run "$example" "$build/examples/$example"
done
run trace_a_resolution "$build/examples/trace_a_resolution" \
  trace_a_resolution.trace.json
for transport in udp tcp dot doh doh1 doq; do
  run "dohdig_$transport" "$build/examples/dohdig" example.com \
    --transport "$transport" --trace
done

if [ "${#failed[@]}" -ne 0 ]; then
  echo "golden_outputs: non-zero exit from: ${failed[*]}" >&2
  exit 1
fi
echo "golden_outputs: wrote $(find "$out" -type f | wc -l) files to $out"
