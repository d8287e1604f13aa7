#!/bin/sh
# Bench smoke: run each suite-level bench artifact once and produce the
# engine baseline JSON that CI uploads.
# Usage: sh scripts/bench_smoke.sh [OUT_JSON]   (default BENCH_engine.json)
set -eu

out=${1:-BENCH_engine.json}

dune build bench/main.exe

# One untimed pass over every artifact exercises the full pipeline
# (including the pipeline/pipeline_par suite runs' construction).
dune exec bench/main.exe > /dev/null

# Sequential vs parallel vs cold/warm-cache suite wall time, plus the
# verify-stage wall time (a `--verify full` pass on the warm cache) and
# the simulator throughput comparison (unified core vs reference).
dune exec bench/main.exe -- --engine-only --engine-json "$out"

# Floors, all regression gates rather than aspirations:
#   - sim_instrs_per_s must be positive, and the pre-compiled core must
#     hold its >= 2x win over the reference semantics (measures ~13x).
#   - parallel_speedup is gated on the host's actual core count
#     (recommended_domain_count): a single-core host cannot speed up no
#     matter how good the engine is, so the floor only applies where the
#     silicon exists — >= 1.3x with 4+ cores, >= 1.0x (i.e. parallelism
#     must at least not LOSE to sequential) with 2-3 cores, and on one
#     core the gate is skipped with a note.
awk '
  /^  "sim_instrs_per_s":/        { gsub(/[^0-9.]/, "", $2); ips = $2 + 0 }
  /^  "sim_speedup":/             { gsub(/[^0-9.]/, "", $2); spd = $2 + 0 }
  /^  "jobs":/                    { gsub(/[^0-9]/, "", $2); jobs = $2 + 0 }
  /^  "recommended_domain_count":/ { gsub(/[^0-9]/, "", $2); cores = $2 + 0 }
  /^  "parallel_speedup":/        { gsub(/[^0-9.]/, "", $2); pspd = $2 + 0 }
  END {
    if (ips <= 0) { print "bench smoke: sim_instrs_per_s missing or not positive"; exit 1 }
    if (spd < 2)  { print "bench smoke: sim_speedup " spd " below the 2x floor"; exit 1 }
    if (jobs < 2) { print "bench smoke: parallel measurement ran at jobs " jobs " (< 2): it measures nothing"; exit 1 }
    if (cores < 1) { print "bench smoke: recommended_domain_count missing"; exit 1 }
    if (cores >= 4 && pspd < 1.3) { print "bench smoke: parallel_speedup " pspd " below the 1.3x floor on a " cores "-core host"; exit 1 }
    if (cores >= 2 && pspd < 1.0) { print "bench smoke: parallel_speedup " pspd " < 1.0 on a " cores "-core host: parallelism loses to sequential"; exit 1 }
    if (cores < 2) { printf "bench smoke: single-core host, parallel_speedup floor skipped (measured %.2fx at jobs %d)\n", pspd, jobs }
    else          { printf "bench smoke: parallel_speedup %.2fx at jobs %d on %d core(s)\n", pspd, jobs, cores }
    printf "bench smoke: sim throughput %.1fM instrs/s (%.2fx vs reference)\n", ips / 1e6, spd
  }' "$out"

#   - timing_model (schema 6): one entry per machine description; both
#     presets must report mean estimated and measured speedups >= 1.0
#     (a chained ISA never loses cycles), and the two must agree within
#     the pinned 50% tolerance.
awk '
  /"uarch":/ {
    line = $0; n++
    est = line; sub(/.*"estimated_speedup": /, "", est); sub(/[,}].*/, "", est)
    meas = line; sub(/.*"measured_speedup": /, "", meas); sub(/[,}].*/, "", meas)
    est += 0; meas += 0
    if (est < 1.0 || meas < 1.0) { print "bench smoke: timing model speedup below 1.0: " line; bad = 1 }
    gap = meas - est; if (gap < 0) gap = -gap
    if (est <= 0 || gap / est > 0.50) { print "bench smoke: timing model estimate/measurement disagree: " line; bad = 1 }
  }
  END {
    if (n != 2) { print "bench smoke: expected 2 timing_model entries, saw " n; bad = 1 }
    if (!bad) printf "bench smoke: timing model within tolerance for %d preset(s)\n", n
    exit bad
  }' "$out"

echo "bench smoke: wrote $out"
