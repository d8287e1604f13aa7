#!/bin/sh
# Chaos smoke: the deterministic chaos harness must not change what the
# pipeline computes.  Run the full report (12 benchmarks x 3 opt levels)
# once clean and once under fault injection with retries enabled, and
# require byte-identical artifacts on stdout plus exit 0.  A second chaos
# pass reuses the (possibly chaos-corrupted) cache directory to exercise
# checksum self-healing end-to-end.  The chaos passes run at -j 2 so the
# parallel analysis and artifact-render phases run even on a 1-core host
# (where the default -j is 1); the clean pass stays at the default -j.
# A corpus stage then compares a 100-program `--verify tv` corpus run
# clean and under chaos (seed 1, rate 0.05, 3 retries) at -j 2: every
# program's base, sched and verify tasks must survive their faults.
# Usage: sh scripts/chaos_smoke.sh [SEED] [RATE]   (default 42, 0.05)
set -eu

seed=${1:-42}
rate=${2:-0.05}

dune build bin/asipfb_cli.exe

workdir=$(mktemp -d chaos_smoke.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

run="dune exec bin/asipfb_cli.exe --"

$run report > "$workdir/clean.out"

$run report -j 2 \
  --chaos-seed "$seed" --chaos-rate "$rate" \
  --retries 3 --retry-backoff 0.01 \
  --cache-dir "$workdir/cache" \
  --diag-json "$workdir/chaos_diag.json" \
  > "$workdir/chaos.out"

if ! cmp -s "$workdir/clean.out" "$workdir/chaos.out"; then
  echo "chaos smoke: artifacts differ between clean and chaos runs" >&2
  diff "$workdir/clean.out" "$workdir/chaos.out" | head -40 >&2
  exit 1
fi

# Warm pass over the chaos-mangled cache: corrupt entries must be
# checksum-detected, deleted, and recomputed, never served.
$run report -j 2 \
  --chaos-seed "$seed" --chaos-rate "$rate" \
  --retries 3 --retry-backoff 0.01 \
  --cache-dir "$workdir/cache" \
  > "$workdir/chaos_warm.out"

if ! cmp -s "$workdir/clean.out" "$workdir/chaos_warm.out"; then
  echo "chaos smoke: artifacts differ on the warm (cache-reuse) chaos run" >&2
  exit 1
fi

corpus="$run corpus --seed 1 --count 100 --verify tv -j 2"

$corpus > "$workdir/corpus_clean.out"

if ! $corpus --chaos-seed 1 --chaos-rate 0.05 --retries 3 \
  --retry-backoff 0.01 \
  > "$workdir/corpus_chaos.out" 2> "$workdir/corpus_chaos.err"; then
  echo "chaos smoke: corpus run failed under chaos" >&2
  grep -v '^asipfb: warning' "$workdir/corpus_chaos.err" | head -20 >&2
  exit 1
fi

if ! cmp -s "$workdir/corpus_clean.out" "$workdir/corpus_chaos.out"; then
  echo "chaos smoke: corpus output differs between clean and chaos runs" >&2
  diff "$workdir/corpus_clean.out" "$workdir/corpus_chaos.out" | head -40 >&2
  exit 1
fi

echo "chaos smoke: seed $seed rate $rate — artifacts byte-identical across clean, chaos, and warm-chaos runs; corpus identical under chaos"
