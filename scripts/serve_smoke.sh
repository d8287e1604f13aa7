#!/bin/sh
# Serve smoke: end-to-end exercise of the analysis daemon over its Unix
# socket.  One daemon, 8 concurrent mixed clients (detect + coverage
# across four benchmarks); every client response must be byte-identical
# to the offline CLI's --json output, and a warm second round must be
# answered entirely from the daemon's response memo (cache=hit), and a
# question kept warm survives a flood that overflows the memo.  Also
# covers the socket lifecycle: a second daemon refuses a live socket, a
# SIGKILLed daemon's stale socket is taken over by a fresh one, and a
# clean shutdown removes the socket file.
# Usage: sh scripts/serve_smoke.sh [WORKERS]   (default 4)
set -eu

workers=${1:-4}

dune build bin/asipfb_cli.exe
bin=_build/default/bin/asipfb_cli.exe

workdir=$(mktemp -d serve_smoke.XXXXXX)
sock="$workdir/daemon.sock"
daemon_pid=""
cleanup() {
  if [ -n "$daemon_pid" ]; then kill "$daemon_pid" 2>/dev/null || true; fi
  rm -rf "$workdir"
}
trap cleanup EXIT

benches="fir iir pse intfft"

wait_for_socket() {
  i=0
  while ! [ -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "serve smoke: daemon socket never appeared" >&2
      exit 1
    fi
    sleep 0.1
  done
}

"$bin" serve --socket "$sock" --workers "$workers" 2> "$workdir/serve.err" &
daemon_pid=$!
wait_for_socket

# A second daemon on the same socket must refuse with exit 1 and a
# one-line error, leaving the live daemon untouched.
if "$bin" serve --socket "$sock" --workers 1 2> "$workdir/refusal.err"; then
  echo "serve smoke: second daemon did not refuse the live socket" >&2
  exit 1
fi
grep -q "already served by a live daemon" "$workdir/refusal.err" || {
  echo "serve smoke: unexpected refusal message:" >&2
  cat "$workdir/refusal.err" >&2
  exit 1
}

# Offline references: the daemon's answers must be byte-identical to
# the standalone CLI's --json output for the same question.
for b in $benches; do
  "$bin" detect "$b" -O 1 --length 2 --json > "$workdir/ref_detect_$b.json"
  "$bin" coverage "$b" -O 1 --json > "$workdir/ref_coverage_$b.json"
done

# Round 1 (cold): 8 concurrent mixed clients against the warm engine.
pids=""
for b in $benches; do
  "$bin" client detect "$b" -O 1 --length 2 --socket "$sock" \
    > "$workdir/got_detect_$b.json" &
  pids="$pids $!"
  "$bin" client coverage "$b" -O 1 --socket "$sock" \
    > "$workdir/got_coverage_$b.json" &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid" || {
    echo "serve smoke: a cold-round client failed" >&2
    exit 1
  }
done

for b in $benches; do
  for op in detect coverage; do
    if ! cmp -s "$workdir/ref_${op}_$b.json" "$workdir/got_${op}_$b.json"; then
      echo "serve smoke: daemon $op $b differs from offline --json" >&2
      diff "$workdir/ref_${op}_$b.json" "$workdir/got_${op}_$b.json" | head -10 >&2
      exit 1
    fi
  done
done

# Round 2 (warm): the same 8 questions again, every one a memo hit.
pids=""
for b in $benches; do
  "$bin" client detect "$b" -O 1 --length 2 --socket "$sock" --meta \
    > "$workdir/warm_detect_$b.json" 2> "$workdir/meta_detect_$b" &
  pids="$pids $!"
  "$bin" client coverage "$b" -O 1 --socket "$sock" --meta \
    > "$workdir/warm_coverage_$b.json" 2> "$workdir/meta_coverage_$b" &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid" || {
    echo "serve smoke: a warm-round client failed" >&2
    exit 1
  }
done

for b in $benches; do
  for op in detect coverage; do
    grep -q "cache=hit" "$workdir/meta_${op}_$b" || {
      echo "serve smoke: warm $op $b was not a cache hit:" >&2
      cat "$workdir/meta_${op}_$b" >&2
      exit 1
    }
    cmp -s "$workdir/ref_${op}_$b.json" "$workdir/warm_${op}_$b.json" || {
      echo "serve smoke: warm $op $b answer drifted from the reference" >&2
      exit 1
    }
  done
done

# Round 3 (bounded memo): memo capacity + 50 fresh-budget questions
# overflow the daemon's response memo (Server.memo_capacity, 1024
# entries), which evicts the least recently used answers.  A question
# re-asked throughout the flood must stay a memo hit and keep its bytes.
memo_capacity=1024
ask_warm() {
  "$bin" client detect fir -O 1 --length 2 --socket "$sock" --meta \
    > "$workdir/flood_detect_fir.json" 2> "$workdir/meta_flood" || {
    echo "serve smoke: warmed question failed during the memo flood" >&2
    exit 1
  }
  grep -q "cache=hit" "$workdir/meta_flood" || {
    echo "serve smoke: warmed question was evicted from the memo:" >&2
    cat "$workdir/meta_flood" >&2
    exit 1
  }
  cmp -s "$workdir/ref_detect_fir.json" "$workdir/flood_detect_fir.json" || {
    echo "serve smoke: warmed answer drifted during the memo flood" >&2
    exit 1
  }
}
i=1
while [ "$i" -le $((memo_capacity + 50)) ]; do
  "$bin" client detect fir -O 1 --length 2 --budget "$i" --socket "$sock" \
    > /dev/null || {
    echo "serve smoke: fresh-budget question $i failed" >&2
    exit 1
  }
  if [ $((i % 100)) -eq 0 ]; then ask_warm; fi
  i=$((i + 1))
done
ask_warm

# A SIGKILLed daemon leaves a stale socket file; a fresh daemon must
# detect it as dead, take the path over, and serve.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
[ -S "$sock" ] || {
  echo "serve smoke: expected a stale socket file after SIGKILL" >&2
  exit 1
}
"$bin" serve --socket "$sock" --workers 1 2> "$workdir/serve2.err" &
daemon_pid=$!
i=0
until "$bin" client ping --socket "$sock" > /dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve smoke: takeover daemon never answered a ping" >&2
    cat "$workdir/serve2.err" >&2
    exit 1
  fi
  sleep 0.1
done

# Clean shutdown removes the socket file.
out=$("$bin" client shutdown --socket "$sock")
[ "$out" = "stopping" ] || {
  echo "serve smoke: unexpected shutdown reply: $out" >&2
  exit 1
}
wait "$daemon_pid" || {
  echo "serve smoke: daemon exited non-zero after shutdown" >&2
  exit 1
}
daemon_pid=""
if [ -e "$sock" ]; then
  echo "serve smoke: socket file survived a clean shutdown" >&2
  exit 1
fi

echo "serve smoke: $workers worker(s) — 8 concurrent clients byte-identical to offline CLI, warm round 100% memo hits, warm answer kept through a memo overflow, live-socket refusal, stale takeover, and clean shutdown all verified"
