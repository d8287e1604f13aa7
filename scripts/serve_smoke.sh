#!/bin/sh
# Serve smoke: end-to-end exercise of the analysis daemon over its Unix
# socket.  One daemon, 13 concurrent mixed clients (detect, coverage and
# risc5 timing across four benchmarks, plus a lint); every client
# response must be byte-identical to the offline CLI's --json output
# (both sides compute it with Server.answer), and a warm second round
# must be answered entirely from the daemon's response memo (cache=hit),
# 8 concurrent askers of one new question share one computation, and a
# question kept warm survives a flood that overflows the memo.  A
# fresh-clock sweep (2 concurrent clients, 8 risc5 clocks on compress
# and dft, which the daemon answers from shared core runs) must match
# the offline CLI too, and an oversized frame must be refused with a
# protocol error while another client keeps being served.  Also
# covers the socket lifecycle: a second daemon refuses a live socket, a
# SIGKILLed daemon's stale socket is taken over by a fresh one, and a
# clean shutdown removes the socket file.
# Usage: sh scripts/serve_smoke.sh [WORKERS]   (default 4; the
# oversized-frame stage needs python3)
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
  "$bin" design "$b" --uarch risc5 --json > "$workdir/ref_timing_$b.json"
done
"$bin" lint fir --json > "$workdir/ref_lint_fir.json"

# Round 1 (cold): 13 concurrent mixed clients against the warm engine.
pids=""
for b in $benches; do
  "$bin" client detect "$b" -O 1 --length 2 --socket "$sock" \
    > "$workdir/got_detect_$b.json" &
  pids="$pids $!"
  "$bin" client coverage "$b" -O 1 --socket "$sock" \
    > "$workdir/got_coverage_$b.json" &
  pids="$pids $!"
  "$bin" client timing "$b" -O 1 --uarch risc5 --socket "$sock" \
    > "$workdir/got_timing_$b.json" &
  pids="$pids $!"
done
"$bin" client lint fir --socket "$sock" > "$workdir/got_lint_fir.json" &
pids="$pids $!"
for pid in $pids; do
  wait "$pid" || {
    echo "serve smoke: a cold-round client failed" >&2
    exit 1
  }
done

same_as_offline() {
  if ! cmp -s "$workdir/ref_$1.json" "$workdir/got_$1.json"; then
    echo "serve smoke: daemon $1 differs from offline --json" >&2
    diff "$workdir/ref_$1.json" "$workdir/got_$1.json" | head -10 >&2
    exit 1
  fi
}
for b in $benches; do
  for op in detect coverage timing; do
    same_as_offline "${op}_$b"
  done
done
same_as_offline lint_fir

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

# Round 3 (coalescing): 8 concurrent askers of one question nobody has
# asked, on a benchmark nobody has analysed.  Exactly one of them runs
# it (cache=miss); the others wait for its answer (join) or, arriving
# after it, read it from the memo (hit).  The engine analyses the
# benchmark once: its base misses rise by exactly 1.
base_misses() {
  "$bin" client stats --socket "$sock" \
    | sed -n 's/.*"base":{"hits":[0-9]*,"disk_hits":[0-9]*,"misses":\([0-9]*\).*/\1/p'
}
misses_before=$(base_misses)
pids=""
for i in 1 2 3 4 5 6 7 8; do
  "$bin" client detect dft -O 2 --budget 777 --socket "$sock" --meta \
    > /dev/null 2> "$workdir/meta_coalesce_$i" &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid" || {
    echo "serve smoke: a coalescing-round client failed" >&2
    exit 1
  }
done
led=$(cat "$workdir"/meta_coalesce_* | grep -c "cache=miss" || true)
shared=$(cat "$workdir"/meta_coalesce_* | grep -c "cache=hit\|cache=join" || true)
if [ "$led" -ne 1 ] || [ "$shared" -ne 7 ]; then
  echo "serve smoke: 8 concurrent askers gave $led miss(es) and $shared hit/join(s), expected 1 and 7:" >&2
  cat "$workdir"/meta_coalesce_* >&2
  exit 1
fi
misses_after=$(base_misses)
if [ "$misses_after" -ne $((misses_before + 1)) ]; then
  echo "serve smoke: base misses went $misses_before -> $misses_after, expected one more" >&2
  exit 1
fi

# Round 4 (bounded memo): memo capacity + 50 fresh-budget questions
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

# Round 5 (fresh clocks): two concurrent clients sweep 8 risc5 clocks on
# compress and dft, in opposite orders.  Clocks that keep the selection
# share one core run in the daemon; every reply must still be
# byte-identical to the offline design --json at that clock.
clocks="1.0 1.2 1.4999 1.5000011 1.5000023 1.75 2.0 3.0"
for b in compress dft; do
  for c in $clocks; do
    "$bin" design "$b" --uarch risc5 --clock="$c" --json \
      > "$workdir/ref_clock_${b}_$c.json" 2> /dev/null
  done
done
sweep() {
  for c in $2; do
    for b in $1; do
      "$bin" client timing "$b" -O 1 --uarch risc5 --clock="$c" \
        --socket "$sock" > "$workdir/got_clock_${b}_$c.json" || exit 1
    done
  done
}
sweep "compress dft" "$clocks" &
sweep_a=$!
sweep "dft compress" "$(echo $clocks | tr ' ' '\n' | sort -r)" &
sweep_b=$!
wait "$sweep_a" && wait "$sweep_b" || {
  echo "serve smoke: a fresh-clock client failed" >&2
  exit 1
}
for b in compress dft; do
  for c in $clocks; do
    same_as_offline "clock_${b}_$c"
  done
done

# Round 6 (frame bound): a client sends a frame past the daemon's 1 MiB
# limit (Server.max_frame_bytes).  Halfway through it, a second client
# is served (with more than one worker); the oversized frame then gets
# one protocol-error reply and its connection closes, and the second
# client is still served afterwards.
python3 - "$sock" "$workers" > "$workdir/oversized.out" <<'EOF' || {
import socket, sys

path, workers = sys.argv[1], int(sys.argv[2])
limit = 1 << 20

def conn():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(30)
    s.connect(path)
    return s

def ask(s, frame):
    s.sendall(frame + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        reply += chunk
    return reply

ping = b'{"api":1,"id":"p","op":"ping"}'
big, other = conn(), (conn() if workers > 1 else None)
big.sendall(b"x" * (limit // 2))
if other is not None:
    assert b'"kind":"pong"' in ask(other, ping), "ping during the big frame"
try:
    big.sendall(b"x" * (limit // 2 + 1))
except OSError:
    pass
reply = b""
while True:
    chunk = big.recv(65536)
    if not chunk:
        break
    reply += chunk
lines = reply.split(b"\n")
assert len(lines) == 2 and lines[1] == b"", reply[:200]
assert b'"ok":false' in lines[0] and b'"kind":"protocol-error"' in lines[0], lines[0]
other = other or conn()
assert b'"kind":"pong"' in ask(other, ping), "ping after the big frame"
print(lines[0].decode())
EOF
  echo "serve smoke: oversized-frame stage failed" >&2
  exit 1
}

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

echo "serve smoke: $workers worker(s) — 13 concurrent clients byte-identical to offline CLI, warm round 100% memo hits, 8 concurrent askers coalesced onto one analysis, warm answer kept through a memo overflow, fresh-clock sweep byte-identical to offline, oversized frame refused, live-socket refusal, stale takeover, and clean shutdown all verified"
