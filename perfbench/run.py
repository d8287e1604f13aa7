#!/usr/bin/env python3
"""The asipfb benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 30 --trace 0

It builds the `asipfb` CLI and the benchmark's probe (perfbench/probe.ml)
with dune, runs one workload, checks every output, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
measured on untraced runs of the shipped binary.  With --trace 1 they are
the per-layer ones, from the probe's traced re-drive of the workload.
Workloads, metrics, seeds and pins are described in perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper_suite", "corpus_tv", "serve_mix")
CLI = "_build/default/bin/asipfb_cli.exe"
PROBE = "_build/default/perfbench/probe.exe"
RUN_DIR = ".perfbench"
PINS = "perfbench/pins.json"
# One process drives each workload with two engine domains or two
# connections: the reference host has two cores.
JOBS = 2
# Table-1 kernels in one `asipfb report`.
KERNELS = 12
# corpus_tv: programs per `asipfb corpus` process, at the default size;
# small enough for ~45 processes per 30-s run, so p90 has samples above it.
CORPUS_COUNT = 100
# Default corpus seeds cycle through the pinned ones.
CORPUS_SEEDS = 32
# serve_mix: daemon starts per run; setup_s is their median.
SERVE_SETUPS = 5
# paper_suite spawns and corpus_tv source generations per run; setup_s
# is their median.
SPAWNS = 31
GENERATIONS = 15
PROC_TIMEOUT = 150


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_layout():
    needed = ["dune-project", "bin/asipfb_cli.ml", "lib/core/pipeline.ml",
              "perfbench/dune", "perfbench/probe.ml", PINS, "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        die("run from the root of an asipfb checkout; missing: "
            + ", ".join(missing))


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "bin/asipfb_cli.exe",
             "perfbench/probe.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed", 1)


def run_proc(argv, tag, timeout=PROC_TIMEOUT):
    """Run one process to completion; return (wall s, exit code, peak RSS
    in MB, stdout bytes).  Peak RSS is the child's own ru_maxrss."""
    out_path = os.path.join(RUN_DIR, tag + ".out")
    err_path = os.path.join(RUN_DIR, tag + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return wall, p.returncode, ru.ru_maxrss / 1024.0, stdout


def probe(args, tag):
    _, code, _, out = run_proc([PROBE] + args, tag, timeout=170)
    lines = out.decode(errors="replace").strip().splitlines()
    if code != 0 or not lines:
        with open(os.path.join(RUN_DIR, tag + ".err"), "rb") as f:
            sys.stderr.write(f.read().decode(errors="replace")[-2000:])
        die(f"probe {args[0]} exited with {code}", 1)
    return json.loads(lines[-1])


def quantile(xs, q):
    """Linear interpolation between closest ranks."""
    xs = sorted(xs)
    r = q * (len(xs) - 1)
    lo = int(r)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (r - lo) * (xs[hi] - xs[lo])


def md5(b):
    return hashlib.md5(b).hexdigest()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, attempted, failed, note=None):
        self.attempted += attempted
        self.failed += failed
        if note and failed:
            self.notes.append(note)


def process_loop(argv, seconds, units, verify, tally, tag):
    """A closed loop of cold processes for `seconds` after one untimed
    warm-up run: returns the walls of the correct runs and the peak RSS
    of each."""
    walls, rss = [], []
    end = None
    while end is None or time.perf_counter() < end:
        wall, code, peak, out = run_proc(argv, tag)
        bad = verify(code, out)
        tally.add(units, units if bad else 0, bad)
        if end is None:  # the warm-up run fills the page cache
            end = time.perf_counter() + seconds
        elif not bad:
            walls.append(wall)
            rss.append(peak)
    return walls, rss


def e2e(setups, walls, rss, units):
    """Throughput is units per median process: a process slowed by a burst
    of load elsewhere on the host moves it no more than it moves p50."""
    p50 = quantile(walls, 0.5)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_p90_ms": (1000 * quantile(walls, 0.9), "ms"),
        "throughput_per_s": (units / p50, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def paper_suite(args, pins, tally, info):
    setups = [run_proc([CLI, "list"], "spawn")[0] for _ in range(SPAWNS)]
    want = pins["report_md5"]
    fir = pins["fir_line"].encode()

    def verify(code, out):
        if code != 0:
            return f"report exited with {code}"
        if md5(out) != want:
            return f"report digest {md5(out)}, want {want}"
        if fir not in out:
            return "fir 40739/32882 line missing"
        return None

    argv = [CLI, "report", "-j", str(JOBS)]
    walls, rss = process_loop(argv, args.seconds, KERNELS, verify, tally,
                              "report")
    if not walls:
        return None
    info["samples"] = len(walls)
    return e2e(setups, walls, rss, KERNELS)


def corpus_tv(args, pins, tally, info):
    seed = info["corpus_seed"]
    want = pins["corpus"]["digests"].get(str(seed))
    if pins["corpus"]["count"] != CORPUS_COUNT or want is None:
        die(f"no pinned corpus digest for seed {seed} at count {CORPUS_COUNT}")
    src = os.path.join(RUN_DIR, f"corpus-{seed}.c")
    setups = []
    for _ in range(GENERATIONS):
        t0 = time.perf_counter()
        probe(["gen", "--seed", str(seed), "--count", str(CORPUS_COUNT),
               "--out", src], "gen")
        setups.append(time.perf_counter() - t0)
    diag = os.path.join(RUN_DIR, "corpus-diag.json")
    clean = b'{"kind":"diagnostics","schema_version":3,"diagnostics":[]}\n'

    def verify(code, out):
        if code != 0:
            return f"corpus exited with {code}"
        if md5(out) != want:
            return f"corpus summary digest {md5(out)}, want {want}"
        s = json.loads(out)
        if s["ok"] != CORPUS_COUNT or s["crashed"] or s["timeouts"] \
                or s["quarantined"]:
            return "corpus programs failed"
        with open(diag, "rb") as f:
            if f.read() != clean:
                return "corpus diagnostics not empty"
        return None

    argv = [CLI, "corpus", "--seed", str(seed), "--count", str(CORPUS_COUNT),
            "--verify", "tv", "-j", str(JOBS), "--json", "--diag-json", diag]
    walls, rss = process_loop(argv, args.seconds, CORPUS_COUNT, verify, tally,
                              "corpus")
    if not walls:
        return None
    info["samples"] = len(walls)
    return e2e(setups, walls, rss, CORPUS_COUNT)


def serve_mix(args, pins, tally, info):
    r = probe(["serve-mix", "--asipfb", CLI, "--seed", str(info["stream_seed"]),
               "--seconds", str(args.seconds), "--setups", str(SERVE_SETUPS),
               "--dir", RUN_DIR], "serve-mix")
    tally.add(r["attempted"], len(r["failures"]), "; ".join(r["failures"][:5]))
    # The offline CLI answers a seeded sample of the same questions; the
    # probe already compared every working-set reply with the in-process
    # offline path, this pins that path to the shipped binary.
    rng = random.Random(info["stream_seed"])
    sample = rng.sample(r["cli_checks"], 4) + r["cli_checks"][-2:]
    for argv, payload in sample:
        _, code, _, out = run_proc([CLI] + argv, "cli-check")
        bad = code != 0 or out.decode(errors="replace").rstrip("\n") != payload
        tally.add(1, 1 if bad else 0, f"offline {' '.join(argv)} differs")
    info["samples"] = r["hit_samples"]
    info["requests"] = r["requests"]
    info["detect_miss_p50_ms"] = r["detect_miss_p50_ms"]
    info["timing_miss_p50_ms"] = r["timing_miss_p50_ms"]
    return {k: (r[k], u) for k, u in [
        ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
        ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB")]}


def traced(args, pins, tally, info):
    r = probe(["trace", "--workload", args.workload, "--asipfb", CLI,
               "--seed", str(info["stream_seed"]),
               "--corpus-seed", str(info["corpus_seed"]),
               "--count", str(CORPUS_COUNT), "--dir", RUN_DIR], "trace")
    tally.add(max(r["attempted"], 1), len(r["failures"]),
              "; ".join(r["failures"][:5]))
    metrics = {k: (v["value"], v["unit"]) for k, v in r["metrics"].items()}
    # Exact counts: the same on every run and every seed.
    want = dict(pins["rows"])
    want.update(pins["counts"][args.workload])
    for name, value in want.items():
        got = metrics[name][0]
        tally.add(1, 0 if got == value else 1,
                  f"{name} = {got}, pinned {value}")
    digest = {"paper_suite": pins["report_md5"],
              "corpus_tv": pins["corpus"]["digests"].get(
                  str(info["corpus_seed"]))}.get(args.workload)
    if digest is not None:
        tally.add(1, 0 if r["digest"] == digest else 1,
                  f"traced digest {r['digest']}, want {digest}")
    info["untraced_s"] = r["untraced_s"]
    info["traced_s"] = r["traced_s"]
    print("perfbench: layer         self_s    share")
    for name in sorted(metrics):
        if name.startswith("self."):
            layer = name[len("self."):-len("_s")]
            print(f"perfbench: {layer:<12} {metrics[name][0]:8.4f} "
                  f"{metrics['share.' + layer][0]:8.1%}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int,
                    help="corpus_tv program seed (default: SEED mod 32)")
    ap.add_argument("--stream-seed", type=int,
                    help="serve_mix request-stream seed (default: SEED)")
    args = ap.parse_args()

    check_layout()
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(PINS) as f:
        pins = json.load(f)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    host = probe(["host"], "host")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "corpus_seed": (args.corpus_seed if args.corpus_seed is not None
                        else args.seed % CORPUS_SEEDS),
        "stream_seed": (args.stream_seed if args.stream_seed is not None
                        else args.seed),
        "nproc": os.cpu_count(), "ocaml": host["ocaml"],
        "recommended_domains": host["recommended_domains"], "jobs": JOBS,
    }
    tally = Tally()
    if args.trace:
        metrics = traced(args, pins, tally, info)
        names = [m["name"] for m in bench["per_layer"]]
    else:
        run = {"paper_suite": paper_suite, "corpus_tv": corpus_tv,
               "serve_mix": serve_mix}[args.workload]
        metrics = run(args, pins, tally, info) or {}
        names = [m["name"] for m in bench["end_to_end"]]
    if sorted(metrics) != sorted(names):
        if metrics:
            die("metrics do not match BENCHMARK.json: "
                + ", ".join(sorted(set(metrics) ^ set(names))), 1)
        tally.add(1, 1, "no run produced a correct result")
    info["failures"] = tally.notes
    with open(os.path.join(
            RUN_DIR, f"result-{args.workload}-trace{args.trace}.json"),
            "w") as f:
        json.dump({"info": info, "metrics": metrics}, f, indent=1)
    print("perfbench: " + " ".join(f"{k}={v}" for k, v in info.items()
                                   if k != "failures"))
    for note in tally.notes:
        print(f"perfbench: FAILED {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in names if k in metrics},
    }))


if __name__ == "__main__":
    main()
