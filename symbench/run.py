#!/usr/bin/env python3
"""symbench: the repository's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 symbench/run.py --workload sp_chaos_sharded --seed 1 --seconds 55 --trace 0

It builds symbench/symbench.exe from source (dune, release profile, into
.bench_build/), then starts the measuring program several times, each
run in a fresh process, and aggregates them.  Each measured process
runs a host probe in a child process at every phase boundary, and each
phase's times are scaled by the probes around it to the reference host
speed (README.md, "Host-speed normalisation").  With
--trace 0 every process is untraced and the end-to-end metrics are
reported; with --trace 1 the untraced processes give the GC counts and
the tracing baseline, one more traced process gives the per-layer
breakdown, and its Chrome trace is written to .bench_build/symbench/.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See symbench/README.md for the workloads, the metric definitions and
why each workload was chosen.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "symbench", "symbench.exe")
OUT_DIR = os.path.join(".bench_build", "symbench")

# Seconds of --seconds budgeted per measuring process, its host probes
# included; at --seconds 55 this gives 21 processes for
# sp_chaos_sharded, 17 for census_sweep and 6 for serve_hammer.  The
# counts are fixed by --seconds so the pooled sample count, and with it
# the tail percentile, stays clear of the ladder's steps (census ~250
# rounds -> p95, sp_chaos over 16,000 rounds -> p99.9).
PROCESS_S = {"census_sweep": 3.3, "sp_chaos_sharded": 2.6, "serve_hammer": 9.2}

# The host probe's time in ms on the sizing host while its neighbours
# were quiet.  A phase whose two probes read p ms on average has its
# times multiplied by PROBE_REF_MS / p, so every time metric reads as it
# would on that host.
PROBE_REF_MS = 52.0

POINT_READS = {"status", "node_state", "telemetry"}

# serve_hammer's tail_ms percentile.  The ladder would give p95 (33 of
# the 660 paced requests beyond it), where the latencies are sparse; in
# five sets of five or ten seeds its spread averaged 0.20 of its median
# and reached 0.28, against 0.15 for p90 (66 beyond), see README.md.
SERVE_TAIL_Q = 0.9

# Must match Probe.ladder in probe.ml.
LADDER = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5]


def die(msg):
    sys.stderr.write("symbench: %s\n" % msg)
    sys.exit(1)


def tail_q(n):
    for q in LADDER:
        if n * (1 - q) >= 10:
            return q
    return 0.5


def percentile(q, xs):
    a = sorted(xs)
    if not a:
        return 0.0
    pos = q * (len(a) - 1)
    i = int(pos)
    if i >= len(a) - 1:
        return a[-1]
    return a[i] + (pos - i) * (a[i + 1] - a[i])


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a symnet checkout (dune-project and lib/ not found)")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    os.makedirs(OUT_DIR, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = [dune, "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "./symbench/symbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=840)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def run_process(workload, seed, sub, traced):
    cmd = [EXE, workload, "--seed", str(seed), "--sub", str(sub)]
    if workload == "serve_hammer":
        cmd += ["--sock", os.path.join(OUT_DIR, "serve.sock")]
    if traced:
        cmd += ["--traced", "--trace-out",
                os.path.join(OUT_DIR, "%s.trace.json" % workload)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=150)
    except subprocess.TimeoutExpired:
        die("%s (seed %d, process %d) timed out" % (workload, seed, sub))
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        die("%s (seed %d, process %d) exited %d" % (workload, seed, sub, r.returncode))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def normalise(s):
    """Scale sample s's times to the reference host speed.  probe_ms
    holds the probes taken after set-up, after the run and, on serve,
    after the paced phase.  Set-up is scaled by the first, and each
    later phase by the mean of the two around it.  Wall-clock values
    stay as wall_*."""
    p = s["probe_ms"]
    k = [PROBE_REF_MS / p[0]] + [PROBE_REF_MS / statistics.mean(p[i:i + 2])
                                 for i in range(len(p) - 1)]
    s["scale"] = k
    for key, phase in (("setup_s", 0), ("graph_build_s", 0), ("run_s", 1)):
        s["wall_" + key] = s[key]
        s[key] *= k[phase]
    if "step_ms" in s:
        s["step_ms"] = [x * k[1] for x in s["step_ms"]]
    if "qps" in s:
        s["wall_qps"] = s["qps"]
        s["qps"] /= k[1]
    if "lat_ms" in s:
        s["lat_ms"] = [x * k[2] for x in s["lat_ms"]]


def run_processes(workload, seed, plan):
    """One measured process per (sub, traced) in plan."""
    samples = []
    for sub, traced in plan:
        s = run_process(workload, seed, sub, traced)
        normalise(s)
        print("  %s%s sub=%d setup %.3fs run %.3fs (wall %.3fs %.3fs, probes %s ms)"
              " rss %.1fMB checks %d/%d host.calib %.1f/%.1fms"
              % (workload, " [traced]" if traced else "", sub, s["setup_s"], s["run_s"],
                 s["wall_setup_s"], s["wall_run_s"],
                 "/".join("%.1f" % p for p in s["probe_ms"]),
                 s["peak_rss_mb"], s["attempted"] - s["failed"], s["attempted"],
                 s["calib_ms"][0], s["calib_ms"][1]))
        for note in s["failures"]:
            print("  FAILED CHECK: %s" % note)
        samples.append(s)
    return samples


def median(samples, key):
    return statistics.median(s[key] for s in samples)


def end_to_end(workload, samples):
    serve = workload == "serve_hammer"
    if serve:
        pooled = [x for s in samples for x in s["lat_ms"]]
        q = SERVE_TAIL_Q
        tail = percentile(q, pooled)
        print("  tail_ms = p%g of %d pooled paced requests (%d beyond it); ladder's p%g %.3fms"
              % (q * 100, len(pooled), round(len(pooled) * (1 - q)),
                 tail_q(len(pooled)) * 100, percentile(tail_q(len(pooled)), pooled)))
        # p50_ms is taken over the point reads only: over all requests
        # the median sits on the steep edge between cheap ops and
        # O(n) analyses, and swings by ~50% between runs (README.md).
        typical = [x for s in samples for x, op in zip(s["lat_ms"], s["paced_ops"])
                   if op in POINT_READS]
        print("  p50_ms = median of %d pooled point reads; median of all %d requests %.3fms"
              % (len(typical), len(pooled), percentile(0.5, pooled)))
        qps = median(samples, "qps")
    else:
        typical = [x for s in samples for x in s["step_ms"]]
        q = tail_q(len(typical))
        tail = percentile(q, typical)
        print("  tail_ms = p%g of %d pooled rounds (%d beyond it)"
              % (q * 100, len(typical), round(len(typical) * (1 - q))))
        qps = statistics.median(s["activations"] / s["run_s"] for s in samples)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print("  wall-clock medians: setup %.3fs run %.3fs; run-phase host scale median %.3f"
          % (median(samples, "wall_setup_s"), median(samples, "wall_run_s"),
             statistics.median(s["scale"][1] for s in samples)))
    return {
        "setup_s": (median(samples, "setup_s"), "s"),
        "run_s": (median(samples, "run_s"), "s"),
        "peak_rss_mb": (median(samples, "peak_rss_mb"), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "p50_ms": (percentile(0.5, typical), "ms"),
        "tail_ms": (tail, "ms"),
        "qps": (qps, "1/s"),
    }


def per_layer(untraced, traced, units):
    layers = traced["layers"]
    metrics = {}
    for name, unit in units.items():
        metrics[name] = (float(layers.get(name, 0.0)), unit)
    gc = [s["gc"] for s in untraced]
    metrics["gc.minor_words_per_activation"] = (
        statistics.median(g["minor_words_per_activation"] for g in gc),
        units["gc.minor_words_per_activation"])
    metrics["gc.promoted_mb"] = (statistics.median(g["promoted_mb"] for g in gc),
                                 units["gc.promoted_mb"])
    metrics["gc.major_collections"] = (
        statistics.median(g["major_collections"] for g in gc),
        units["gc.major_collections"])
    if "step_ms" in traced:
        # Round times from the untraced runs, pooled, so the tail has
        # ten samples beyond it even where one run has ~15 rounds.
        steps = [x for s in untraced for x in s["step_ms"]]
        q = tail_q(len(steps))
        print("  runner.round_tail_ms = p%g of %d pooled untraced rounds" % (q * 100, len(steps)))
        metrics["runner.round_p50_ms"] = (percentile(0.5, steps), units["runner.round_p50_ms"])
        metrics["runner.round_tail_ms"] = (percentile(q, steps), units["runner.round_tail_ms"])
    everyone = untraced + [traced]
    metrics["graph.build_s"] = (median(everyone, "graph_build_s"), units["graph.build_s"])
    metrics["obs.overhead"] = (traced["run_s"] / median(untraced, "run_s") - 1.0,
                               units["obs.overhead"])
    metrics["host.calib_ms"] = (
        statistics.median(c for s in everyone for c in s["calib_ms"]),
        units["host.calib_ms"])
    metrics["host.probe_ms"] = (
        statistics.median(p for s in everyone for p in s["probe_ms"]),
        units["host.probe_ms"])
    print("  layers bypassed by this workload report 0")
    return metrics


def main():
    ap = argparse.ArgumentParser(description="symnet end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(PROCESS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(bench) as f:
        spec = json.load(f)
    build()

    n = max(2, int(round(a.seconds / PROCESS_S[a.workload])))
    t0 = time.monotonic()
    print("symbench %s seed=%d: %d processes (%s)"
          % (a.workload, a.seed, n, "traced" if a.trace else "untraced"))
    if a.trace == 0:
        samples = run_processes(a.workload, a.seed, [(k, False) for k in range(n)])
        metrics = end_to_end(a.workload, samples)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        # Same inputs (process 0) throughout, so the traced run can be
        # compared with the untraced ones for the tracing overhead.
        samples = run_processes(a.workload, a.seed,
                                [(0, False)] * (n - 1) + [(0, True)])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(samples[:-1], samples[-1], units)
        names = [m["name"] for m in spec["per_layer"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    with open(os.path.join(OUT_DIR, "%s.samples.json" % a.workload), "w") as f:
        json.dump(samples, f)
    for name in names:
        value, unit = metrics[name]
        print("  %-34s %14.6f %s" % (name, value, unit))
    print("  measured %.1fs" % (time.monotonic() - t0))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
