#!/usr/bin/env python3
"""Simulator benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {allreduce,incast,short-flows} \
        --seed N --seconds S --trace {0,1}

Builds perfbench/bench.exe with dune, then starts one fresh process per
simulation run for S seconds, timing a reference kernel between runs
to scale host timings (see REF_CALIB_S), and reports medians.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced runs and prints the per-layer metrics.
Every run's correctness fingerprint is checked against
perfbench/fingerprints.json (or, for a seed with no pinned entry, against
the other runs of the invocation), and one extra run cross-checks the
workload against the library's own runner.
The last line of standard output is the JSON result.

--workload all measures the three workloads one after the other (metrics
prefixed with the workload name).

    python3 perfbench/run.py --pin --workload W --seed N [--seed M ...]

records the fingerprints of the given seeds in fingerprints.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
PINS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ["allreduce", "incast", "short-flows"]

END_TO_END = [
    ("wall_s", "s"),
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
]


def _spans(prefix):
    return [
        (prefix + ".calls", "count"),
        (prefix + ".self_s", "s"),
        (prefix + ".ns_per_call", "ns"),
    ]


PER_LAYER = (
    [("setup.build_s", "s"), ("setup.launch_s", "s")]
    + [
        ("engine.events", "count"),
        ("engine.events_per_pkt", "events/pkt"),
        ("engine.wheel_hit_ratio", "ratio"),
        ("engine.self_s", "s"),
    ]
    + [("port.tx_pkts", "count"), ("port.drops", "count")]
    + _spans("switch.tor_up_data")
    + _spans("switch.tor_up_ctrl")
    + _spans("switch.tor_down")
    + _spans("switch.spine")
    + [("switch.buffer_drops", "count"), ("switch.ecn_marks", "count")]
    + _spans("themis_d.nack_in")
    + [
        ("themis_d.nacks_seen", "count"),
        ("themis_d.block_ratio", "ratio"),
        ("themis_d.comp_sent", "count"),
        ("themis_d.queue_overwrites", "count"),
    ]
    + _spans("rnic.data")
    + _spans("rnic.ack")
    + _spans("rnic.nack")
    + _spans("rnic.cnp")
    + [
        ("rnic.retx_ratio", "ratio"),
        ("rnic.ooo_arrivals", "count"),
        ("dcqcn.cnps", "count"),
        ("packet_pool.reuse_ratio", "ratio"),
    ]
    + _spans("net.connect")
    + [
        ("workload.live_hwm", "count"),
        ("workload.qps_created", "count"),
        ("workload.words_per_flow_early", "words/flow"),
        ("workload.words_per_flow_late", "words/flow"),
    ]
    + [
        ("gc.minor_words_per_pkt", "words/pkt"),
        ("gc.promoted_words_per_pkt", "words/pkt"),
        ("gc.major_collections", "count"),
    ]
    + [("telemetry.events", "count"), ("telemetry.self_s", "s")]
    + [("trace.overhead", "ratio")]
)

# Per-layer figures taken from the untraced runs: set-up timings and GC
# figures (the tracer allocates), and the workload's words per flow.
FROM_UNTRACED = {
    "setup.build_s",
    "setup.launch_s",
    "gc.minor_words_per_pkt",
    "gc.promoted_words_per_pkt",
    "gc.major_collections",
    "workload.words_per_flow_early",
    "workload.words_per_flow_late",
}

MIN_RUNS = 3  # of each kind, however short --seconds is
RUN_TIMEOUT_S = 60  # a normal run takes a few seconds

# Host timings are scaled to a reference host speed.  On a shared host,
# neighbours slow every run down, by up to 2x and for minutes at a time,
# so no statistic of raw host times stays within the bounds from one
# invocation to the next.  Before and after every run the
# runner times a fixed reference kernel (calib.ml) in a fresh process;
# a run's timings are multiplied by REF_CALIB_S over the mean of the two
# kernel times, i.e. given in seconds of a host that runs the kernel in
# REF_CALIB_S.  The kernel calls nothing in the simulator, so a change to
# the simulator moves the scaled timings as much as the raw ones.
REF_CALIB_S = 0.1
CALIB_CHECKSUM = 128136314  # the kernel's result; guards its work


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        log("run.py: %s is not a checkout of the simulator (no dune-project "
            "or lib/)" % ROOT)
        sys.exit(2)
    # No shared dune cache, and the compiler's temporary files inside the
    # checkout too.
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "--display", "quiet", "perfbench/bench.exe"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        cmd = ["opam", "exec", "--"] + cmd
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           env=dict(os.environ, TMPDIR=tmp), timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("run.py: build failed: %s" % e)
        sys.exit(1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if r.returncode != 0 or not os.path.isfile(EXE):
        log("run.py: build failed (exit %d)" % r.returncode)
        sys.exit(1)


# Runs measure the runtime's default GC settings.
RUN_ENV = {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM"}


def run_once(workload, seed, *flags):
    """One simulation in a fresh process; returns its JSON record."""
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed)] + list(flags)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           env=RUN_ENV, timeout=RUN_TIMEOUT_S)
        rec = json.loads(r.stdout.strip().splitlines()[-1])
        if r.returncode != 0:
            rec["ok"] = False
            rec.setdefault("error", "exit %d" % r.returncode)
        return rec
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError) as e:
        return {"ok": False, "error": "run failed: %s" % e}


def calibrate():
    """Host seconds of one reference-kernel call in a fresh process, or
    None if it failed."""
    try:
        r = subprocess.run([EXE, "calibrate"], cwd=ROOT, capture_output=True,
                           text=True, env=RUN_ENV, timeout=RUN_TIMEOUT_S)
        rec = json.loads(r.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.TimeoutExpired, ValueError, IndexError):
        return None
    if r.returncode != 0 or rec.get("checksum") != CALIB_CHECKSUM \
            or not rec.get("calib_s", 0) > 0:
        return None
    return rec["calib_s"]


def load_pins():
    try:
        with open(PINS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def spread(xs):
    """min, q1, median, q3, max as statistics.quantiles gives them."""
    if len(xs) < 2:
        v = xs[0] if xs else 0.0
        return {"n": len(xs), "min": v, "q1": v, "median": v, "q3": v, "max": v}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"n": len(xs), "min": min(xs), "q1": q1, "median": q2, "q3": q3,
            "max": max(xs)}


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args),
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def commit():
    # Only when the checkout is itself a work tree: never report the
    # commit of an enclosing repository.
    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return git("rev-parse", "HEAD") or "unknown"


def check_runs(workload, seed, runs, crosscheck):
    """Count attempted and failed ops over the runs; returns (attempted,
    failed, problems, pinned).  A run that raised, or whose fingerprint
    differs from the pinned one (or, unpinned, from the first run's),
    fails every op it attempted."""
    pinned = load_pins().get(workload, {}).get(str(seed))
    reference = pinned
    attempted = failed = 0
    problems = []
    for rec in runs + [crosscheck]:
        ops = int(rec.get("ops", 1))
        attempted += ops
        if not rec.get("ok"):
            failed += ops
            problems.append("run failed: %s" % rec.get("error"))
            continue
        fp = rec["fingerprint"]
        if reference is None:
            reference = fp
        if fp != reference:
            failed += ops
            diff = {k: (reference.get(k), v) for k, v in fp.items()
                    if reference.get(k) != v}
            problems.append("fingerprint mismatch (%s) %s" % (
                "pinned" if pinned else "first run", diff))
            continue
        if rec is crosscheck and rec.get("crosscheck") != "ok":
            failed += ops
            problems.append("crosscheck: %s" % rec.get("crosscheck"))
            continue
        failed += int(rec.get("failed_ops", 0))
    return attempted, failed, problems, pinned is not None


def measure(workload, seed, seconds, trace):
    kinds = [[]]
    if trace:
        kinds.append(["--traced"])
        if workload == "allreduce":
            kinds.append(["--telemetry-off"])
    runs = {tuple(k): [] for k in kinds}
    start = time.monotonic()
    i = 0
    before = calibrate()
    while (time.monotonic() - start < seconds
           or min(len(v) for v in runs.values()) < MIN_RUNS):
        k = kinds[i % len(kinds)]
        rec = run_once(workload, seed, *k)
        after = calibrate()
        if before is None or after is None:
            rec["ok"] = False
            rec.setdefault("error", "reference kernel failed")
        else:
            rec["calib_s"] = (before + after) / 2
            rec["scale"] = REF_CALIB_S / rec["calib_s"]
        runs[tuple(k)].append(rec)
        before = after
        i += 1
    measured_s = time.monotonic() - start
    crosscheck = run_once(workload, seed, "--crosscheck")
    return runs, crosscheck, measured_s


def ok_runs(rs):
    return [r for r in rs if r.get("ok") and r.get("wall_s", 0) > 0]


def scaled_wall(rs):
    return [r["wall_s"] * r["scale"] for r in ok_runs(rs)]


def end_to_end(plain):
    """Medians over the runs (timings scaled, see REF_CALIB_S), and the
    series they come from, raw host timings and kernel times included."""
    ok = ok_runs(plain)
    series = {
        "wall_s": scaled_wall(plain),
        "pkts_per_s": [r["data_pkts"] / (r["wall_s"] * r["scale"]) for r in ok],
        "setup_s": [r["setup_s"] * r["scale"] for r in ok],
        "peak_heap_mb": [r["peak_heap_mb"] for r in ok],
    }
    host = {
        "host_wall_s": [r["wall_s"] for r in ok],
        "host_setup_s": [r["setup_s"] for r in ok],
        "calib_s": [r["calib_s"] for r in ok],
    }
    return {k: median(v) for k, v in series.items()}, series, host


# Per-layer figures measured in host time, scaled like the end-to-end ones.
TIMED = {name for name, unit in PER_LAYER if unit in ("s", "ns")}


def per_layer(workload, plain, traced, teleoff):
    out = {}
    for name, _ in PER_LAYER:
        src = plain if name in FROM_UNTRACED else traced
        out[name] = median([
            r["layers"][name] * (r["scale"] if name in TIMED else 1)
            for r in ok_runs(src) if name in r["layers"]])
    wall = median(scaled_wall(plain))
    out["trace.overhead"] = median(scaled_wall(traced)) / wall if wall else 0.0
    if workload == "allreduce" and teleoff:
        out["telemetry.self_s"] = wall - median(scaled_wall(teleoff))
    return out


def fmt(v):
    return "%.6g" % v


def bench(workload, seed, seconds, trace):
    """Measure one workload, print its table and protocol record; returns
    (correct, attempted, failed, metrics)."""
    runs, crosscheck, measured_s = measure(workload, seed, seconds, trace)
    plain = runs[()]
    traced = runs.get(("--traced",), [])
    teleoff = runs.get(("--telemetry-off",), [])
    all_runs = plain + traced + teleoff
    attempted, failed, problems, pinned = check_runs(
        workload, seed, all_runs, crosscheck)

    e2e, series, host = end_to_end(plain)
    ocaml = next((r["ocaml"] for r in all_runs if "ocaml" in r), "unknown")
    protocol = {
        "workload": workload,
        "seed": seed,
        "fingerprint": "pinned" if pinned else "runs agree (unpinned seed)",
        "nproc": os.cpu_count(),
        "commit": commit(),
        "ocaml": ocaml,
        "seconds": round(measured_s, 3),
        "runs": {"untraced": len(plain), "traced": len(traced),
                 "telemetry_off": len(teleoff), "crosscheck": 1},
        "fail_share": failed / attempted if attempted else 1.0,
        "end_to_end": {k: spread(v) for k, v in series.items()},
        "reference_kernel_s": REF_CALIB_S,
        "host": {k: spread(v) for k, v in host.items()},
    }
    print("perfbench %s seed %d: %d untraced runs%s in %.1f s, nproc %s, "
          "ocaml %s, commit %s" % (
              workload, seed, len(plain),
              ", %d traced" % len(traced) if trace else "",
              measured_s, protocol["nproc"], ocaml, protocol["commit"]))
    for k, unit in END_TO_END:
        s = protocol["end_to_end"][k]
        print("  %-14s %12s %-6s (median of n=%d; min %s, q1 %s, q3 %s, "
              "max %s)" % (k, fmt(e2e[k]), unit, s["n"], fmt(s["min"]),
                           fmt(s["q1"]), fmt(s["q3"]), fmt(s["max"])))
    h = {k: v["median"] for k, v in protocol["host"].items()}
    print("  (timings scaled by %g s / reference kernel time; medians of "
          "host time: wall %s s, set-up %s s, kernel %s s)" % (
              REF_CALIB_S, fmt(h["host_wall_s"]), fmt(h["host_setup_s"]),
              fmt(h["calib_s"])))
    print("  %-14s %12s %-6s (%d of %d ops failed)" % (
        "fail_share", fmt(protocol["fail_share"]), "ratio", failed, attempted))
    for msg in sorted(set(problems)):
        print("  FAIL (%d runs): %s" % (problems.count(msg), msg))

    if trace:
        layers = per_layer(workload, plain, traced, teleoff)
        for k, unit in PER_LAYER:
            print("  %-34s %14s %s" % (k, fmt(layers[k]), unit))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    print("protocol " + json.dumps(protocol, sort_keys=True))
    return failed == 0 and not problems, attempted, failed, metrics


def pin(workload, seeds):
    pins = load_pins()
    for seed in seeds:
        rec = run_once(workload, seed, "--crosscheck")
        if not rec.get("ok") or rec.get("crosscheck") != "ok" \
                or rec["fingerprint"]["failed_ops"] != 0:
            log("run.py: not pinning %s seed %d: %s" % (
                workload, seed, rec.get("error") or rec.get("crosscheck")))
            sys.exit(1)
        pins.setdefault(workload, {})[str(seed)] = rec["fingerprint"]
        log("pinned %s seed %d" % (workload, seed))
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pin", action="store_true",
                   help="record the fingerprints of the given seeds")
    a = p.parse_args()
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    if not a.pin and len(a.seed) != 1:
        p.error("one --seed per measurement")
    build()

    if a.pin:
        for w in workloads:
            pin(w, a.seed)
        return

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        c, at, f, m = bench(w, a.seed[0], a.seconds, a.trace)
        correct, attempted, failed = correct and c, attempted + at, failed + f
        if a.workload == "all":
            m = {"%s.%s" % (w, k): v for k, v in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
