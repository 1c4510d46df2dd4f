"""stiffnet benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py [--workload convergence|synth|game|all]
                             [--seed 1234] [--seconds 40] [--trace 0|1]

Run from anywhere inside a checkout; stiffnet is imported from ``src/``
with no install step.  Each round of a workload is a fresh process
(``perfbench/workload.py``), started one at a time, so peak RSS is the
round's own and only one process generates load.  Rounds repeat while one
more round as long as the last still fits in ``--seconds`` (there is
always at least one), and the figures reported are medians over the
rounds.  When a run has fewer than ``MIN_SETUPS`` rounds, extra processes
that stop just before the study call also sample set-up time, so
``setup_s`` is always a median of at least ``MIN_SETUPS`` samples.

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted`` (rounds), ``failed`` (rounds whose study
exited non-zero) and the end-to-end metrics ``setup_s``, ``wall_s`` and
``peak_rss_mb``.  With ``--trace 1`` untraced and traced rounds alternate,
and the metrics are the per-layer figures of the traced rounds plus
``trace.overhead_s`` (median traced ``wall_s`` minus median untraced
``wall_s``).  ``--workload all`` runs every workload in turn and prints one
such line per workload, each with a ``workload`` key.

All output goes under ``perfbench/out/<workload>/``, which keeps the last
round's study artifacts (and ``spans.csv``, the spans of a traced round).
The exit code is 0 when every round ran to the end, whether or not its
checks passed; a round that crashes, or a checkout without
``src/stiffnet``, ends the run with exit code 1 and no result line.
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
OUT = os.path.join(HERE, "out")
WORKLOADS = ("convergence", "synth", "game")
MIN_SETUPS = 5
ROUND_TIMEOUT_S = 170
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
DEFAULT_SEED = 1234


def _blas_env():
    """Child environment: BLAS pools capped at the CPUs this process may use."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_round(workload, seed, trace, out_dir, setup_only=False):
    """Start one workload process, wait for it, return its JSON result."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--out", out_dir,
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE,
        text=True,
        env=_blas_env(),
        timeout=ROUND_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            "%s round exited with code %d" % (workload, proc.returncode)
        )
    result = json.loads(lines[-1])
    print("%s trace=%d %s" % (workload, trace, lines[-1]), file=sys.stderr)
    return result


def run_workload(workload, seed, seconds, trace):
    out_dir = os.path.join(OUT, workload)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        plain.append(run_round(workload, seed, 0, out_dir))
        if trace:
            traced.append(run_round(workload, seed, 1, out_dir))
        # another round starts only if, taking as long as the last, it ends in time
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_round(workload, seed, 0, out_dir, True)["setup_s"])

    rounds = plain + traced
    failed = sum(r["exit_code"] != 0 for r in rounds)
    correct = all(all(r["checks"].values()) for r in rounds if r["exit_code"] == 0)
    for r in rounds:
        for name, ok in r.get("checks", {}).items():
            if not ok:
                print("%s: check %s failed" % (workload, name), file=sys.stderr)

    if trace:
        metrics = layer_metrics(traced)
        if metrics is None:
            correct = False
            print("%s: per-layer counts differ between rounds" % workload, file=sys.stderr)
            metrics = layer_metrics(traced[:1])
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        timed = [r for r in plain if r["exit_code"] == 0] or plain
        medians = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        }
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": correct,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(traced):
    """Medians of the per-layer figures; None if a count is not repeatable."""
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][0] for r in traced]
        if unit != "s" and len(set(values)) > 1:
            return None
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(ROOT, "src", "stiffnet")):
        sys.exit("perfbench: no stiffnet package under %s" % os.path.join(ROOT, "src"))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [
            (w, run_workload(w, args.seed, args.seconds, args.trace)) for w in workloads
        ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit("perfbench: %s" % exc)
    for workload, result in results:
        if args.workload == "all":
            result = dict(result, workload=workload)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
