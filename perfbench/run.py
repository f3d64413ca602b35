"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload deterministic --seed 1 --seconds 40 --trace 0

Workloads: deterministic (curve + represent) and montecarlo (telegraph +
mc_atoms); each of the four parts can also be run alone (perfbench/README.md).
Each worker is a fresh single process (perfbench/worker.py) with
OPENBLAS/OMP/MKL threads set to 1 before numpy is imported; nothing
machine-wide is changed.

--trace 0 prints the end-to-end metrics: set-up time (median over the
measuring process and the set-up-only processes it starts during its run),
wall time of the fixed job with every output checked (the sum over
operations of each one's mean time over the measured stretch), peak resident
memory, the fraction of checked outputs that met their oracle, and the
largest relative error of a deterministic output.  --trace 1 runs one pass
of the workload untraced and one with the span hooks of perfbench/spans.py,
and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `failed` counts operations that raised or
returned no output; outputs that miss their oracle are counted in ok_frac
(fail_frac = 1 - ok_frac) and, when deterministic, in max_rel_err.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the benchmark's two workloads, then the four parts they join (workloads.py)
WORKLOADS = ("deterministic", "montecarlo", "curve", "represent", "telegraph",
             "mc_atoms")
SETUP_PROBES = 6            # set-up-only processes, spread over the measuring run
DEADLINE_S = 170.0          # the whole run, all child processes included
REL_ERR_FLOOR = 1e-8        # smaller relative errors are not distinguished

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "ok_frac": "frac", "max_rel_err": "rel"}


def layer_unit(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "frac" in name:
        return "frac"
    if "levels_per_call" in name:
        return "levels"
    if name.endswith("_mb_computed"):
        return "MB"
    if name.endswith("ns_per_draw"):
        return "ns"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class BenchError(Exception):
    pass


def run_worker(args, deadline, *extra, seconds=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           "--scale", args.scale, *extra]
    if args.plant_miss:
        cmd.append("--plant-miss")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    # its own process group, so that a timeout also ends the set-up probes
    # the worker may be waiting for
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time: the whole job is repeated until "
                         "this much time has been spent on it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: reduced job, used by selfcheck.py")
    ap.add_argument("--plant-miss", action="store_true",
                    help="perturb one stored oracle value (selfcheck.py)")
    args = ap.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "immse", "__init__.py"),
              os.path.join(HERE, "refs.json"), os.path.join(HERE, "known_misses.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            # one pass each: the layer metrics are per pass
            plain = run_worker(args, deadline, seconds=0)
            traced = run_worker(args, deadline, "--trace", seconds=0)
            workers = [plain, traced]
        else:
            main_run = run_worker(args, deadline, "--probes", str(SETUP_PROBES))
            probes = main_run["probe_setup_s"]
            workers = [main_run]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    w = workers[-1]
    v = w["versions"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print(f"env python={platform.python_version()} numpy={v['numpy']} "
          f"scipy={v['scipy']} blas={v['blas']!r} nproc={os.cpu_count()} "
          f"cpu={cpu_model()!r} OPENBLAS/OMP/MKL_NUM_THREADS=1")
    print("note: nothing machine-wide was changed to steady this run: no cache "
          "dropping, no CPU pinning; only the worker's own environment is set")
    for res, label in zip(workers, ("untraced", "traced") if args.trace else ("run",)):
        print(f"{label}: passes={res['passes']:.3f} "
              f"measured_s={res['measured_s']:.4f} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"oracle_misses={res['misses']} max_mc_z={res['max_z']:.2f} "
              f"digest={res['digest'][:16]}")
        for item in res["unexpected"][:20]:
            print(f"  unexpected miss: {item}")

    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    correct = attempted > 0 and not any(r["unexpected"] for r in workers)
    if args.trace:
        metrics = dict(traced["layer"])
        metrics["trace_overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = {k: layer_unit(k) for k in metrics}
        if traced["absent"]:
            print(f"absent (hook target not found): {', '.join(traced['absent'])}")
        print(f"trace spans: {traced['trace_file']}")
    else:
        metrics = {
            "setup_s": statistics.median(probes + [w["setup_s"]]),
            "wall_s": w["wall_s"],
            "peak_rss_mb": w["peak_rss_mb"],
            "ok_frac": w["ok_frac"],
            "max_rel_err": max(REL_ERR_FLOOR, w["max_rel_err"]),
        }
        units = E2E_UNITS
        print(f"setup samples (s): {[round(s, 4) for s in probes + [w['setup_s']]]}")
        print(f"fail_frac {1.0 - w['ok_frac']:.6g} frac  (= 1 - ok_frac)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(val), "unit": units[k]}
                    for k, val in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
