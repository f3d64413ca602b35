"""Paired benchmark of a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent HEAD --pr 9 --seed 1000

The parent revision is unpacked with ``git archive`` into a temporary
directory.  For each workload of BENCHMARK.json, PAIRS pairs of
``perfbench/run.py --trace 0`` runs follow, one on each tree; pair i uses
seed ``--seed`` + i on both sides, and the side that runs first alternates.
Then one ``--trace 1`` run per side gives the per-layer numbers.  Three
probes follow, each as PROBE_PAIRS pairs of processes whose first side
alternates in the same way, so that host drift does not read as a gap
between the trees: under ``represent``, the check, the relative error
against perfbench/refs.json (None for a gamma-EPI check), the wall time and
the number of MMSE calls of each of the benchmark's ten represent
operations; under ``montecarlo``, the outcome and the wall time of
each operation of the benchmark's montecarlo workload (the Wonham/Yao
ensemble, the CLI path dump and the six atom Monte Carlo operations), one
pass at seed ``--seed`` per process; and under ``curve``, the wall time of
one ``immse curve mmse`` process on the benchmark's 16-PAM input.  Each
probe records every pass and each side's median wall times.  Last, each
tree runs acceptance criterion 10 (the 1e5-path Wonham/Yao ensemble) once
under pytest, then the whole tier-1 suite once, parent first each time: these
two are single runs, for their wall times and the peak resident memory of
the pytest process, which that process reads from its own resource usage.
The record goes to BENCH_<pr>.json at the root of this checkout: each tree's
src/ line count, in total and per file, every run's end-to-end metrics,
each side's median and quartiles, the pairs the change won (ties count for
neither side), the traced layers, the probes, and the criterion-10 and
tier-1 runs.  Run it from a checkout whose working tree holds the change;
after committing the change, pass ``--parent HEAD~1``.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import inputs  # noqa: E402  (the benchmark's input definitions, plain values)
PAIRS = 10
PROBE_PAIRS = 3
SIDES = ("parent", "change")
CRITERION_10 = "tests/test_acceptance.py::test_criterion_10_wonham_yao_monte_carlo"
# runs pytest on its command-line arguments, then prints this process's
# peak resident memory as the last line of standard output
PYTEST_PROBE = """
import resource, sys, pytest
code = pytest.main(sys.argv[1:])
print("[peak_rss_mb]", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
sys.exit(code)
"""
# times each of the ten operations of perfbench's represent part (its five
# MMSE integrals and five gamma-EPI checks), built by the tree's own
# perfbench/workloads.py, and counts the MMSE calls each makes through
# represent; prints one JSON object
REPRESENT_PROBE = r"""
import json, sys, tempfile, time
sys.path.insert(0, "perfbench")
import workloads
from immse import represent

calls, mmse = [0], represent.mmse

def counted(ch):
    calls[0] += 1
    return mmse(ch)

represent.mmse = counted
with tempfile.TemporaryDirectory() as tmp:
    work = workloads.build_represent(1, "full", workloads.load_refs(), tmp)
    work.warmup()
    out = {}
    for op in work.ops:
        calls[0] = 0
        t0 = time.perf_counter()
        (check,), _, _ = op.run()
        out[op.name] = {"ok": bool(check.ok), "rel_err": check.rel_err,
                        "wall_s": time.perf_counter() - t0,
                        "mmse_calls": calls[0]}
print(json.dumps(out))
"""

# times each operation of perfbench's montecarlo workload, built by the
# tree's own perfbench/workloads.py, over one pass after its warmup;
# argv: seed.  Prints one JSON object
MONTECARLO_PROBE = r"""
import json, sys, tempfile, time
sys.path.insert(0, "perfbench")
import workloads

with tempfile.TemporaryDirectory() as tmp:
    work = workloads.build("montecarlo", int(sys.argv[1]), "full", tmp)
    work.warmup()
    out = {}
    for op in work.ops:
        t0 = time.perf_counter()
        outcomes, _, _ = op.run()
        out[op.name] = {"ok": all(o.ok for o in outcomes),
                        "wall_s": time.perf_counter() - t0}
print(json.dumps(out))
"""


def unpack(rev: str, dest: str) -> str:
    """Write the files of ``rev`` into ``dest``; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = os.path.join(dest, "tree.tar")
    subprocess.run(["git", "archive", "-o", archive, commit], cwd=ROOT, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    os.remove(archive)
    return commit


def src_file_lines(tree: str) -> dict:
    """Line count of each .py file under ``tree``/src, keyed by its path
    relative to src."""
    src = os.path.join(tree, "src")
    counts = {}
    for base, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(base, name)
                with open(path, encoding="utf-8") as f:
                    counts[os.path.relpath(path, src)] = sum(1 for _ in f)
    return dict(sorted(counts.items()))


def run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py invocation; its closing JSON line, or the failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"run.py exited {proc.returncode}",
                "stderr": proc.stderr[-2000:]}
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def run_pytest(tree: str, args: list):
    """One pytest run in ``tree`` on its own sources: its wall time, exit
    code, peak resident memory in MB (None if not printed) and the lines of
    pytest's standard output."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-c", PYTEST_PROBE, "-q", "-p", "no:cacheprovider",
           *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, timeout=1800)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    rss = None
    if lines and lines[-1].startswith("[peak_rss_mb]"):
        rss = float(lines.pop().split()[1])
    out = {"wall_s": wall, "peak_rss_mb": rss, "returncode": proc.returncode}
    return out, lines or proc.stderr[-2000:].splitlines()


def run_criterion_10(tree: str) -> dict:
    """Wall time and peak resident memory of one pytest run of criterion 10
    in ``tree``, its exit code and its ``[criterion 10]`` line."""
    out, lines = run_pytest(tree, ["-s", CRITERION_10])
    stripped = [ln.lstrip(".") for ln in lines]
    out["line"] = next((ln for ln in stripped if ln.startswith("[criterion 10]")),
                       "\n".join(lines)[-2000:])
    return out


def run_tier1(tree: str) -> dict:
    """Wall time and peak resident memory of one tier-1 pytest run in
    ``tree`` (ROADMAP.md), its exit code and pytest's closing summary line."""
    out, lines = run_pytest(tree, ["--continue-on-collection-errors"])
    out["line"] = lines[-1] if lines else ""
    return out


def run_probe(tree: str, probe: str, *args: str) -> dict:
    """The JSON object that ``probe`` prints, run on ``tree``'s sources in
    one process with one BLAS thread, as perfbench runs them, or its
    failure."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", probe, *args], cwd=tree,
                          env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return {"error": f"exited {proc.returncode}",
                "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_curve(tree: str) -> dict:
    """Wall time of one ``immse curve mmse`` process on the benchmark's
    16-PAM input and dB grid, interpreter start included, and its exit code."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    with tempfile.TemporaryDirectory(prefix="bench_curve_") as tmp:
        cmd = [sys.executable, "-m", "immse.cli", "curve", "mmse", "--input",
               inputs.CURVE_INPUTS["pam16"], f"--snr-db={inputs.SNR_DB_SPEC}",
               "--out", os.path.join(tmp, "pam16.csv")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                              text=True, timeout=600)
        wall = time.perf_counter() - t0
    out = {"wall_s": wall, "returncode": proc.returncode}
    if proc.returncode != 0:
        out["stderr"] = proc.stderr[-2000:]
    return out


def alternating(n: int, trees: dict, fn, label: str) -> list:
    """``n`` pairs of ``fn(tree, i)`` calls, one per side, the side that
    runs first alternating from pair to pair, parent first in pair 0."""
    pairs = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = fn(trees[side], i)
            print(f"{label} pair {i} {side}: "
                  f"{pair[side].get('metrics', pair[side])}",
                  file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def median_wall(passes: list):
    """The median of the passes' wall times, per op where a pass times
    several ops; None if a pass failed."""
    if any("error" in p for p in passes):
        return None
    if "wall_s" in passes[0]:
        return statistics.median(p["wall_s"] for p in passes)
    return {op: statistics.median(p[op]["wall_s"] for p in passes)
            for op in passes[0]}


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's quartiles and the pairs the change won."""
    ok = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    if not ok:
        return {}
    out = {}
    for name, direction in better.items():
        par = [p["parent"]["metrics"][name] for p in ok]
        chg = [p["change"]["metrics"][name] for p in ok]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        qp, qc = quartiles(par), quartiles(chg)
        out[name] = {
            "better": direction, "parent": qp, "change": qc,
            "pairs": len(ok), "change_wins": wins, "ties": ties,
            "median_rel_change": (qc["median"] / qp["median"] - 1.0
                                  if qp["median"] else None),
            # the change's median beats the parent's by more than the
            # distance between the parent's quartiles
            "median_gap_exceeds_parent_iqr":
                sign * (qp["median"] - qc["median"]) > qp["q3"] - qp["q1"],
        }
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_commit = unpack(args.parent, tmp)
        trees = {"parent": os.path.join(tmp, "tree"), "change": ROOT}
        lines = {side: src_file_lines(t) for side, t in trees.items()}
        record = {
            "parent": parent_commit,
            "change": "working tree of " + subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True).stdout.strip(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                     "python": platform.python_version()},
            "run_seconds": seconds,
            "src_lines": {side: sum(c.values()) for side, c in lines.items()},
            "src_file_lines": lines,
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = alternating(
                PAIRS, trees, lambda tree, i: run(tree, workload, args.seed + i,
                                                  seconds, 0), workload)
            for i, pair in enumerate(pairs):
                pair["seed"] = args.seed + i
            traced = {side: run(trees[side], workload, args.seed, seconds, 1)
                      for side in SIDES}
            record["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, better),
                "traced": traced}
        probes = {
            "represent": lambda tree, i: run_probe(tree, REPRESENT_PROBE),
            "montecarlo": lambda tree, i: run_probe(tree, MONTECARLO_PROBE,
                                                    str(args.seed)),
            "curve": lambda tree, i: run_curve(tree)}
        for key, fn in probes.items():
            passes = alternating(PROBE_PAIRS, trees, fn, key)
            record[key] = {"passes": passes, "median_wall_s": {
                side: median_wall([p[side] for p in passes]) for side in SIDES}}
        for key, fn in (("criterion_10", run_criterion_10), ("tier1", run_tier1)):
            record[key] = {}
            for side in SIDES:
                record[key][side] = fn(trees[side])
                print(f"{key} {side}: {record[key][side]}", file=sys.stderr,
                      flush=True)

    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
