"""Self-check of the benchmark, on reduced jobs (a few minutes in all).

    python3 perfbench/selfcheck.py                        # run the checks
    python3 perfbench/selfcheck.py --record-known-misses  # rewrite the list

Checks:
1. every workload, traced and untraced, prints each metric named in
   BENCHMARK.json with the unit given there, and no other metric;
2. a planted wrong oracle value lowers ok_frac (raises fail_frac) and makes
   the run incorrect;
3. two Monte Carlo runs with the same seed give bit-identical outputs, and
   another seed gives different ones.

--record-known-misses runs the deterministic workloads at full size and
stores, per workload, the labels of the fixed-input outputs that miss their
oracle today.  Those misses still count in ok_frac and max_rel_err; the list
only keeps them from marking a run incorrect.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deterministic", "montecarlo")      # the benchmark's workloads
PARTS = ("curve", "represent", "telegraph", "mc_atoms")


def _last_json(cmd):
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload, seed=1, trace=0, *extra):
    return _last_json(["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--scale", "small",
                       *extra])


def worker(workload, seed, scale="small"):
    return _last_json(["perfbench/worker.py", "--workload", workload, "--seed",
                       str(seed), "--seconds", "1", "--scale", scale])


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    return ok


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    good = True
    for w in WORKLOADS:
        for trace in (0, 1):
            res = bench(w, trace=trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            good &= check(got == units[trace] and res["correct"],
                          f"{w} trace={trace}: {len(got)} metrics with units, "
                          f"correct={res['correct']}")
            if got != units[trace]:
                print(f"     expected {units[trace]}\n     got      {got}")

    clean = bench("curve")
    planted = bench("curve", 1, 0, "--plant-miss")
    good &= check(planted["metrics"]["ok_frac"]["value"]
                  < clean["metrics"]["ok_frac"]["value"] and not planted["correct"],
                  "planted wrong oracle lowers ok_frac and marks the run incorrect")

    for w in ("mc_atoms", "telegraph"):
        a, b, c = worker(w, 7), worker(w, 7), worker(w, 8)
        good &= check(a["digest"] == b["digest"] != c["digest"],
                      f"{w}: same seed replays bit-identically, another seed differs")
    return 0 if good else 1


def record_known_misses():
    path = os.path.join(HERE, "known_misses.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("{}\n")
    known = {}
    for w in PARTS:
        labels = worker(w, 1, scale="full")["miss_labels"]
        if labels:
            known[w] = labels
        print(f"{w}: {len(labels)} fixed-input misses", flush=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(known, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record-known-misses", action="store_true")
    sys.exit(record_known_misses() if ap.parse_args().record_known_misses
             else selfcheck())
