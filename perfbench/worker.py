"""One benchmark process: set up one workload, run it, print one JSON line.

Started by run.py, never imported.  Set-up time runs from the first line of
this file (before numpy is imported) to the end of the warm-up calls.  With
--probe the process stops there and reports only its set-up time; with
--probes N the measuring process starts N such probes one at a time, spread
over its run at operation boundaries, so that the set-up samples meet the
host in as many states as the run does.  Time spent waiting for a probe is
not part of the run.

A run cycles through the operations of the workload's fixed job.  Once
every operation has run, it stops at the operation boundary closest to
--seconds (so a run measures --seconds give or take half an operation, or
one whole pass if that is longer).  Each run of an operation is timed;
wall_s, the time of one fixed job, is the sum over operations of that
operation's mean time, so the whole measured stretch counts, not only whole
passes.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is imported

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _probe(args):
    """Set-up time of a fresh set-up-only process; this process waits for it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up probe exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--probes", type=int, default=0,
                    help="set-up-only processes to run, spread over the run")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--plant-miss", action="store_true")
    args = ap.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    import immse
    if os.path.dirname(os.path.abspath(immse.__file__)) != os.path.join(SRC, "immse"):
        raise SystemExit(f"immse imported from {immse.__file__}, not from {SRC}")
    import workloads

    out_dir = os.path.join(HERE, "_out", f"{args.workload}-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, args.scale, out_dir,
                         plant_miss=args.plant_miss)
    wl.warmup()
    setup_s = time.perf_counter() - T_START
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    os.makedirs(out_dir, exist_ok=True)     # set-up writes no files

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install("immse")

    tally = {"attempted": 0, "failed": 0, "misses": 0, "unexpected": [],
             "max_rel_err": 0.0, "max_z": 0.0, "bytes_written": 0,
             "miss_labels": []}
    digests = []
    op_s = {op.name: [] for op in wl.ops}
    op_ok = {op.name: [0, 0] for op in wl.ops}    # outputs that met the oracle, all
    probe_s, probe_cost = [], 0.0      # probe time is left out of the run
    t_run = time.perf_counter()
    i = 0
    while True:
        op, k = wl.ops[i % len(wl.ops)], i // len(wl.ops)
        t_op = time.perf_counter()
        if tracer:
            tracer.run_id = f"{args.workload}:{args.seed}:{k}:{op.name}"
            idx = tracer.begin("bench.op")
        try:
            outcomes, digest, written = op.run()
        except Exception as exc:   # the op failed: count it, keep running
            print(f"operation {op.name} failed: {exc!r}", file=sys.stderr)
            outcomes, digest, written = None, b"", 0
            tally["attempted"] += op.n_outputs
            tally["failed"] += op.n_outputs
            tally["misses"] += op.n_outputs
            op_ok[op.name][1] += op.n_outputs
            tally["unexpected"].append(f"{op.name}: {exc!r}")
        finally:
            if tracer:
                tracer.end(idx)
        op_s[op.name].append(time.perf_counter() - t_op)
        i += 1
        if k == 0:
            digests.append(digest)
        tally["bytes_written"] += written
        for o in outcomes or ():
            tally["attempted"] += 1
            op_ok[op.name][0] += o.ok
            op_ok[op.name][1] += 1
            if o.kind == "fixed" and o.rel_err is not None:
                tally["max_rel_err"] = max(tally["max_rel_err"], o.rel_err)
            if o.z is not None:
                tally["max_z"] = max(tally["max_z"], o.z)
            if not o.ok:
                tally["misses"] += 1
                if k == 0 and o.kind == "fixed":
                    tally["miss_labels"].append(o.label)
                if o.kind in ("fixed", "seeded") and o.label not in wl.known_misses:
                    tally["unexpected"].append(o.label)
            if o.kind == "mc" and o.z > workloads.MC_GROSS:
                tally["unexpected"].append(f"{o.label}: {o.z:.1f} SE")
        elapsed = time.perf_counter() - t_run - probe_cost
        if (len(probe_s) < args.probes
                and elapsed >= len(probe_s) * args.seconds / args.probes):
            t_p = time.perf_counter()
            probe_s.append(_probe(args))
            probe_cost += time.perf_counter() - t_p
            elapsed = time.perf_counter() - t_run - probe_cost
        # once every operation has run, stop at the operation boundary that
        # lies closest to --seconds, judging the next one by its mean time
        if i >= len(wl.ops):
            upcoming = statistics.fmean(op_s[wl.ops[i % len(wl.ops)].name])
            if elapsed + upcoming / 2 >= args.seconds:
                break
    measured_s = time.perf_counter() - t_run - probe_cost
    while len(probe_s) < args.probes:
        probe_s.append(_probe(args))

    result = {
        "workload": args.workload, "seed": args.seed, "setup_s": setup_s,
        "probe_setup_s": probe_s,
        "measured_s": measured_s, "passes": i / len(wl.ops),
        "wall_s": sum(statistics.fmean(t) for t in op_s.values()),
        # weighted by each operation's outputs per pass, so that the operations
        # the run ended before repeating do not shift it
        "ok_frac": (sum(op.n_outputs * op_ok[op.name][0] / op_ok[op.name][1]
                        for op in wl.ops) / sum(op.n_outputs for op in wl.ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": workloads.digest_hex(digests),
        "versions": _versions(), **tally,
    }
    result["unexpected"] = sorted(set(tally["unexpected"]))
    if tracer:
        path = os.path.join(HERE, "_out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        metrics = tracer.metrics(i / len(wl.ops))
        metrics["cli.bytes_written"] = tally["bytes_written"] * len(wl.ops) / i
        result.update(layer=metrics, absent=sorted(tracer.absent), trace_file=path)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
