"""Span tracer for the traced benchmark run.

Nothing in immse is edited: ``install`` replaces functions of the immse
modules by timing wrappers, in the traced worker process only (the untraced
worker never imports this file).  A function is replaced wherever a module
holds a reference to it, because the package imports names across modules
(``scalar`` calls ``integrate_output`` through its own global, ``represent``
calls ``mmse`` through its own global, and so on).

Each span is [name, start, end, parent, run id]; spans stay in memory and
are written as JSONL when the run ends.  A layer's self time is its spans'
durations minus the part covered by their child spans.

Telegraph ensembles are split into phases without touching ``ct``: after
each path synthesis of n steps, the first n Wonham step calls form the
forward phase and the following step calls the backward phase, which holds
the Yao combine calls as children.

A hook whose target function no longer exists marks the metrics it feeds as
absent instead of failing, so a rename inside immse does not break the run.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

perf = time.perf_counter

FAMILIES = {"DiscreteAtoms": "atoms", "GaussianMixture": "mixture",
            "GriddedDensity": "gridded"}
FAMILY_NAMES = ("atoms", "mixture", "gridded")

QUAD_METRICS = tuple(
    f"quadrature.{m}.{fam}" for m in
    ("calls", "self_s", "call_p50_ms", "call_p99_ms", "levels_per_call",
     "nodes", "useful_node_frac") for fam in FAMILY_NAMES) + (
    "quadrature.nonconvergence",)
SCALAR = ("scalar.calls", "scalar.self_s")
REPRESENT = ("represent.mmse_calls", "represent.self_s")
CT_SELF = ("ct.self_s",)
VECTOR_CHECK = ("vector.check_self_s",)
VECTOR_ENGINE = ("vector.engine_s", "vector.draws", "vector.ns_per_draw")

# (module, function, span name or special kind, metrics the hook feeds)
HOOKS = (
    ("quadrature", "integrate_output", "quadrature", QUAD_METRICS),
    ("scalar", "mmse", "scalar.mmse", SCALAR + ("represent.mmse_calls",)),
    ("scalar", "mutual_information", "scalar.mutual_information", SCALAR),
    ("scalar", "fisher_information", "scalar.fisher_information", SCALAR),
    ("scalar", "conditional_mean", "scalar.conditional_mean", SCALAR),
    ("scalar", "posterior_sample", "scalar.posterior_sample", SCALAR),
    ("scalar", "divergence_derivative", "scalar.divergence_derivative", SCALAR),
    ("represent", "entropy_via_mmse", "represent.entropy_via_mmse", REPRESENT),
    ("represent", "nongaussianness", "represent.nongaussianness", REPRESENT),
    ("represent", "differential_entropy_via_mmse",
     "represent.differential_entropy_via_mmse", REPRESENT),
    ("represent", "mi_via_mmse_difference", "represent.mi_via_mmse_difference",
     REPRESENT),
    ("represent", "gamma_index", "represent.gamma_index", REPRESENT),
    ("represent", "gamma_epi_check", "represent.gamma_epi_check", REPRESENT),
    ("ct", "_telegraph_paths", "synth", ("ct.synth_s", "ct.chunk_mb_computed",
                                         "ct.forward_s", "ct.backward_s")),
    ("ct", "_wonham_step", "step", ("ct.step_calls", "ct.forward_s",
                                    "ct.backward_s")),
    ("ct", "yao_smoother", "ct.combine", ("ct.combine_s", "ct.backward_s")),
    ("ct", "wonham_ensemble", "ct.wonham_ensemble", CT_SELF),
    ("ct", "wonham_filter", "ct.wonham_filter", CT_SELF),
    ("ct", "simulate_telegraph", "ct.simulate_telegraph", CT_SELF),
    ("ct", "telegraph_cmmse", "ct.telegraph_cmmse", CT_SELF),
    ("ct", "telegraph_mmse", "ct.telegraph_mmse", CT_SELF),
    ("vector", "_atom_mc_sweep", "engine", VECTOR_ENGINE),
    ("vector", "atom_mi", "vector.atom_mi", VECTOR_CHECK),
    ("vector", "atom_mmse", "vector.atom_mmse", VECTOR_CHECK),
    ("vector", "fisher_matrix", "vector.fisher_matrix", VECTOR_CHECK),
    ("vector", "de_bruijn_check", "vector.de_bruijn_check", VECTOR_CHECK),
    ("vector", "multiuser_derivative", "vector.multiuser_derivative",
     VECTOR_CHECK),
    ("cli", "main", "cli.main", ("cli.self_s",)),
    ("laws", "moments", "laws.moments", ("laws.self_s",)),
    ("laws", "variance", "laws.variance", ("laws.self_s",)),
    ("laws", "gaussian_components", "laws.gaussian_components", ("laws.self_s",)),
    ("laws", "convolve", "laws.convolve", ("laws.self_s",)),
    ("laws", "sample_with_rng", "laws.sample_with_rng", ("laws.self_s",)),
    ("dt", "kalman_triple", "dt.kalman_triple", ("dt.self_s",)),
    ("dt", "block_mi", "dt.block_mi", ("dt.self_s",)),
)

PHASES = ("ct.synth", "ct.forward", "ct.backward", "ct.combine")


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, run id]
        self.stack = []
        self.run_id = ""
        self.counts = defaultdict(float)
        self.quad = {}
        self.absent = set()
        self._represent_depth = 0
        self._fwd_left = 0         # forward step calls still expected
        self._phase = None         # index of the open forward/backward span
        self._phase_last = 0.0

    # -- spans -------------------------------------------------------------
    def begin(self, name, t=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf() if t is None else t, None, parent,
                           self.run_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx):
        while self.stack[-1] != idx:    # a phase opened inside this span
            self._close_phase()
        t = perf()
        self.stack.pop()
        self.spans[idx][2] = t
        if self._phase is not None and self.spans[idx][3] == self._phase:
            self._phase_last = t

    def _open_phase(self, name, t):
        if self._phase is not None:
            self._close_phase()
        self._phase = self.begin(name, t)

    def _close_phase(self):
        idx = self._phase
        if self.stack[-1] != idx:
            raise RuntimeError("unbalanced spans around a ct phase")
        self.stack.pop()
        self.spans[idx][2] = self._phase_last
        self._phase = None

    # -- wrappers ----------------------------------------------------------
    def span(self, name, fn):
        is_represent = name.startswith("represent.")
        is_mmse = name == "scalar.mmse"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_mmse and self._represent_depth:
                self.counts["represent.mmse_calls"] += 1
            self._represent_depth += is_represent
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                self._represent_depth -= is_represent
        return wrapper

    def quadrature(self, fn, gaussian_components, nonconvergence):
        @functools.wraps(fn)
        def wrapper(f, law, snr, *args, **kwargs):
            fam = FAMILIES.get(type(law).__name__, type(law).__name__.lower())
            sizes = []

            def counted(y):
                sizes.append(getattr(y, "size", 1))
                return f(y)

            idx = self.begin("quadrature." + fam)
            try:
                return fn(counted, law, snr, *args, **kwargs)
            except nonconvergence:
                self.counts["quadrature.nonconvergence"] += 1
                raise
            finally:
                self.end(idx)
                comps = gaussian_components(law)
                n_comp = 1 if comps is None else max(int((comps[0] != 0).sum()), 1)
                useful = 0
                for size in reversed(sizes):
                    if size != sizes[-1]:
                        break
                    useful += size
                q = self.quad.setdefault(fam, {"ms": [], "levels": 0.0,
                                               "nodes": 0, "useful": 0})
                span = self.spans[idx]
                q["ms"].append((span[2] - span[1]) * 1e3)
                q["levels"] += len(sizes) / n_comp
                q["nodes"] += sum(sizes)
                q["useful"] += useful
        return wrapper

    def synth(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._phase is not None:
                self._close_phase()
            idx = self.begin("ct.synth")
            try:
                x_edges, dy = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self._fwd_left = dy.shape[-1]
            mb = (x_edges.nbytes + dy.nbytes) / 1e6
            self.counts["ct.chunk_mb_computed"] = max(
                self.counts["ct.chunk_mb_computed"], mb)
            return x_edges, dy
        return wrapper

    def step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            out = fn(*args, **kwargs)
            t1 = perf()
            self.counts["ct.step_calls"] += 1
            if self._fwd_left > 0:
                if self._phase is None or self.spans[self._phase][0] != "ct.forward":
                    self._open_phase("ct.forward", t0)
                self._phase_last = t1
                self._fwd_left -= 1
                if self._fwd_left == 0:
                    self._close_phase()
            else:
                if self._phase is None:
                    self._open_phase("ct.backward", t0)
                self._phase_last = t1
            return out
        return wrapper

    def engine(self, fn):
        @functools.wraps(fn)
        def wrapper(model, mc, *args, **kwargs):
            self.counts["vector.draws"] += mc.n_paths
            idx = self.begin("vector.engine")
            try:
                return fn(model, mc, *args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    # -- results -----------------------------------------------------------
    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                rec = dict(zip(keys, span))
                rec["id"] = i
                f.write(json.dumps(rec) + "\n")

    def metrics(self, passes):
        """Per-layer metrics for one pass of the workload's fixed job."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        counts = defaultdict(int)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            layer = name.split(".")[0]
            if name.startswith("quadrature."):
                key = "quadrature.self_s." + name.split(".", 1)[1]
            elif name in PHASES:
                key = name + "_s"
            elif name == "vector.engine":
                key = "vector.engine_s"
            elif layer == "vector":
                key = "vector.check_self_s"
            elif layer in ("scalar", "represent", "ct", "cli", "laws", "dt"):
                key = layer + ".self_s"
            else:
                continue
            self_s[key] += own
            counts[layer] += 1
        per = 1.0 / passes
        out = {}
        for name in ("scalar.self_s", "represent.self_s", "ct.synth_s",
                     "ct.forward_s", "ct.backward_s", "ct.combine_s",
                     "ct.self_s", "vector.engine_s", "vector.check_self_s",
                     "cli.self_s", "laws.self_s", "dt.self_s"):
            out[name] = self_s[name] * per
        out["scalar.calls"] = counts["scalar"] * per
        out["represent.mmse_calls"] = self.counts["represent.mmse_calls"] * per
        out["ct.step_calls"] = self.counts["ct.step_calls"] * per
        out["ct.chunk_mb_computed"] = self.counts["ct.chunk_mb_computed"]
        draws = self.counts["vector.draws"]
        out["vector.draws"] = draws * per
        out["vector.ns_per_draw"] = (self_s["vector.engine_s"] / draws * 1e9
                                     if draws else 0.0)
        out["quadrature.nonconvergence"] = (
            self.counts["quadrature.nonconvergence"] * per)
        for fam in FAMILY_NAMES:
            q = self.quad.get(fam)
            ms = sorted(q["ms"]) if q else []
            n = len(ms)
            out[f"quadrature.calls.{fam}"] = n * per
            out[f"quadrature.self_s.{fam}"] = self_s["quadrature.self_s." + fam] * per
            out[f"quadrature.call_p50_ms.{fam}"] = _quantile(ms, 0.50)
            out[f"quadrature.call_p99_ms.{fam}"] = _quantile(ms, 0.99)
            out[f"quadrature.levels_per_call.{fam}"] = q["levels"] / n if n else 0.0
            out[f"quadrature.nodes.{fam}"] = q["nodes"] * per if n else 0.0
            out[f"quadrature.useful_node_frac.{fam}"] = (
                q["useful"] / q["nodes"] if n and q["nodes"] else 0.0)
        for name in self.absent:
            out.pop(name, None)
        return out


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0 when the layer made no calls."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def install(package):
    """Wrap the hooked immse functions; return the Tracer that records them."""
    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == package or name.startswith(package + ".")]
    errors = sys.modules[package + ".errors"]
    laws = sys.modules[package + ".laws"]
    components = laws.gaussian_components   # unwrapped, for counting only
    for mod_name, attr, kind, feeds in HOOKS:
        mod = sys.modules.get(f"{package}.{mod_name}")
        original = getattr(mod, attr, None) if mod else None
        if not callable(original):
            tracer.absent.update(feeds)
            continue
        if kind == "quadrature":
            wrapped = tracer.quadrature(original, components,
                                        errors.NonConvergence)
        elif kind in ("synth", "step", "engine"):
            wrapped = getattr(tracer, kind)(original)
        else:
            wrapped = tracer.span(kind, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)
    return tracer
