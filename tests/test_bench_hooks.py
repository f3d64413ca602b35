"""The benchmark's span hooks name functions that exist in immse."""
import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    # executed from its source, leaving no bytecode cache beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves(monkeypatch):
    # a hook whose target is gone drops the metrics it feeds without an
    # error, and install() reads laws.gaussian_components and
    # errors.NonConvergence without a guard
    hooks = _load_spans(monkeypatch).HOOKS
    assert hooks
    targets = [(mod, attr) for mod, attr, _, _ in hooks]
    targets += [("laws", "gaussian_components"), ("errors", "NonConvergence")]
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(f"immse.{mod}"),
                                       attr, None))]
    assert not missing
