"""The benchmark's trace hooks (bench/layers.py) still bind to fblab.

``--trace 1`` wraps library functions looked up by name, so a refactor
that renames or drops one of them breaks the trace.  This installs the
benchmark's wrappers, runs one small norm of each kind through the
package, and checks that the counters moved and the originals came back.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

import fblab
import fblab.summing
from fblab import Abs, Gen, GeneratorBinding, LinearMap, OptimizerConfig, SpaceSpec

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers(monkeypatch):
    """bench/layers.py as a module (registered while the test runs, as its
    dataclasses need)."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_bind_count_and_restore(monkeypatch):
    layers = _load_layers(monkeypatch)
    originals = [
        (fblab, "fbl_norm"),
        (fblab, "operator_norm"),
        (fblab.summing, "witness_search"),
        (fblab.summing, "_weak_crude_upper"),
        (scipy.optimize, "minimize"),
    ]
    before = [getattr(owner, name) for owner, name in originals]
    matrix = GeneratorBinding.__dict__["matrix"]

    patches = layers.Patches()
    capture, tracer = layers.Capture(), layers.Tracer()
    capture.install(patches)
    tracer.install(patches)
    try:
        b = GeneratorBinding.from_matrix(SpaceSpec(math.inf, 3), np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -1.0]]))
        fblab.fbl_norm(Abs(Gen(0)) + Abs(Gen(1)), b, 1.0, OptimizerConfig(restarts=2))
        A = np.array([[1.0, -2.0], [0.5, 1.0]])
        est = fblab.operator_norm(LinearMap.from_array(A, SpaceSpec(math.inf, 2), SpaceSpec(2.0, 2)))
        metrics = tracer.metrics()
        calls = capture.take()
    finally:
        patches.restore()

    assert est.method == ("extreme-point enumeration",)
    assert metrics["fbl.fbl_norm.calls"] == 1
    assert metrics["summing.witness_search.calls"] == 1
    assert metrics["exprs.eval_rows.calls"] > 0 and metrics["exprs.eval_rows.rows"] > 0
    assert metrics["exprs.binding_matrix.calls"] > 0
    assert metrics["operators.operator_norm.calls"] == 1
    assert metrics["operators.operator_norm.enum_calls"] == 1
    assert [call.kind for call in calls] == ["fbl_norm"]
    assert set(metrics) == set(layers.METRICS)

    assert [getattr(owner, name) for owner, name in originals] == before
    assert GeneratorBinding.__dict__["matrix"] is matrix
