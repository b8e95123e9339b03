"""Wrappers installed on fblab and scipy from the benchmark's side.

fblab modules import each other's functions by name, so a wrapper must
replace every module binding of a function to see all of its calls.
:class:`Patches` does that and puts the originals back.

:class:`Capture` records the inputs and outputs of fblab's estimators so
the benchmark can check them afterwards; it is on in every run.
:class:`Tracer` adds per-layer counts and self times (span minus child
spans); it is on only for the traced task runs of ``--trace 1``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

import scipy.optimize

import fblab
import fblab.exprs
import fblab.extension
import fblab.fbl
import fblab.operators
import fblab.spaces
import fblab.summing


class Patches:
    """Replace every module binding of a function; undo in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, name: str, make, skip=()) -> None:
        """Bind make(original) in place of module.name wherever fblab (or
        scipy.optimize) holds the same object, except in ``skip``."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name in skip:
                continue
            if not (mod_name == "fblab" or mod_name.startswith("fblab.") or mod_name == "scipy.optimize"):
                continue
            if mod.__dict__.get(name) is original:
                self._undo.append((mod, name, original))
                setattr(mod, name, wrapper)

    def replace_attr(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# --------------------------------------------------------------------------
# output capture
# --------------------------------------------------------------------------


@dataclass
class Call:
    kind: str
    args: dict
    result: object
    depth: int  # 0 for a call not made from inside another captured call


_CAPTURED = (
    (fblab.fbl, "fbl_norm"),
    (fblab.fbl, "fbl_infty_norm"),
    (fblab.fbl, "moduli_norm"),
    (fblab.summing, "pi_q1_lower"),
    (fblab.extension, "extension_constant"),
    (fblab.extension, "embedding_gap"),
)


class Capture:
    """Record every call of fblab's public estimators with its result."""

    def __init__(self) -> None:
        self.calls: list[Call] = []
        self._depth = 0

    def install(self, patches: Patches) -> None:
        for module, name in _CAPTURED:
            patches.wrap(module, name, lambda fn, kind=name: self._recorder(kind, fn))

    def _recorder(self, kind: str, fn):
        signature = inspect.signature(fn)

        def recorded(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth = depth
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls.append(Call(kind, dict(bound.arguments), result, depth))
            return result

        return recorded

    def take(self) -> list[Call]:
        calls, self.calls = self.calls, []
        return calls


# --------------------------------------------------------------------------
# per-layer tracing
# --------------------------------------------------------------------------

_WEAK_PATHS = {
    "sign enumeration": "sign_enum",
    "cross-polytope enumeration": "cross_polytope",
    "cube-vertex enumeration": "cube",
    "weak-inf closed form": "closed_inf",
    "multistart lower": "heuristic",
}

_OPERATOR_PATHS = {"extreme-point enumeration": "enum_calls", "multistart ascent": "ascent_calls"}

_SOLVERS = {"Powell": "scipy.powell", "Nelder-Mead": "scipy.nelder_mead"}

# the per-layer metrics and their units, in the order they are reported
METRICS = {
    "exprs.eval_rows.calls": "count",
    "exprs.eval_rows.rows": "count",
    "exprs.eval_rows.self_s": "s",
    "exprs.bounds.self_s": "s",
    "exprs.binding_matrix.calls": "count",
    "summing.weak_p_norm.calls": "count",
    "summing.weak_p_norm.self_s": "s",
    "summing.weak.sign_enum.calls": "count",
    "summing.weak.sign_enum.self_s": "s",
    "summing.weak.cross_polytope.calls": "count",
    "summing.weak.cube.calls": "count",
    "summing.weak.cube.self_s": "s",
    "summing.weak.closed_inf.calls": "count",
    "summing.weak.heuristic.calls": "count",
    "summing.weak.heuristic.self_s": "s",
    "summing.weak_crude.calls": "count",
    "summing.witness_search.calls": "count",
    "summing.witness_search.self_s": "s",
    "summing.witness_search.tight_wins": "count",
    "summing.pi_lower.calls": "count",
    "summing.pi_lower.self_s": "s",
    "operators.operator_norm.calls": "count",
    "operators.operator_norm.self_s": "s",
    "operators.operator_norm.enum_calls": "count",
    "operators.operator_norm.ascent_calls": "count",
    "spaces.extreme_points.rows": "count",
    "spaces.extreme_points.peak_bytes": "bytes",
    "fbl.fbl_norm.calls": "count",
    "fbl.fbl_norm.self_s": "s",
    "fbl.fbl_infty_norm.calls": "count",
    "fbl.fbl_infty_norm.self_s": "s",
    "fbl.moduli_norm.calls": "count",
    "extension.extension_constant.calls": "count",
    "extension.extension_constant.self_s": "s",
    "extension.embedding_gap.calls": "count",
    "extension.embedding_gap.self_s": "s",
    "scipy.linprog.calls": "count",
    "scipy.linprog.self_s": "s",
    "scipy.powell.calls": "count",
    "scipy.powell.nfev": "count",
    "scipy.powell.self_s": "s",
    "scipy.nelder_mead.calls": "count",
    "scipy.nelder_mead.nfev": "count",
    "scipy.nelder_mead.self_s": "s",
}


class Tracer:
    """Counts and self times at the boundaries of fblab's layers."""

    def __init__(self) -> None:
        self.values: Counter = Counter()
        self._child_time: list[float] = []

    def install(self, patches: Patches) -> None:
        span, count = self._span, self._count
        patches.wrap(fblab.exprs, "eval_rows", lambda fn: span(fn, "exprs.eval_rows", self._rows))
        # mass_bound and lipschitz_bound recurse through their own module
        # binding; wrapping that binding would trace every node
        for name in ("mass_bound", "lipschitz_bound"):
            patches.wrap(fblab.exprs, name, lambda fn: span(fn, "exprs.bounds"), skip=("fblab.exprs",))
        matrix = fblab.exprs.GeneratorBinding.__dict__["matrix"]

        def counted_matrix(binding):
            self.values["exprs.binding_matrix.calls"] += 1
            return matrix.fget(binding)

        patches.replace_attr(fblab.exprs.GeneratorBinding, "matrix", property(counted_matrix))

        patches.wrap(fblab.summing, "weak_p_norm", lambda fn: span(fn, "summing.weak_p_norm", self._weak_path))
        patches.wrap(fblab.summing, "_weak_crude_upper", lambda fn: count(fn, "summing.weak_crude"))
        patches.wrap(fblab.summing, "witness_search", lambda fn: span(fn, "summing.witness_search", self._tight))
        for name in ("pi_p_lower", "pi_q1_lower"):
            patches.wrap(fblab.summing, name, lambda fn: span(fn, "summing.pi_lower"))
        patches.wrap(fblab.operators, "operator_norm", lambda fn: span(fn, "operators.operator_norm", self._operator_path))
        patches.wrap(fblab.spaces, "extreme_points_matrix", lambda fn: count(fn, "spaces.extreme_points", self._points))
        patches.wrap(fblab.fbl, "fbl_norm", lambda fn: span(fn, "fbl.fbl_norm"))
        patches.wrap(fblab.fbl, "fbl_infty_norm", lambda fn: span(fn, "fbl.fbl_infty_norm"))
        patches.wrap(fblab.fbl, "moduli_norm", lambda fn: count(fn, "fbl.moduli_norm"))
        patches.wrap(fblab.extension, "extension_constant", lambda fn: span(fn, "extension.extension_constant"))
        patches.wrap(fblab.extension, "embedding_gap", lambda fn: span(fn, "extension.embedding_gap"))
        # fblab imports the solvers inside its functions, at call time
        patches.wrap(scipy.optimize, "linprog", lambda fn: span(fn, "scipy.linprog"))
        patches.wrap(scipy.optimize, "minimize", self._minimize)

    def metrics(self) -> dict[str, float]:
        return {name: float(self.values[name]) for name in METRICS}

    # -- wrapper factories -------------------------------------------------

    def _count(self, fn, name: str, observe=None):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.values[name + ".calls"] += 1
            if observe is not None:
                observe(name, result, 0.0)
            return result

        return counted

    def _span(self, fn, name: str, observe=None):
        stack = self._child_time

        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.values[name + ".calls"] += 1
                self.values[name + ".self_s"] += own
            if observe is not None:
                observe(name, result, own)
            return result

        return spanned

    def _minimize(self, fn):
        spans = {method: self._span(fn, name, self._nfev) for method, name in _SOLVERS.items()}

        def minimize(*args, **kwargs):
            return spans.get(kwargs.get("method"), fn)(*args, **kwargs)

        return minimize

    # -- observers ---------------------------------------------------------

    def _rows(self, name, result, own):
        self.values[name + ".rows"] += len(result)

    def _weak_path(self, name, result, own):
        path = _WEAK_PATHS.get(result.method[0], "other")
        self.values[f"summing.weak.{path}.calls"] += 1
        self.values[f"summing.weak.{path}.self_s"] += own

    def _tight(self, name, result, own):
        self.values[name + ".tight_wins"] += int(bool(result[2]))

    def _operator_path(self, name, result, own):
        self.values[name + "." + _OPERATOR_PATHS.get(result.method[0], "other_calls")] += 1

    def _points(self, name, result, own):
        self.values[name + ".rows"] += result.shape[0]
        peak = name + ".peak_bytes"
        self.values[peak] = max(self.values[peak], result.nbytes)

    def _nfev(self, name, result, own):
        self.values[name + ".nfev"] += int(result.nfev)
