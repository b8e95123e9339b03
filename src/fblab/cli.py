"""Command-line entry point.

Subcommands:

* ``norm`` — free-lattice norm of a DSL expression over a bound space;
* ``summing`` — p-summing (or (q,1)-summing) norm estimate of a map;
* ``extend`` — minimal-extension constant of an operator from a subspace;
* ``experiment`` — run a named catalog experiment and emit its report;
* ``list`` — print the experiment catalog.

Exit codes: 0 success, 1 input error (bad flags, files, DSL or JSON),
2 internal failure, 3 experiment ran but an embedded acceptance rule
failed.  Identical invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .estimates import NormEstimate
from .experiments import experiment_names, growth_data, report_to_csv, report_to_json, run_experiment
from .exprs import GeneratorBinding, max_generator_index, parse_expr
from .extension import extension_constant
from .fbl import fbl_norm
from .operators import map_from_json
from .optimize import OptimizerConfig
from .spaces import space_from_json, subspace_from_json
from .summing import pi_1_exact_Linfty_domain, pi_p_lower, pi_q1_lower

__all__ = ["main"]


class InputError(Exception):
    """A problem with the invocation, not with the mathematics."""


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "+inf"):
        return math.inf
    try:
        p = float(text)
    except ValueError:
        raise InputError(f"field p: expected a number or 'inf', got {text!r}")
    if p < 1:
        raise InputError(f"field p: must be >= 1, got {p}")
    return p


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise InputError(f"field {what}: cannot read {path}: {ex.strerror}")
    except json.JSONDecodeError as ex:
        raise InputError(f"field {what}: {path} is not valid JSON ({ex.msg})")


def _default_seed() -> int:
    raw = os.environ.get("FBLAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"field FBLAB_SEED: expected an integer, got {raw!r}")


def _config(args) -> OptimizerConfig:
    kwargs = {"seed": args.seed}
    if getattr(args, "restarts", None) is not None:
        kwargs["restarts"] = args.restarts
    try:
        return OptimizerConfig(**kwargs)
    except ValueError as ex:
        raise InputError(f"field optimizer config: {ex}")


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _estimate_text(est: NormEstimate, fmt: str) -> str:
    if fmt == "csv":
        upper = "" if math.isinf(est.upper) else repr(est.upper)
        return (
            "lower,upper,lower_certified,upper_certified,method\n"
            f"{est.lower!r},{upper},{str(est.lower_certified).lower()},"
            f"{str(est.upper_certified).lower()},"
            f"\"{'; '.join(est.method)}\"\n"
        )
    return json.dumps(est.to_json(), indent=2, sort_keys=True)


def _cmd_norm(args) -> int:
    try:
        expr = parse_expr(args.expr)
    except ValueError as ex:
        raise InputError(f"field expr: {ex}")
    space = space_from_json(_load_json(args.space, "space"))
    if args.binding:
        binding = GeneratorBinding.from_json(_load_json(args.binding, "binding"))
        if binding.space != space:
            raise InputError("field binding: binding space differs from --space")
    else:
        binding = GeneratorBinding.from_matrix(space, np.eye(space.dim))
    if max_generator_index(expr) >= binding.count:
        raise InputError(
            f"field expr: uses generator d{max_generator_index(expr)} but the "
            f"binding provides only {binding.count} vectors"
        )
    est = fbl_norm(expr, binding, _parse_p(args.p), _config(args))
    _emit(_estimate_text(est, args.format), args.output)
    return 0


def _cmd_summing(args) -> int:
    T = map_from_json(_load_json(args.map, "map"))
    p = _parse_p(args.p)
    cfg = _config(args)
    if args.q1:
        est = pi_q1_lower(T, p, cfg)
    elif p != 1:
        est = pi_p_lower(T, p, cfg)
    else:
        try:
            val = pi_1_exact_Linfty_domain(T)
        except ValueError:  # no sup-norm domain or no plain ell_1 codomain
            est = pi_p_lower(T, p, cfg)
        else:
            est = NormEstimate(val, val, True, True, method=("1-summing closed form",))
    _emit(_estimate_text(est, args.format), args.output)
    return 0


def _cmd_extend(args) -> int:
    sub = subspace_from_json(_load_json(args.subspace, "subspace"))
    T = map_from_json(_load_json(args.map, "map"))
    est = extension_constant(sub, T, _parse_p(args.p), _config(args))
    _emit(_estimate_text(est, args.format), args.output)
    return 0


def _parse_params(items: list[str]) -> dict:
    params: dict = {}
    for item in items:
        if "=" not in item:
            raise InputError(f"field params: expected KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        if "," in raw:
            params[key] = tuple(_parse_scalar(v) for v in raw.split(","))
        else:
            params[key] = _parse_scalar(raw)
    return params


def _parse_scalar(raw: str):
    if raw.lower() in ("inf", "infinity"):
        return math.inf
    try:
        f = float(raw)
    except ValueError:
        return raw
    return int(f) if f == int(f) and "." not in raw and "e" not in raw.lower() else f


def _cmd_experiment(args) -> int:
    try:
        report = run_experiment(
            args.name, _parse_params(args.params), args.seed, _config(args)
        )
    except KeyError as ex:
        raise InputError(f"field name: {ex.args[0]}")
    except (ValueError, OverflowError) as ex:  # OverflowError: int() of an infinity
        raise InputError(f"field params: {ex}")
    text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
    _emit(text, args.output)
    if args.growth_data:
        with open(args.growth_data, "w") as fh:
            fh.write(growth_data(report))
    return 0 if report.passed else 3


def _cmd_list(args) -> int:
    for name in experiment_names():
        sys.stdout.write(name + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblab",
        description="norm laboratory for free p-convex Banach lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_p=True):
        if with_p:
            sp.add_argument("--p", required=True, help="exponent, a number or 'inf'")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--restarts", type=int, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write to file instead of stdout")

    sp = sub.add_parser("norm", help="free-lattice norm of a DSL expression")
    sp.add_argument("--space", required=True, help="space JSON file")
    sp.add_argument("--binding", default=None, help="binding JSON file (default: unit basis)")
    sp.add_argument("--expr", required=True, help="expression DSL, e.g. 'abs(d0)+abs(d1)'")
    common(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("summing", help="summing-norm estimate of a linear map")
    sp.add_argument("--map", required=True, help="linear map JSON file")
    sp.add_argument("--q1", action="store_true", help="estimate the (q,1)-summing norm")
    common(sp)
    sp.set_defaults(func=_cmd_summing)

    sp = sub.add_parser("extend", help="minimal-extension constant from a subspace")
    sp.add_argument("--subspace", required=True, help="subspace JSON file")
    sp.add_argument("--map", required=True, help="operator JSON file (domain = subspace)")
    common(sp)
    sp.set_defaults(func=_cmd_extend)

    sp = sub.add_parser("experiment", help="run a catalog experiment")
    sp.add_argument("--name", required=True)
    sp.add_argument("--params", nargs="*", default=[], metavar="K=V")
    sp.add_argument("--growth-data", default=None, help="also write gnuplot data here")
    common(sp, with_p=False)
    sp.set_defaults(func=_cmd_experiment)

    sp = sub.add_parser("list", help="print the experiment catalog")
    sp.set_defaults(func=_cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on bad flags; that is an input error here
        return 0 if ex.code == 0 else 1
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        try:
            args.seed = _default_seed()
        except InputError as ex:
            sys.stderr.write(f"error: {ex}\n")
            return 1
    try:
        return args.func(args)
    except (InputError, ValueError, KeyError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 1
    except Exception as ex:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {type(ex).__name__}: {ex}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
