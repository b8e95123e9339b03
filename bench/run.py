#!/usr/bin/env python3
"""Benchmark of fblab: three workloads, end-to-end metrics, checked outputs.

    python3 bench/run.py --workload fbl-witness --seed 0 --seconds 10 --trace 0

Run from the repository root; fblab is imported from ./src.  The workload
runs whole rounds of its task list, one task at a time in this process,
until another round would overrun --seconds (at least one round).  Every
half second it times a fixed piece of reference work (bench/speed.py) off
the task clock, and it reports its times scaled to the reference speed,
since the shared host's speed drifts.  Every output is checked by
bench/checks.py.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 runs each task once untraced and once traced and
reports the per-layer metrics.  Details of the run are written
to bench/out/.
"""

import os

# one BLAS thread: set before numpy is first imported, inherited by the
# set-up children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("fbl-witness", "subspace-extension", "dual-closed-form")
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "lower_score": "1", "gap_ratio": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    """Import fblab from this checkout's src/, or exit without a result."""
    if not (SRC / "fblab" / "__init__.py").is_file():
        sys.exit(f"bench: no fblab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fblab

    if Path(fblab.__file__).resolve().parent != (SRC / "fblab").resolve():
        sys.exit(f"bench: imported fblab from {fblab.__file__}, not from {SRC}")


def build(workload: str, seed: int):
    import scipy.optimize  # noqa: F401  (part of the measured set-up)
    import workloads

    return workloads.WORKLOADS[workload](seed)


def time_setup(args, gauge) -> list[float]:
    """Wall time of fresh interpreters that import and build the inputs,
    with samples of the reference work around each."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        gauge.sample()
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    gauge.sample()
    gauge.sample()
    return times


# --------------------------------------------------------------------------
# checks and scores of captured calls
# --------------------------------------------------------------------------


def check_call(call, seed: int) -> list[str]:
    a, res = call.args, call.result
    if call.kind == "fbl_norm":
        if math.isinf(a["p"]):
            return []  # delegated to fbl_infty_norm, captured and checked there
        return checks.check_witness(a["e"], a["b"], a["p"], res)
    if call.kind == "fbl_infty_norm":
        return checks.check_dual_sphere(a["e"], a["b"], res, seed)
    if call.kind == "moduli_norm":
        if a["p"] == 1 and a["E"].r == 1:
            return checks.check_moduli_l1(a["vectors"], a["coeffs"], a["E"], res.lower, res.upper, "moduli_norm")
        return []
    if call.kind == "pi_q1_lower":
        return checks.check_pi_q1(a["T"], a["q"], res)
    if call.kind == "extension_constant":
        return checks.check_extension(a["sub"], a["T"], a["p"], res)
    if call.kind == "embedding_gap":
        return checks.check_embedding_gap(a["sub"], a["e"], a["b"], a["p"], res)
    raise ValueError(f"no check for {call.kind}")


def scores(calls) -> tuple[list[float], list[float]]:
    """Per-estimate terms of lower_score (searched lower bound over a scale
    computed here) and gap_ratio (certified upper over lower)."""
    lows, gaps = [], []

    def mass(e, b):
        return checks.mass_scale(e, np.asarray(b.vectors), b.space.r, b.space.weights)

    def gap(est):
        if est.upper_certified and math.isfinite(est.upper) and est.lower > 0:
            gaps.append(est.upper / est.lower)

    for call in calls:
        if call.depth:
            continue
        a, res = call.args, call.result
        if call.kind in ("fbl_norm", "fbl_infty_norm"):
            if "witness search" in res.method or call.kind == "fbl_infty_norm" or math.isinf(a["p"]):
                lows.append(res.lower / mass(a["e"], a["b"]))
            gap(res)
        elif call.kind in ("moduli_norm", "extension_constant"):
            gap(res)
        elif call.kind == "pi_q1_lower":
            T = a["T"]
            cols = checks.lr_norm(np.asarray(T.matrix).T, T.codomain.r, T.codomain.weights)
            lows.append(res.lower / float(checks.lp_sum(cols, a["q"])))
        elif call.kind == "embedding_gap":
            lows.append(res.subspace_lower / mass(a["e"], a["b"]))
            gap(res.ambient)
    return lows, gaps


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(max(v, 1e-12)) for v in values))


# --------------------------------------------------------------------------
# rounds
# --------------------------------------------------------------------------


class Runner:
    """Runs tasks one at a time and checks their outputs after the clock stops."""

    def __init__(self, tasks, seed: int, gauge=None):
        from layers import Capture, Patches

        self.tasks = tasks
        self.seed = seed
        self.gauge = gauge
        self.patches = Patches()
        self.capture = Capture()
        self.capture.install(self.patches)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.calls: list = []  # captured calls, in order, for the scores
        self.task_seconds: dict[str, float] = {}

    def run(self, task) -> float:
        """Wall time of one task, less the reference work sampled inside it."""
        gauged = self.gauge.spent if self.gauge is not None else 0.0
        start = time.perf_counter()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        elapsed = time.perf_counter() - start
        if self.gauge is not None:
            elapsed -= self.gauge.spent - gauged
        self.task_seconds.setdefault(task.name, elapsed)
        self._pending.append((task, result, error, self.capture.take()))
        return elapsed

    def round(self) -> tuple[float, float]:
        """Wall time of one pass over the task list, and the machine's
        speed relative to the reference speed meanwhile."""
        self._pending = []
        first = len(self.gauge.samples)
        self.gauge.sample()
        elapsed = 0.0
        with self.gauge.ticking():
            for task in self.tasks:
                elapsed += self.run(task)
        self.gauge.sample()
        speed = self.gauge.speed(first)
        self._check()
        return elapsed, speed

    def traced_round(self) -> tuple[dict[str, float], float]:
        """Run each task untraced, then traced: the per-layer metrics of the
        traced runs, and the traced minus the untraced time.  Alternating
        task by task keeps slow drifts of the machine's speed out of the
        difference."""
        from layers import Patches, Tracer

        self._pending = []
        tracer = Tracer()
        overhead = 0.0
        for task in self.tasks:
            overhead -= self.run(task)
            patches = Patches()
            tracer.install(patches)
            try:
                overhead += self.run(task)
            finally:
                patches.restore()
        self._check()
        return tracer.metrics(), overhead

    def _check(self) -> None:
        for task, result, error, calls in self._pending:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.failures.append(f"{task.name}: {type(error).__name__}: {str(error)[:200]}")
            else:
                self.errors += [f"{task.name}: {msg}" for msg in task.check(result)]
            for call in calls:
                self.errors += [f"{task.name}: {msg}" for msg in check_call(call, self.seed)]
            self.calls += calls

    def close(self):
        self.patches.restore()


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.setup_only:
        build(args.workload, args.seed)
        return 0

    import speed

    setup_times: list[float] = []
    rounds: list[float] = []  # wall time of each round
    speeds: list[float] = []  # the machine's relative speed during each round
    if args.trace == 0:
        setup_gauge = speed.Gauge()
        setup_times = time_setup(args, setup_gauge)
    tasks = build(args.workload, args.seed)
    runner = Runner(tasks, args.seed, speed.Gauge() if args.trace == 0 else None)
    try:
        if args.trace == 0:
            while not rounds or sum(rounds) + statistics.median(rounds) <= args.seconds:
                elapsed, pace = runner.round()
                rounds.append(elapsed)
                speeds.append(pace)
        else:
            traced, overhead = runner.traced_round()
            traced["trace.overhead_s"] = overhead
    finally:
        runner.close()

    import layers

    if args.trace == 0:
        lows, gaps = scores(runner.calls)
        values = {
            "setup_s": statistics.median(setup_times) * setup_gauge.speed(),
            "run_s": statistics.median(t * k for t, k in zip(rounds, speeds)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "lower_score": geometric_mean(lows),
            "gap_ratio": geometric_mean(gaps),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        units = dict(layers.METRICS, **{"trace.overhead_s": "s"})
        metrics = {k: {"value": traced[k], "unit": units[k]} for k in units}

    for line in runner.failures:
        print(f"failed op: {line}", file=sys.stderr)
    for line in runner.errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        round_s=rounds,
        round_speed=speeds,
        setup_samples_s=setup_times,
        setup_speed=setup_gauge.speed() if setup_times else None,
        gauge_samples_s=runner.gauge.samples if runner.gauge is not None else [],
        task_s=runner.task_seconds,
        failures=runner.failures,
        check_errors=runner.errors,
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
