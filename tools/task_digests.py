#!/usr/bin/env python3
"""Digests of the benchmark's task results, to compare two checkouts.

    python3 tools/task_digests.py --seeds 0 404
    python3 tools/task_digests.py --checkout ../parent --seeds 0 404

For each workload of ``bench/workloads.py`` and each seed it builds the
task list and runs every task once, importing fblab from the checkout's
``src/``.  It prints one line per task, ``workload seed task sha256``: the
SHA-256 of the task's result as JSON (its ``to_json()``, which leaves an
experiment report's wall clock out), or of the error the task raised,
followed by the result's ``lower`` and ``upper`` where its JSON has them, so
a diff shows which bounds moved and which way.
Then it prints one line ``catalog seed name sha256`` per experiment of
``experiment_names()`` and seed, of ``run_experiment(name, seed=seed)``.
Two checkouts that print the same lines give every task and experiment
the same lower and upper bounds, flags, methods and witness bytes.
"""

import os

# one BLAS thread, as bench/run.py runs its tasks
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def digest(run) -> str:
    """The sha256 of the result's JSON, then its lower and upper bounds
    where it has them (an upper of None is infinite)."""
    try:
        result = run()
    except Exception as ex:  # a failing task is part of the output
        data = {"error": f"{type(ex).__name__}: {ex}"}
    else:
        data = result.to_json()
    line = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    if "lower" in data and "upper" in data:
        line += f" {data['lower']!r} {data['upper']!r}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from fblab import experiment_names, run_experiment

    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            for task in workloads.WORKLOADS[name](seed):
                print(name, seed, task.name, digest(task.run), flush=True)
    for name in experiment_names():
        for seed in args.seeds:
            print("catalog", seed, name, digest(lambda: run_experiment(name, seed=seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
