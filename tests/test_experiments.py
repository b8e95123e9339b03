"""Experiment catalog: constructions, reports, reproducibility."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from fblab import (
    OptimizerConfig,
    experiment_names,
    growth_data,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from fblab.experiments import (
    haar_function,
    haar_system,
    hilbert_matrix,
    rademacher_matrix,
    summing_basis_matrix,
)

CFG = OptimizerConfig(restarts=8)


def test_haar_system_shape_and_normalization():
    H = haar_system(3)
    assert H.shape == (8, 8)
    # every non-constant row integrates to zero and has L_1 norm one
    for row in H[1:]:
        assert np.sum(row) == 0.0
        assert np.mean(np.abs(row)) == pytest.approx(1.0)
    # rows are orthogonal in L_2 of the uniform measure
    G = H @ H.T / 8.0
    assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-12
    with pytest.raises(ValueError):
        haar_function(3, 0, 4)


def test_rademacher_matrix_is_orthogonal_signs():
    R = rademacher_matrix(3)
    assert R.shape == (3, 8)
    assert np.all(np.abs(R) == 1.0)
    assert np.array_equal(R @ R.T, 8.0 * np.eye(3))


def test_summing_and_hilbert_matrices():
    S = summing_basis_matrix(4)
    assert np.array_equal(S, np.tril(np.ones((4, 4))))
    H = hilbert_matrix(4)
    # zero anti-diagonal, antisymmetric under i+j reflection
    for i in range(4):
        assert H[i, 3 - i] == 0.0
    assert H[0, 0] == pytest.approx(1.0 / 3.0)
    assert H[3, 3] == pytest.approx(-1.0 / 3.0)


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("no-such-experiment", {}, 0, CFG)
    names = experiment_names()
    assert names == sorted(names)
    assert "unconditionality-sqrt2" in names
    assert len(names) == 15


def test_unconditionality_experiment_values():
    rep = run_experiment("unconditionality-sqrt2", {}, 0, CFG)
    assert rep.passed
    by_name = {r.quantity: r for r in rep.records}
    assert by_name["sum_of_moduli"].lower == pytest.approx(2.0, abs=1e-3)
    assert by_name["difference_of_moduli"].lower == pytest.approx(2**0.5, abs=1e-2)


def test_haar_level_rejects_bad_params():
    with pytest.raises(ValueError):
        run_experiment("haar-level", {"n": 9}, 0, CFG)
    with pytest.raises(ValueError):
        run_experiment("haar-level", {"n": 2, "a": (1.0, 2.0)}, 0, CFG)


@pytest.mark.parametrize(
    "name, params",
    [
        ("poe-constants", {"trials": 0}),
        ("poe-constants", {"trials": 51}),
        ("sublattice-isometry", {"trials": -2}),
        ("sublattice-isometry", {"trials": 0}),
        ("sublattice-isometry", {"k": 1}),
        ("sublattice-isometry", {"k": 9, "trunc": 24}),
        ("sublattice-isometry", {"trunc": 3}),
        ("sublattice-isometry", {"trunc": 25}),
        ("lower2-ell1", {"m": 0}),
        ("lower2-ell1", {"m": 65}),
        ("lower2-ell1", {"atoms": 1}),
        ("lower2-ell1", {"atoms": 1025}),
    ],
)
def test_experiment_sizes_are_range_checked(name, params):
    """An empty run once passed its rules with certified numbers, and a
    large size set the work without bound."""
    with pytest.raises(ValueError, match=f"^{name} requires"):
        run_experiment(name, params, 0, CFG)


def test_report_serialization_is_reproducible():
    """Identical (name, params, seed) give identical bytes, regardless of
    the wall clock of the run."""
    a = run_experiment("haar-level", {"n": 2}, seed=7, cfg=CFG)
    b = run_experiment("haar-level", {"n": 2}, seed=7, cfg=CFG)
    assert a.wall_clock != b.wall_clock or True  # wall clock may differ
    assert report_to_json(a) == report_to_json(b)
    assert report_to_csv(a) == report_to_csv(b)
    payload = json.loads(report_to_json(a))
    assert "wall_clock" not in payload
    assert payload["seed"] == 7
    assert payload["passed"] is True


def test_csv_header_and_quoting():
    rep = run_experiment("haar-branch", {"depth": 2}, 0, CFG)
    text = report_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,quantity,lower,upper,certified,claim,pass"
    assert len(lines) == 1 + len(rep.records)
    # rows parse back to exactly seven cells even when claims carry commas
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(row) == 7 for row in rows)
    assert rows[1][0] == "haar-branch"


def test_growth_data_extracts_sizes():
    rep = run_experiment("haar-level", {"n": 3}, 0, CFG)
    data = growth_data(rep)
    assert data.startswith("3 ")
    rep2 = run_experiment("unconditionality-sqrt2", {}, 0, CFG)
    assert growth_data(rep2) == ""  # no size-parametrized quantities


def test_seed_changes_random_instances_not_validity():
    r1 = run_experiment("haar-branch", {"depth": 3}, seed=1, cfg=CFG)
    r2 = run_experiment("haar-branch", {"depth": 3}, seed=2, cfg=CFG)
    assert r1.passed and r2.passed
    assert r1.records[0].lower != r2.records[0].lower  # coefficients differ


_GOLDEN = Path(__file__).parent / "golden" / "catalog_seed0.json"


@pytest.mark.parametrize("name", experiment_names())
def test_catalog_matches_golden_snapshot(name):
    """The seed-0 report of every experiment is byte-identical to the
    committed snapshot.  Regenerate the snapshot (and explain the diff in
    CHANGES.md) from the repository root with

        PYTHONPATH=src python -c "import json; from fblab import *; \\
        print(json.dumps({n: json.loads(report_to_json(run_experiment(n, seed=0))) \\
        for n in experiment_names()}, indent=2, sort_keys=True))" \\
        > tests/golden/catalog_seed0.json
    """
    golden = json.loads(_GOLDEN.read_text())
    expected = json.dumps(golden[name], indent=2, sort_keys=True)
    assert report_to_json(run_experiment(name, seed=0)) == expected
