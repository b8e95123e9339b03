"""Command-line interface: exit codes, output formats, determinism."""

import json
import math

import numpy as np
import pytest

from fblab import (
    GeneratorBinding,
    LinearMap,
    SpaceSpec,
    SubspaceSpec,
    map_to_json,
    space_to_json,
    subspace_to_json,
)
from fblab.cli import main


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(SpaceSpec(2.0, 2))))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_norm_identity_binding(space_file, capsys):
    code, out = _run(
        capsys,
        ["norm", "--space", space_file, "--expr", "abs(d0)+abs(d1)", "--p", "1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(2.0, abs=1e-3)
    assert payload["upper"] == pytest.approx(2.0, abs=1e-9)
    assert payload["witness"] is not None


def test_norm_explicit_binding_and_output_file(tmp_path, space_file, capsys):
    binding = GeneratorBinding.from_matrix(SpaceSpec(2.0, 2), np.eye(2))
    bpath = tmp_path / "binding.json"
    bpath.write_text(json.dumps(binding.to_json()))
    opath = tmp_path / "out.json"
    code, out = _run(
        capsys,
        [
            "norm", "--space", space_file, "--binding", str(bpath),
            "--expr", "abs(d0)", "--p", "2", "--output", str(opath),
        ],
    )
    assert code == 0 and out == ""
    assert json.loads(opath.read_text())["lower"] == pytest.approx(1.0, abs=1e-6)


def test_norm_input_errors(space_file, capsys, tmp_path):
    # malformed DSL
    assert main(["norm", "--space", space_file, "--expr", "abs(", "--p", "1"]) == 1
    # unbound generator
    assert main(["norm", "--space", space_file, "--expr", "abs(d7)", "--p", "1"]) == 1
    # nesting beyond the parser's fixed limit
    deep = "abs(" * 400 + "d0" + ")" * 400
    assert main(["norm", "--space", space_file, "--expr", deep, "--p", "1"]) == 1
    assert "field expr: expression nests deeper" in capsys.readouterr().err
    # bad p
    assert main(["norm", "--space", space_file, "--expr", "abs(d0)", "--p", "0.3"]) == 1
    # missing file
    assert main(["norm", "--space", str(tmp_path / "nope.json"),
                 "--expr", "abs(d0)", "--p", "1"]) == 1
    # bad flags (argparse) map to exit 1
    assert main(["norm", "--expr", "abs(d0)"]) == 1
    capsys.readouterr()


def test_norm_p_inf_convex_is_exact_and_draws_nothing(tmp_path, capsys):
    """abs(d0)+abs(d3) over ell_2^5 is convex: its p = inf norm is sqrt 2,
    certified, and the seed changes no byte of the report."""
    spath = tmp_path / "space.json"
    spath.write_text(json.dumps(space_to_json(SpaceSpec(2.0, 5))))
    argv = ["norm", "--space", str(spath), "--expr", "abs(d0)+abs(d3)", "--p", "inf"]
    code, out = _run(capsys, argv + ["--seed", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_certified"] is True
    assert payload["lower"] == payload["upper"] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert _run(capsys, argv + ["--seed", "5"]) == (0, out)


def test_norm_long_moduli_sum(tmp_path, capsys):
    """A 1500-term sum of moduli over L_1 goes through the CLI; its p = 1
    norm is the sum of the vector norms."""
    space = SpaceSpec(1.0, 3, (1.0, 0.5, 2.0))
    X = np.random.default_rng(3).standard_normal((1500, 3))
    spath, bpath = tmp_path / "space.json", tmp_path / "binding.json"
    spath.write_text(json.dumps(space_to_json(space)))
    bpath.write_text(json.dumps(GeneratorBinding.from_matrix(space, X).to_json()))
    expr = "+".join(f"abs(d{k})" for k in range(1500))
    code, out = _run(
        capsys,
        ["norm", "--space", str(spath), "--binding", str(bpath), "--expr", expr, "--p", "1"],
    )
    assert code == 0
    target = float(np.sum(np.abs(X) * np.array(space.weights)))
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(target, rel=1e-12)
    assert payload["upper"] == pytest.approx(target, rel=1e-12)


def test_summing_closed_form(tmp_path, capsys):
    T = LinearMap.from_array(
        np.array([[1.0, -2.0], [0.5, 1.0]]), SpaceSpec(math.inf, 2), SpaceSpec(1.0, 2)
    )
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps(map_to_json(T)))
    code, out = _run(capsys, ["summing", "--map", str(mpath), "--p", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == pytest.approx(4.5, abs=1e-12)
    assert payload["upper"] == pytest.approx(4.5, abs=1e-12)

    code, out = _run(
        capsys, ["summing", "--map", str(mpath), "--p", "2", "--format", "csv"]
    )
    assert code == 0
    header = out.split("\n")[0]
    assert header == "lower,upper,lower_certified,upper_certified,method"


def test_non_finite_inputs_exit_1(tmp_path, capsys):
    """A NaN map entry or an infinite weight is an input error, never a
    certified number."""
    T = LinearMap.from_array(
        np.array([[1.0, 0.5], [0.0, 1.0]]), SpaceSpec(2.0, 2), SpaceSpec(2.0, 2)
    )
    obj = map_to_json(T)
    obj["matrix"][0][1] = math.nan
    mpath = tmp_path / "map.json"
    mpath.write_text(json.dumps(obj))  # writes the JSON literal NaN
    assert main(["summing", "--map", str(mpath), "--p", "2"]) == 1
    spath = tmp_path / "space.json"
    spath.write_text(json.dumps({"r": 1, "dim": 2, "weights": [1.0, math.inf]}))
    assert main(["norm", "--space", str(spath), "--expr", "abs(d0)+abs(d1)", "--p", "1"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("scale", ["inf", "nan", "1e400", "1e200*1e200"])
def test_non_finite_scale_exits_1(tmp_path, capsys, scale):
    """A non-finite scale in the DSL is an input error: it once exited 0
    with a certified infinite lower bound, printed as the non-JSON literal
    Infinity."""
    spath = tmp_path / "space.json"
    spath.write_text(json.dumps(space_to_json(SpaceSpec(math.inf, 2))))
    for p in ("1", "inf"):
        argv = ["norm", "--space", str(spath), "--expr", f"{scale}*abs(d0)", "--p", p]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "scale factor must be finite" in captured.err


@pytest.mark.parametrize("p", ["1", "inf"])
def test_nested_scale_overflow_exits_1(tmp_path, capsys, p):
    """Each factor of (1e200*abs(d0))*1e200 is finite, but their product
    overflows while the expression is evaluated: an input error, where it
    once exited 0 with a certified infinite lower bound."""
    spath = tmp_path / "space.json"
    spath.write_text(json.dumps(space_to_json(SpaceSpec(math.inf, 2))))
    argv = ["norm", "--space", str(spath), "--expr", "(1e200*abs(d0))*1e200", "--p", p]
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "lower bound must be finite" in captured.err


_SPACE_JSON = {"r": 2, "dim": 2, "weights": [1.0, 0.5]}
_MAP_JSON = {"matrix": [[1.0, 0.0], [0.0, 1.0]], "domain": {"r": "inf", "dim": 2},
             "codomain": {"r": "inf", "dim": 2}}
_SUBSPACE_JSON = {"ambient": {"r": 1, "dim": 3}, "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                  "complement_basis": [[0.0, 0.0, 1.0]]}
_BINDING_JSON = {"space": _SPACE_JSON, "vectors": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("space", "r", [2]),
        ("space", "r", None),
        ("space", "weights", [[1.0], [2.0]]),
        ("space", "weights", "ab"),
        ("space", "dim", 2.5),
        ("map", "matrix", [[[1.0, 0.0]], [[0.0, 1.0]]]),
        ("subspace", "basis", [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]),
        ("map", "matrix", {"a": 1}),
        ("binding", "vectors", {"a": 1}),
        ("subspace", "basis", {"a": 1}),
        ("space", None, 5),  # the whole file
    ],
)
def test_malformed_json_exits_1(tmp_path, capsys, kind, field, value):
    """A field of the wrong type or shape is an input error (exit 1): not an
    internal failure (exit 2), and not a value read some other way (exit 0)."""
    files = {"space": dict(_SPACE_JSON), "map": dict(_MAP_JSON), "subspace": dict(_SUBSPACE_JSON),
             "binding": dict(_BINDING_JSON)}
    if field is None:
        files[kind] = value
    else:
        files[kind][field] = value
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    argv = {
        "space": ["norm", "--space", path["space"], "--expr", "abs(d0)", "--p", "1"],
        "binding": ["norm", "--space", path["space"], "--binding", path["binding"], "--expr", "abs(d0)",
                    "--p", "1"],
        "map": ["summing", "--map", path["map"], "--p", "2"],
        "subspace": ["extend", "--subspace", path["subspace"], "--map", path["map"], "--p", "inf"],
    }[kind]
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_extend_sup_codomain(tmp_path, capsys):
    E = SpaceSpec(1.0, 3)
    eye = np.eye(3)
    sub = SubspaceSpec.from_arrays(E, eye[:2], eye[2:])
    spath = tmp_path / "sub.json"
    spath.write_text(json.dumps(subspace_to_json(sub)))
    T = LinearMap.from_array(np.eye(2), SpaceSpec(math.inf, 2), SpaceSpec(math.inf, 2))
    mpath = tmp_path / "op.json"
    mpath.write_text(json.dumps(map_to_json(T)))
    code, out = _run(
        capsys, ["extend", "--subspace", str(spath), "--map", str(mpath), "--p", "inf"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == payload["upper"] == 1.0


def test_experiment_subcommand(tmp_path, capsys):
    code, out = _run(
        capsys,
        ["experiment", "--name", "haar-level", "--params", "n=2", "--format", "csv"],
    )
    assert code == 0
    assert out.startswith("experiment,quantity,lower,upper,certified,claim,pass")

    gpath = tmp_path / "growth.dat"
    code, _ = _run(
        capsys,
        [
            "experiment", "--name", "haar-level", "--params", "n=2",
            "--growth-data", str(gpath),
        ],
    )
    assert code == 0
    assert gpath.read_text().startswith("2 ")

    assert main(["experiment", "--name", "bogus"]) == 1
    assert main(["experiment", "--name", "haar-level", "--params", "n=9"]) == 1
    assert main(["experiment", "--name", "haar-level", "--params", "oops"]) == 1
    capsys.readouterr()


def test_list_subcommand(capsys):
    code, out = _run(capsys, ["list"])
    assert code == 0
    names = out.strip().split("\n")
    assert "unconditionality-sqrt2" in names
    assert names == sorted(names)


def test_seed_env_variable(space_file, capsys, monkeypatch):
    monkeypatch.setenv("FBLAB_SEED", "not-a-number")
    assert main(["norm", "--space", space_file, "--expr", "abs(d0)", "--p", "1"]) == 1
    capsys.readouterr()
    monkeypatch.setenv("FBLAB_SEED", "5")
    code, out1 = _run(
        capsys, ["norm", "--space", space_file, "--expr", "max(d0,d1)", "--p", "1"]
    )
    assert code == 0
    code, out2 = _run(
        capsys, ["norm", "--space", space_file, "--expr", "max(d0,d1)", "--p", "1"]
    )
    assert out1 == out2  # identical invocations, identical bytes


@pytest.mark.parametrize(
    "name, param", [("haar-level", "n=inf"), ("summing-basis", "m=1e400"), ("poe-constants", "trials=inf")]
)
def test_infinite_integer_param_exits_1(capsys, name, param):
    """An infinite value for an integer parameter is an input error: int()
    of it raised OverflowError, which once exited 2 as an internal error."""
    assert main(["experiment", "--name", name, "--params", param]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "field params" in captured.err
