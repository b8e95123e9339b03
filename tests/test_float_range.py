"""The float range is handled once, at the public entry points.

Every public estimator is positively homogeneous in its data, so
``spaces._homogeneous`` scales data outside the float window once where
the estimator is called, and no kernel below it takes a value again.
These tests read the package's source: which functions check the window
or scale by a power of two, which estimators carry the rule, and where a
numpy error state is entered.
"""

import ast
import inspect
from pathlib import Path

import fblab
from fblab import spaces

_PACKAGE = Path(fblab.__file__).parent

# the estimators that carry the rule, by module
_ENTRY_POINTS = {
    ("spaces", "norm"),
    ("spaces", "norming_functional"),
    ("summing", "weak_p_norm"),
    ("summing", "pi_p_lower"),
    ("summing", "pi_q1_lower"),
    ("operators", "operator_norm"),
    ("fbl", "fbl_norm"),
    ("fbl", "fbl_infty_norm"),
    ("extension", "extension_constant"),
    ("extension", "embedding_gap"),
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(_PACKAGE.glob("*.py"))}


def _references(*names):
    """(module, top-level function or class, name) of each use of one of
    ``names`` in the package; imports and definitions are not uses."""
    found = set()
    for module, tree in _trees().items():
        for top in tree.body:
            scope = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in names:
                    found.add((module, scope, name))
    return found


def test_only_the_entry_points_check_the_float_window():
    """The window is checked by the entry-point decorator and, seed by
    seed, by the witness search; a section's basis is checked once, and
    scaled for the two entry points that take a section as their ball; the
    one scaling left below an entry point is the p-concavification's,
    which always scales."""
    assert _references("_window_exponent", "_window", "_pow2_scaled", "_unit") == {
        ("spaces", "_homogeneous", "_window_exponent"),
        ("spaces", "_window_exponent", "_window"),
        ("spaces", "SpaceSpec", "_unit"),
        ("spaces", "SubspaceSpec", "_window"),
        ("summing", "witness_search", "_window_exponent"),
        ("summing", "witness_search", "_unit"),
        ("extension", "extension_constant", "_unit"),
        ("fbl", "_pconcav_coefficients", "_pow2_scaled"),
    }


def test_every_public_estimator_carries_the_rule():
    """Each entry point is decorated by ``spaces._homogeneous`` and nothing
    else uses it; the decorated functions keep their names and signatures."""
    assert {(m, f) for m, f, _ in _references("_homogeneous")} == _ENTRY_POINTS
    decorated = set()
    for module, tree in _trees().items():
        for top in tree.body:
            for d in getattr(top, "decorator_list", []):
                if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_homogeneous":
                    decorated.add((module, top.name))
    assert decorated == _ENTRY_POINTS
    for _, name in _ENTRY_POINTS:
        fn = getattr(fblab, name)
        assert fn.__name__ == name and list(inspect.signature(fn).parameters) == list(
            inspect.signature(fn.__wrapped__).parameters
        )


def test_one_numpy_error_state():
    """Only the witness polish enters an error state (a ratio above the
    float range is inf there); no kernel takes a lost value again."""
    assert _references("errstate") == {("summing", "_polish_family", "errstate")}
    assert not any(hasattr(spaces, name) for name in ("_rescaled", "_lost", "_floor", "_norms_rows_rescued"))
