"""Numerical laboratory for free p-convex Banach lattices over
finite-dimensional weighted ell_r spaces.

Expressions in the free vector lattice over point evaluations are built
with a small DSL or the node classes directly, bound to vectors of a
concrete space, and measured: certified lower bounds from explicit
witness families of dual functionals, certified upper bounds from
structural inequalities and exact enumerations.
"""

__version__ = "0.1.0"

from .estimates import NormEstimate, WitnessFamily
from .exprs import (
    Abs,
    Add,
    DisjointnessReport,
    Gen,
    GeneratorBinding,
    Join,
    LatticeExpr,
    Meet,
    Neg,
    PosPart,
    PowerSum,
    Scale,
    disjointness_check,
    eval_expr,
    eval_pairings,
    eval_rows,
    expr_to_text,
    hom_image,
    lipschitz_bound,
    mass_bound,
    parse_expr,
    pushforward,
)
from .experiments import (
    ExperimentReport,
    Record,
    experiment_names,
    growth_data,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .extension import EmbeddingGap, embedding_gap, extension_constant
from .fbl import (
    fbl_infty_norm,
    fbl_norm,
    moduli_norm,
    sublattice_generators,
)
from .operators import (
    LinearMap,
    adjoint,
    map_from_json,
    map_to_json,
    operator_norm,
    tuple_map,
)
from .optimize import OptimizerConfig
from .spaces import (
    SpaceSpec,
    SubspaceSpec,
    dual_space,
    norm,
    norming_functional,
    norming_vector,
    pairing,
    sample_sphere,
    space_from_json,
    space_to_json,
    subspace_from_json,
    subspace_to_json,
)
from .summing import (
    pi_1_exact_Linfty_domain,
    pi_p_lower,
    pi_q1_lower,
    weak_p_norm,
    witness_search,
)

__all__ = [
    "Abs",
    "Add",
    "DisjointnessReport",
    "EmbeddingGap",
    "ExperimentReport",
    "Gen",
    "GeneratorBinding",
    "Join",
    "LatticeExpr",
    "LinearMap",
    "Meet",
    "Neg",
    "NormEstimate",
    "OptimizerConfig",
    "PosPart",
    "PowerSum",
    "Record",
    "Scale",
    "SpaceSpec",
    "SubspaceSpec",
    "WitnessFamily",
    "adjoint",
    "disjointness_check",
    "dual_space",
    "embedding_gap",
    "eval_expr",
    "eval_pairings",
    "eval_rows",
    "experiment_names",
    "expr_to_text",
    "extension_constant",
    "fbl_infty_norm",
    "fbl_norm",
    "growth_data",
    "hom_image",
    "lipschitz_bound",
    "map_from_json",
    "map_to_json",
    "mass_bound",
    "moduli_norm",
    "norm",
    "norming_functional",
    "norming_vector",
    "operator_norm",
    "pairing",
    "parse_expr",
    "pi_1_exact_Linfty_domain",
    "pi_p_lower",
    "pi_q1_lower",
    "pushforward",
    "report_to_csv",
    "report_to_json",
    "run_experiment",
    "sample_sphere",
    "space_from_json",
    "space_to_json",
    "subspace_from_json",
    "subspace_to_json",
    "sublattice_generators",
    "tuple_map",
    "weak_p_norm",
    "witness_search",
]
