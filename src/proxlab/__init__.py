"""Set-valued shrinkage operators, their single-valued relaxations, and
desk-scale recovery experiments on 2-D linear models.

The package splits into:

* :mod:`proxlab.core` — planar points, weight pairs, and ``ProxSet``, the
  set-valued prox result on ℝ and ℝ²;
* :mod:`proxlab.scalar_ops` — zero-counting penalties and 1-D shrinkage;
* :mod:`proxlab.rowl` — ordered weighted l1 penalty, prox, and envelope;
  ``rowl_shrinker`` is the prox's single-valued selection for solvers;
* :mod:`proxlab.erowl` — the single-valued relaxed operator family,
  vectorized (``erowl``) and as a per-point solver closure
  (``erowl_shrinker``);
* :mod:`proxlab.transform` — grid conjugation, brute-force proxes, graph
  surgery between shrinkage families, operator checks;
* :mod:`proxlab.solver` — proximal forward-backward splitting and step rules;
* :mod:`proxlab.experiments` — reproducible recovery scenarios and CSV output.
"""
from .core import (
    Point2,
    ProxSet,
    WeightPair,
)
from .erowl import (
    ErowlParams,
    Region,
    classify_region,
    erowl,
    erowl_limit,
    erowl_shrinker,
    reparameterize,
)
from .experiments import (
    ScenarioConfig,
    TrialRecord,
    firm_rule,
    fixed_design_matrix,
    generate_model,
    mean_mismatch,
    scenario_a,
    scenario_b,
    scenario_c,
    system_mismatch,
)
from .rowl import (
    prox_rowl_2d,
    prox_rowl_envelope_2d,
    rowl_envelope_2d,
    rowl_penalty,
    rowl_shrinker,
)
from .scalar_ops import (
    FirmParams,
    MCParams,
    firm,
    firm_shrinker,
    hard,
    l0_envelope,
    l0_norm,
    mc_penalty,
    prox_l0,
    prox_l0_envelope,
    soft,
)
from .solver import (
    LinearModel,
    PfbsResult,
    SolverParams,
    SpectralBounds,
    pfbs,
    select_parameters,
    spectral_bounds,
)
from .transform import (
    Axis,
    BoxTooSmallError,
    GridSpec,
    InclusionReport,
    MonotoneGraph1D,
    SampledFunction,
    brute_force_prox,
    check_lipschitz,
    check_monotone,
    convert_1d,
    default_prox_box,
    jacobian_symmetry_defect,
    legendre_conjugate_grid,
    verify_inclusion,
    weakly_convex_envelope_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Point2",
    "WeightPair",
    "ProxSet",
    "MCParams",
    "FirmParams",
    "l0_norm",
    "mc_penalty",
    "l0_envelope",
    "prox_l0",
    "prox_l0_envelope",
    "hard",
    "soft",
    "firm",
    "firm_shrinker",
    "rowl_penalty",
    "prox_rowl_2d",
    "rowl_envelope_2d",
    "prox_rowl_envelope_2d",
    "rowl_shrinker",
    "ErowlParams",
    "Region",
    "classify_region",
    "erowl",
    "erowl_limit",
    "erowl_shrinker",
    "reparameterize",
    "Axis",
    "GridSpec",
    "SampledFunction",
    "BoxTooSmallError",
    "legendre_conjugate_grid",
    "weakly_convex_envelope_grid",
    "brute_force_prox",
    "default_prox_box",
    "MonotoneGraph1D",
    "convert_1d",
    "InclusionReport",
    "verify_inclusion",
    "check_monotone",
    "check_lipschitz",
    "jacobian_symmetry_defect",
    "LinearModel",
    "SpectralBounds",
    "SolverParams",
    "PfbsResult",
    "spectral_bounds",
    "select_parameters",
    "pfbs",
    "ScenarioConfig",
    "TrialRecord",
    "fixed_design_matrix",
    "generate_model",
    "system_mismatch",
    "firm_rule",
    "mean_mismatch",
    "scenario_a",
    "scenario_b",
    "scenario_c",
    "__version__",
]
