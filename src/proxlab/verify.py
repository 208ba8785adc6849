"""Fast self-checks of the package invariants, grouped into named suites.

Each suite returns a list of :class:`CheckResult`; the CLI renders them as a
pass/fail table.  Checks are seeded and finish in a few seconds combined, so
they are safe to run as a smoke test after install.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Point2, WeightPair
from .erowl import ErowlParams, erowl, reparameterize
from .experiments import (
    ScenarioConfig,
    fixed_design_matrix,
    scenario_b,
    system_mismatch,
)
from .rng import stream
from .rowl import prox_rowl_2d, rowl_envelope_2d, rowl_penalty
from .scalar_ops import (
    SQRT2,
    FirmParams,
    firm,
    hard,
    l0_envelope,
    l0_norm,
    mc_penalty,
    prox_l0,
    soft,
)
from .solver import LinearModel, pfbs, select_parameters, spectral_bounds
from .transform import (
    GridSpec,
    MonotoneGraph1D,
    SampledFunction,
    check_lipschitz,
    check_monotone,
    convert_1d,
    jacobian_symmetry_defect,
    legendre_conjugate_grid,
    weakly_convex_envelope_grid,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _check(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


def _suite_scalar(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    x = rng.uniform(-4.0, 4.0, size=500)

    out.append(_check("scalar", "l0 counts nonzeros", l0_norm(0.0) == 0 and l0_norm(-3.0) == 1))
    env = l0_envelope(x)
    out.append(_check("scalar", "l0 envelope below l0", bool(np.all(env <= l0_norm(x) + 1e-12))))
    out.append(_check(
        "scalar", "l0 envelope tight at 0 and tails",
        abs(float(l0_envelope(0.0))) < 1e-15 and float(l0_envelope(3.0)) == 1.0,
    ))

    # The l0 envelope is the sqrt(2)-scaled MC penalty with lambda2 = sqrt(2).
    mc = mc_penalty(x, SQRT2)
    defect = float(np.max(np.abs(SQRT2 * mc - env)))
    out.append(_check("scalar", "l0 envelope is scaled MC at lambda2=sqrt(2)",
                      defect < 1e-12, f"defect {defect:.2e}"))

    thr = SQRT2
    below, above = hard(thr - 1e-9, thr), hard(thr + 1e-9, thr)
    out.append(_check("scalar", "hard shrinkage jumps at threshold",
                      below == 0.0 and above == thr + 1e-9))
    s = prox_l0(thr)
    out.append(_check("scalar", "l0 prox doubles exactly at threshold",
                      s.kind == "pair" and set(s.points()) == {0.0, thr}))

    p = FirmParams(0.5, 2.0)
    grid = np.sort(rng.uniform(-5.0, 5.0, size=400))
    fx = firm(grid, p)
    mono = bool(np.all(np.diff(fx) >= -1e-12))
    squeeze = bool(np.all(np.abs(fx) <= np.abs(grid) + 1e-15))
    between = bool(np.all(fx * np.sign(grid) >= soft(grid, p.lambda1) * np.sign(grid) - 1e-12))
    out.append(_check("scalar", "firm is monotone", mono))
    out.append(_check("scalar", "firm shrinks toward zero", squeeze))
    out.append(_check("scalar", "firm dominates soft at lambda1", between))
    return out


def _suite_rowl(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    out = []
    w = WeightPair(0.3, 1.1)
    pts = rng.uniform(-4.0, 4.0, size=(300, 2))

    flips = rng.choice([-1.0, 1.0], size=(300, 2))
    sym = float(np.max(np.abs(rowl_penalty(pts, w) - rowl_penalty(pts * flips, w))))
    swap = float(np.max(np.abs(rowl_penalty(pts, w) - rowl_penalty(pts[:, ::-1], w))))
    out.append(_check("rowl", "penalty ignores signs", sym < 1e-12, f"defect {sym:.2e}"))
    out.append(_check("rowl", "penalty ignores order", swap < 1e-12, f"defect {swap:.2e}"))

    env = rowl_envelope_2d(pts, w)
    pen = rowl_penalty(pts, w)
    out.append(_check("rowl", "envelope below penalty",
                      bool(np.all(env <= pen + 1e-12))))
    far = np.array([[3.0, 0.2], [-4.0, 1.0], [5.0, -2.0]])
    agree = float(np.max(np.abs(rowl_envelope_2d(far, w) - rowl_penalty(far, w))))
    out.append(_check("rowl", "envelope tight off the tie wedge", agree < 1e-12))
    # A minorant of a nonnegative function that is exact at 0 must vanish there.
    out.append(_check("rowl", "envelope vanishes at the origin",
                      rowl_envelope_2d([0.0, 0.0], w) == 0.0))

    # Every reported prox point must attain the same objective value.
    def objective(y, x):
        d = y.as_array() - x
        return 0.5 * float(d @ d) + float(rowl_penalty(y.as_array(), w))

    ok = True
    worst = 0.0
    for x in rng.uniform(-3.0, 3.0, size=(100, 2)):
        ps = prox_rowl_2d(x, w)
        vals = [objective(p, x) for p in ps.points()]
        spreadv = max(vals) - min(vals)
        worst = max(worst, spreadv)
        ok = ok and spreadv < 1e-9
    tie = prox_rowl_2d((2.0, 2.0), w)
    out.append(_check("rowl", "prox points share objective value", ok, f"max spread {worst:.2e}"))
    out.append(_check("rowl", "exact tie yields two points", tie.kind == "pair"))
    return out


def _suite_erowl(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 2)
    out = []
    params = ErowlParams(WeightPair(0.0, 2.0), 1.0)

    def op(x):
        return erowl(x, params)

    m = check_monotone(op, pairs=400, seed=seed)
    out.append(_check("erowl", "operator is monotone", m >= -1e-10, f"min inner product {m:.2e}"))
    # The tie-filling slab stretches transversally to the diagonal by 1 + 1/delta.
    bound = 1.0 + 1.0 / params.delta
    lip = check_lipschitz(op, pairs=400, seed=seed)
    out.append(_check("erowl", "operator is (1 + 1/delta)-Lipschitz", lip <= bound * (1.0 + 1e-9),
                      f"ratio {lip:.6f} vs bound {bound:.6f}"))

    worst = 0.0
    for x in rng.uniform(0.05, 4.0, size=(40, 2)):
        worst = max(worst, jacobian_symmetry_defect(lambda p: erowl(p, params), x))
    out.append(_check("erowl", "Jacobian symmetric where smooth", worst < 1e-6,
                      f"max defect {worst:.2e}"))

    pts = rng.uniform(-4.0, 4.0, size=(200, 2))
    flips = rng.choice([-1.0, 1.0], size=(200, 2))
    ref = erowl(pts, params)
    flipped = erowl(pts * flips, params)
    equiv = float(np.max(np.abs(ref * flips - flipped)))
    out.append(_check("erowl", "equivariant under sign flips", equiv < 1e-12, f"defect {equiv:.2e}"))
    swapped = erowl(pts[:, ::-1], params)[:, ::-1]
    sw = float(np.max(np.abs(ref - swapped)))
    out.append(_check("erowl", "equivariant under coordinate swap", sw < 1e-12, f"defect {sw:.2e}"))

    rp = reparameterize(1.0, WeightPair(0.0, 2.0))
    out.append(_check("erowl", "reparameterization keeps the slab width",
                      abs(rp.eta - 1.0) < 1e-12 and abs(rp.w.spread / (rp.delta + 1) - 2.0) < 1e-12))
    return out


def _suite_transform(seed: int) -> list[CheckResult]:
    out = []
    grid = GridSpec.line(-4.0, 4.0, 0.01)
    xs = grid.axes[0].points()

    half_sq = SampledFunction(grid, 0.5 * xs**2)
    conj = legendre_conjugate_grid(half_sq, grid)
    inner = np.abs(xs) <= 3.0
    defect = float(np.max(np.abs(conj.values[inner] - 0.5 * xs[inner] ** 2)))
    out.append(_check("transform", "half-square is self-conjugate", defect < 1e-3,
                      f"max defect {defect:.2e}"))

    absf = SampledFunction(grid, np.abs(xs))
    env = weakly_convex_envelope_grid(absf)
    d2 = float(np.max(np.abs(env.values[inner] - np.abs(xs[inner]))))
    out.append(_check("transform", "convex input is its own envelope", d2 < 1e-3,
                      f"max defect {d2:.2e}"))

    l0f = SampledFunction(grid, l0_norm(xs))
    env0 = weakly_convex_envelope_grid(l0f)
    d3 = float(np.max(np.abs(env0.values[inner] - l0_envelope(xs[inner]))))
    out.append(_check("transform", "l0 envelope matches closed form", d3 < 2e-2,
                      f"max defect {d3:.2e}"))

    graph = MonotoneGraph1D.hard_graph(SQRT2)
    ok = True
    for q in (0.3, 0.9, 1.2, 2.5, -1.2, -3.0):
        got = convert_1d(graph, 0.5, q)
        want = float(firm(q, FirmParams(SQRT2 / 1.5, SQRT2)))
        ok = ok and abs(got - want) < 1e-9
    out.append(_check("transform", "hard-graph conversion reproduces firm shrinkage", ok))
    return out


def _suite_solver(seed: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 3)
    out = []
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(4, 2))
        want = np.linalg.eigvalsh(a.T @ a)
        got = spectral_bounds(a)
        worst = max(worst, abs(got.rho - want[0]), abs(got.kappa - want[1]))
    out.append(_check("solver", "spectral bounds match dense eigensolver", worst < 1e-9,
                      f"max defect {worst:.2e}"))

    bounds = spectral_bounds(fixed_design_matrix())
    params = select_parameters(bounds)
    lo, hi = params.mu_interval
    out.append(_check("solver", "selected step lies inside its interval", lo < params.mu < hi))

    a = fixed_design_matrix()
    x_star = Point2(0.3, -1.2)
    model = LinearModel(a, a @ np.array(x_star))
    res = pfbs(model, lambda p: p, 2.0, record_trace=False)
    err = math.hypot(res.x_hat.x1 - x_star.x1, res.x_hat.x2 - x_star.x2)
    out.append(_check("solver", "identity shrinkage solves the noiseless system",
                      res.converged and err < 1e-6, f"error {err:.2e}"))
    return out


def _suite_experiments(seed: int) -> list[CheckResult]:
    out = []
    g1 = stream(seed, 2, 7)
    g2 = stream(seed, 2, 7)
    same = all(g1.next_u64() == g2.next_u64() for _ in range(8))
    out.append(_check("experiments", "streams replay exactly", same))
    g3 = stream(seed, 2, 8)
    out.append(_check("experiments", "streams differ across trials",
                      stream(seed, 2, 7).next_u64() != g3.next_u64()))

    out.append(_check("experiments", "mismatch of exact recovery hits the floor",
                      system_mismatch((1.0, 0.0), (1.0, 0.0)) == -400.0))
    val = system_mismatch((1.1, 0.0), (1.0, 0.0))
    out.append(_check("experiments", "mismatch matches hand computation",
                      abs(val - (-20.0)) < 1e-9, f"{val:.6f} dB"))

    cfg = ScenarioConfig.scenario_b_defaults(seed=seed, trials=3, snr_list_db=(20.0,))
    r1 = scenario_b(cfg)
    r2 = scenario_b(cfg)
    out.append(_check("experiments", "tiny run is bitwise repeatable", r1 == r2))
    methods = sorted({r.method for r in r1})
    out.append(_check("experiments", "all methods reported", methods == ["LS", "ROWL", "eROWL"]))
    return out


_SUITES = {
    "scalar": _suite_scalar,
    "rowl": _suite_rowl,
    "erowl": _suite_erowl,
    "transform": _suite_transform,
    "solver": _suite_solver,
    "experiments": _suite_experiments,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite; raises ``ValueError`` for unknown names."""
    try:
        fn = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}") from None
    return fn(seed)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Run every suite in declaration order."""
    return [result for name in SUITE_NAMES for result in run_suite(name, seed)]
