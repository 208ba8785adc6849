"""Shared fixtures, and a one-line verdict per acceptance criterion after the run."""
import pytest

from proxlab import experiments


@pytest.fixture
def reversed_trials(monkeypatch):
    """Make the experiments draw their trials last to first.

    A B or C run draws every trial's cells, then solves each method's cells
    together as lanes in the order they were drawn, so the lanes run in
    reversed trial order too.  Returns the trials of the drawn cells, in
    lane order, so a test can check that the reversal took effect.
    """
    ran: list[int] = []
    real = experiments._run_tasks

    def run_reversed(cfg, trials, worker):
        cells, resampled = real(cfg, list(trials)[::-1], worker)
        ran.extend(dict.fromkeys(cell.trial for cell in cells))
        return cells, resampled

    monkeypatch.setattr(experiments, "_run_tasks", run_reversed)
    return ran


CRITERIA = {
    "test_criterion_01_parameter_pipeline": (
        "criterion 1  parameter pipeline: kappa in [0.815, 0.825], rho in "
        "[0.0081, 0.0083], delta in [49.5, 50.5], scaled w2 in [0.0388, 0.0396], "
        "step interval within 2% of [1.6e-4, 2.4]; < 1 s"
    ),
    "test_criterion_02_scenario_a_endpoints": (
        "criterion 2  scenario A endpoints: relaxed run within 0.02 per component "
        "of (0, 0.99), plain run within 0.02 of (0.88, 0); mu = 2, tol 1e-10; < 1 s"
    ),
    "test_criterion_03_conversion_identity": (
        "criterion 3  graph inversion vs firm shrinkage: max error <= 1e-9 over "
        "1e4 queries in [-4, 4], delta in {0.5, 1, 2}; < 5 s"
    ),
    "test_criterion_04_relaxed_operator_oracle": (
        "criterion 4  relaxed operator vs grid oracle: distance <= 0.02 "
        "(2 x step 0.01) over 200 random cases; < 60 s"
    ),
    "test_criterion_05_envelope_equivalence": (
        "criterion 5  grid envelope vs closed form: max error <= 5e-2 on [-4, 4]^2 "
        "for 3 weight pairs, and <= 5e-3 for the scalar analogue; < 60 s"
    ),
    "test_criterion_06_operator_property_suite": (
        "criterion 6  operator properties: monotone inner product >= -1e-10 and "
        "Lipschitz ratio <= (1 + 1/delta)(1 + 1e-6) over 1e5 pairs, Jacobian "
        "asymmetry <= 1e-4 at 1e3 interior points; < 30 s"
    ),
    "test_criterion_07_inclusion_suites": (
        "criterion 7  prox-in-envelope-prox inclusion: 1e3 scalar points "
        "including +/-sqrt(2) and 1e3 planar points including exact ties, "
        "distance <= 2 x grid step; < 60 s"
    ),
    "test_criterion_08a_limit_contained_in_envelope_prox": (
        "criterion 8a limit operator lands in the envelope prox set: distance "
        "<= 1e-6 over 1e4 samples; < 10 s"
    ),
    "test_criterion_08b_diagonal_limit_closed_form": (
        "criterion 8b diagonal limit equals x - w_mid above the weight sum "
        "(to 1e-6): known not to hold on the blending band, kept as a strict "
        "expected failure"
    ),
    "test_criterion_09_scenario_b_ordering": (
        "criterion 9  scenario B (500 trials, SNR 20 dB): relaxed mean mismatch "
        "below plain mean mismatch; < 60 s"
    ),
    "test_criterion_10_scenario_c_ordering": (
        "criterion 10 scenario C (500 trials, x1 = 1.5, SNR 20 dB): firm mean "
        "mismatch above relaxed mean mismatch; < 60 s"
    ),
    "test_criterion_11_determinism": (
        "criterion 11 reruns of criteria 2, 9, 10 produce bitwise-identical "
        "CSVs, including with the trials run in reverse order"
    ),
}

_LABELS = {
    "passed": "PASS",
    "failed": "FAIL",
    "error": "ERROR",
    "xfailed": "FAIL (expected, documented)",
    "xpassed": "UNEXPECTED PASS",
    "skipped": "SKIPPED",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, label in _LABELS.items():
        for report in terminalreporter.stats.get(status, ()):
            name = getattr(report, "nodeid", "").rsplit("::", 1)[-1]
            if name in CRITERIA:
                outcomes[name] = label
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, text in CRITERIA.items():
        if name in outcomes:
            terminalreporter.write_line(f"{outcomes[name]:<26}  {text}")
