import dataclasses

import pytest

from proxlab import verify
from proxlab.verify import SUITE_NAMES, run_all, run_suite


def test_every_suite_passes_cleanly():
    for name in SUITE_NAMES:
        results = run_suite(name, seed=0)
        assert results, name
        failing = [r.name for r in results if not r.passed]
        assert failing == [], f"suite {name} failed: {failing}"


def test_run_all_concatenates_suites_in_order():
    # At a seed other than the default, so the details show which seed each suite ran at.
    results = run_all(seed=3)
    seen = [r.suite for r in results]
    assert tuple(dict.fromkeys(seen)) == SUITE_NAMES
    assert results == [r for n in SUITE_NAMES for r in run_suite(n, seed=3)]


@pytest.mark.parametrize("mu", [1.0, 2.39, 2.42])
def test_a_step_outside_the_interval_it_interpolates_fails(monkeypatch, mu):
    # On the fixed design the step lies between (1 - beta) / rho = 2.3943 and (1 + beta) / kappa = 2.4180.
    # mu_interval's lower end is rho**2 times the first, 1.6e-4, so it would pass a step of 1.0 or 2.39.
    real = verify.select_parameters
    monkeypatch.setattr(verify, "select_parameters", lambda bounds: dataclasses.replace(real(bounds), mu=mu))
    [check] = [r for r in run_suite("solver") if r.name == "selected step lies inside its interval"]
    assert not check.passed, check.detail


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense")


def test_results_are_seed_stable():
    a = [(r.suite, r.name, r.passed) for r in run_all(seed=5)]
    b = [(r.suite, r.name, r.passed) for r in run_all(seed=5)]
    assert a == b
