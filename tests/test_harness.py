import math

import pytest

from specbar.core import Rectangle
from specbar.harness import (
    ConvergenceRecord,
    InsufficientDataError,
    SweepFailureError,
    fit_rate,
    run_sweep,
)
from specbar.rootfinder import Root, RootSet


def _records(errors, Rs=None):
    Rs = Rs or list(range(4, 4 + len(errors)))
    return [ConvergenceRecord(R, 0j, 0j, e) for R, e in zip(Rs, errors)]


def test_fit_exponential_exact():
    recs = _records([math.exp(-2.0 * R) for R in range(4, 16)],
                    list(range(4, 16)))
    fit = fit_rate(recs, "exponential", skip_initial=0)
    assert abs(fit.rate - 2.0) < 1e-10
    assert fit.r_squared > 1 - 1e-12


def test_fit_power_exact():
    recs = _records([3.0 / R for R in range(4, 16)], list(range(4, 16)))
    fit = fit_rate(recs, "power", skip_initial=0)
    assert abs(fit.rate - 1.0) < 1e-10
    assert abs(fit.prefactor - 3.0) < 1e-10
    assert fit.r_squared > 1 - 1e-12


def test_fit_noisy_exponential():
    Rs = list(range(4, 30))
    recs = _records([math.exp(-R) * (1 + 0.1 * math.sin(R)) for R in Rs], Rs)
    fit = fit_rate(recs, "exponential", skip_initial=0)
    assert abs(fit.rate - 1.0) < 0.1


def test_fit_rescale_invariance():
    Rs = list(range(5, 20))
    errs = [math.exp(-0.7 * R) * (1 + 0.05 * math.cos(R)) for R in Rs]
    a = fit_rate(_records(errs, Rs), "exponential", skip_initial=0)
    b = fit_rate(_records([1e6 * e for e in errs], Rs), "exponential",
                 skip_initial=0)
    assert abs(a.rate - b.rate) < 1e-12
    assert abs(b.prefactor / a.prefactor - 1e6) < 1e-6 * 1e6


def test_fit_skips_initial_transient():
    Rs = [1, 2, 10, 20, 30, 40]
    errs = [5.0, 4.0] + [math.exp(-R) for R in Rs[2:]]
    fit = fit_rate(_records(errs, Rs), "exponential")  # default skip 2
    assert abs(fit.rate - 1.0) < 1e-10


def test_fit_requires_enough_points():
    with pytest.raises(InsufficientDataError):
        fit_rate(_records([1.0, 0.1, 0.01]), "exponential", skip_initial=0)
    with pytest.raises(InsufficientDataError):
        fit_rate(_records([math.inf] * 10), "exponential", skip_initial=0)
    with pytest.raises(ValueError):
        fit_rate(_records([1.0] * 6), "geometric", skip_initial=0)


def test_fit_excludes_unmatched_sentinels():
    Rs = [10, 20, 30, 40, 50, 60]
    errs = [math.inf] + [math.exp(-0.5 * R) for R in Rs[1:]]
    fit = fit_rate(_records(errs, Rs), "exponential", skip_initial=0)
    assert abs(fit.rate - 0.5) < 1e-10


def test_nearest_matching_order_invariance():
    roots = (Root(1 + 1j, 1, 0.0), Root(2 + 1j, 1, 0.0), Root(3 + 0.5j, 1, 0.0))
    a = RootSet(roots).nearest(2.1 + 1j)
    b = RootSet(tuple(reversed(roots))).nearest(2.1 + 1j)
    assert a.location == b.location == 2 + 1j


def test_run_sweep_single_width(free_model):
    recs = run_sweep(free_model, 1.0, [10.0], 0.78 + 0.89j,
                     Rectangle(0.1, 5.0, 0.05, 0.95))
    assert len(recs) == 1
    assert recs[0].error < 0.1
    with pytest.raises(InsufficientDataError):
        fit_rate(recs, "exponential", skip_initial=0)


def test_run_sweep_validation(free_model):
    rect = Rectangle(0.1, 5.0, 0.05, 0.95)
    with pytest.raises(ValueError):
        run_sweep(free_model, 1.0, [20.0, 10.0], 1 + 0.5j, rect)
    with pytest.raises(ValueError):
        run_sweep(free_model, 1.0, [10.0], 40 + 0.5j, rect)


def test_run_sweep_all_unmatched(free_model):
    # a rectangle in the left half-plane holds no eigenvalues at all
    with pytest.raises(SweepFailureError):
        run_sweep(free_model, 1.0, [5.0, 10.0], -4 + 0.5j,
                  Rectangle(-5.0, -3.0, 0.3, 0.7))


def test_run_sweep_stacked_errors_decrease(stacked_model):
    from conftest import STACKED_LIMIT_EIG_2
    recs = run_sweep(stacked_model, 1.0, [10.0, 15.0, 20.0, 25.0],
                     STACKED_LIMIT_EIG_2, Rectangle(0.8, 1.9, 1.2, 1.9))
    errs = [r.error for r in recs]
    assert all(b < a for a, b in zip(errs, errs[1:]))
