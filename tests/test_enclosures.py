import math

import numpy as np
import pytest

from specbar.core import principal_sqrt
from specbar.enclosures import (
    gamma_a_contains,
    gamma_b_contains,
    l1_lambda_limit,
    we_strip_contains,
)
from specbar.floquet import BandStructure

HALF_LINE = BandStructure(((0.0, math.inf),))
STRIP = 1.0


def test_gamma_a_examples():
    assert gamma_a_contains(0.5 + 0.5j, HALF_LINE, 1.0)
    assert not gamma_a_contains(-0.1 + 0.0j, HALF_LINE, 1.0)
    assert not gamma_a_contains(0.5 + 2.0j, HALF_LINE, 1.0)
    # a NaN real part is at no distance from the spectrum: in no enclosure
    for contains in (gamma_a_contains, gamma_b_contains, we_strip_contains):
        assert not contains(complex(math.nan, 0.5), HALF_LINE, 1.0)


def test_gamma_a_boundary_exactness():
    # at Im = 0 or gamma the height profile vanishes: membership iff the
    # real part lies on the spectrum
    for y in (0.0, 1.0):
        assert gamma_a_contains(complex(0.3, y), HALF_LINE, 1.0)
        assert gamma_a_contains(complex(0.0, y), HALF_LINE, 1.0)
        assert not gamma_a_contains(complex(-1e-12, y), HALF_LINE, 1.0)


def test_gamma_a_lens_profile():
    # just off the spectrum the bound is the square-root profile
    y = 0.3
    bound = math.sqrt(y * (1 - y))
    assert gamma_a_contains(complex(-bound + 1e-9, y), HALF_LINE, 1.0)
    assert not gamma_a_contains(complex(-bound - 1e-9, y), HALF_LINE, 1.0)


def test_gamma_b_examples():
    assert gamma_b_contains(2 + 0.3j, HALF_LINE, STRIP)
    assert not gamma_b_contains(-1 + 0.3j, HALF_LINE, STRIP)
    assert not gamma_b_contains(2 + 1.2j, HALF_LINE, STRIP)


def test_we_strip_examples():
    assert we_strip_contains(7 + 0.9j, HALF_LINE, STRIP)
    assert not we_strip_contains(-0.2 + 0.5j, HALF_LINE, STRIP)
    # a scan that found no band has an empty hull
    assert not we_strip_contains(7 + 0.9j, BandStructure(()), STRIP)


def test_monotone_nesting():
    # every gamma_b member is a strip member: hull contains the intervals
    bands = BandStructure(((0.0, 1.0), (2.0, 3.5)))
    xs = np.linspace(-1.0, 5.0, 200)
    ys = np.linspace(-0.5, 1.5, 200)
    for x in xs:
        for y in ys:
            lam = complex(x, y)
            if gamma_b_contains(lam, bands, STRIP):
                assert we_strip_contains(lam, bands, STRIP)


def test_band_gap_membership():
    bands = BandStructure(((0.0, 1.0), (2.0, 3.5)))
    assert not gamma_b_contains(1.5 + 0.5j, bands, STRIP)   # in the gap
    assert we_strip_contains(1.5 + 0.5j, bands, STRIP)      # hull covers gaps
    assert gamma_a_contains(1.45 + 0.5j, bands, 1.0)        # lens reaches in


def test_validation():
    # every barrier is gamma times a projection, 0 < gamma < inf; NaN
    # passed a check of gamma <= 0
    for contains in (gamma_a_contains, gamma_b_contains, we_strip_contains):
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be positive"):
                contains(0.5j, HALF_LINE, gamma)


def test_l1_limit_value():
    got = l1_lambda_limit(-1.0, 1.0)
    want = -1j * (principal_sqrt(-1 - 1j) + 1j)
    assert abs(got - want) < 1e-15


def test_l1_limit_nonvanishing_on_grid():
    xs = np.linspace(-5, 5, 100)
    ys = np.linspace(-3, 3, 100)
    lam = xs[None, :] + 1j * ys[:, None]
    # spectrum rays with standoff removed
    mask = ~(((np.abs(lam.imag) < 1e-3) & (lam.real > -1e-3))
             | ((np.abs(lam.imag - 1.0) < 1e-3) & (lam.real > -1e-3)))
    vals = np.abs(l1_lambda_limit(lam, 1.0))
    assert vals[mask].min() > 1e-3


def test_l1_limit_continuity_in_gamma():
    rng = np.random.default_rng(12)
    for _ in range(10):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.1, 3))
        d = 1e-6
        step = abs(l1_lambda_limit(lam, 1.0 + d) - l1_lambda_limit(lam, 1.0))
        assert step < 1e-4  # locally Lipschitz in gamma away from the cut
