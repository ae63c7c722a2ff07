"""Membership predicates for the spectral enclosures of the barrier family.

Three nested regions confine where approximation can fail: a lens-shaped
region over the essential spectrum whose height profile is the square root
sqrt(Im(lam) (gamma - Im(lam))) (projection barriers), the essential
spectrum times the barrier's numerical-range interval, and the convex-hull
strip.  The essential spectrum is a BandStructure (floquet.essential_spectrum);
its convex hull is [start of the first band, inf), since every background is
unbounded above.  A closed-form limit certifies the absence of persistent
pollution for integrable-tail backgrounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import principal_sqrt
from .floquet import BandStructure

__all__ = [
    "StripParams",
    "gamma_a_contains",
    "gamma_b_contains",
    "we_strip_contains",
    "l1_lambda_limit",
]


@dataclass(frozen=True)
class StripParams:
    """Barrier strength and the numerical-range interval of the cutoffs.

    Characteristic-function barriers are projections, so the defaults
    s_minus = 0, s_plus = 1 apply.
    """

    gamma: float
    s_minus: float = 0.0
    s_plus: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.s_minus > self.s_plus:
            raise ValueError("need s_minus <= s_plus")


def gamma_a_contains(lam: complex, sigma_e: BandStructure,
                     gamma: float, tol: float = 0.0) -> bool:
    """Projection-barrier enclosure membership.

    True when Im(lam) lies in [0, gamma] and the distance of Re(lam) to the
    essential spectrum is at most sqrt(Im(lam) (gamma - Im(lam))).  At
    Im(lam) = 0 or gamma the bound degenerates and forces Re(lam) onto the
    spectrum itself.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    y = lam.imag
    if y < -tol or y > gamma + tol:
        return False
    bound = math.sqrt(max(y * (gamma - y), 0.0))
    return bool(sigma_e.distance(lam.real) <= bound + tol)


def gamma_b_contains(lam: complex, sigma_e: BandStructure,
                     strip: StripParams, tol: float = 0.0) -> bool:
    """Rectangle enclosure: Re on the spectrum, Im in gamma [s_minus, s_plus]."""
    y = lam.imag
    lo = strip.gamma * strip.s_minus
    hi = strip.gamma * strip.s_plus
    return bool(lo - tol <= y <= hi + tol and sigma_e.distance(lam.real) <= tol)


def we_strip_contains(lam: complex, sigma_e: BandStructure,
                      strip: StripParams, tol: float = 0.0) -> bool:
    """Numerical-range strip: Re in the convex hull, Im in gamma [s-, s+]."""
    y = lam.imag
    lo = strip.gamma * strip.s_minus
    hi = strip.gamma * strip.s_plus
    hull_lo = sigma_e.bands[0][0] if sigma_e.bands else math.inf
    return bool(lo - tol <= y <= hi + tol and hull_lo - tol <= lam.real)


def l1_lambda_limit(lam, gamma):
    """Large-R limit -i (sqrt(lam - i gamma) + sqrt(lam)) of the pollution factor.

    Never vanishes, because the two principal square roots both have
    nonnegative imaginary part and cannot be exact negatives of each other;
    a positive lower bound on a region certifies that persistent pollution
    is absent there for integrable-tail backgrounds.
    """
    return -1j * (principal_sqrt(lam - 1j * gamma) + principal_sqrt(lam))
