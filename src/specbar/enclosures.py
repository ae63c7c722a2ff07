"""Membership predicates for the spectral enclosures of the barrier family.

Three nested regions confine where approximation can fail: a lens-shaped
region over the essential spectrum whose height profile is the square root
sqrt(Im(lam) (gamma - Im(lam))) (projection barriers), the essential
spectrum times the barrier's numerical-range interval, and the convex-hull
strip.  A closed-form limit certifies the absence of persistent pollution
for integrable-tail backgrounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import principal_sqrt
from .floquet import BandStructure

__all__ = [
    "EssentialSpectrumApprox",
    "StripParams",
    "gamma_a_contains",
    "gamma_b_contains",
    "we_strip_contains",
    "l1_lambda_limit",
]


@dataclass(frozen=True)
class EssentialSpectrumApprox:
    """Real interval description of an essential spectrum and its hull.

    Unbounded ends use math.inf sentinels.
    """

    intervals: tuple[tuple[float, float], ...]
    convex_hull: tuple[float, float]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not (self.convex_hull[0] <= lo and hi <= self.convex_hull[1]):
                raise ValueError("convex hull must contain every interval")

    @classmethod
    def half_line(cls, start: float = 0.0) -> "EssentialSpectrumApprox":
        """The [start, inf) spectrum of an integrable-tail background."""
        return cls(((start, math.inf),), (start, math.inf))

    @classmethod
    def from_band_structure(cls, bs: BandStructure) -> "EssentialSpectrumApprox":
        """Computed bands, with the hull opened upward.

        Band-gap backgrounds are unbounded above.
        """
        if not bs.bands:
            raise ValueError("band structure is empty")
        return cls(tuple(bs.bands), (bs.bands[0][0], math.inf))

    def distance(self, x: float) -> float:
        return BandStructure(self.intervals).distance(x)


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


def gamma_a_contains(lam: complex, sigma_e: EssentialSpectrumApprox,
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
    return sigma_e.distance(lam.real) <= bound + tol


def gamma_b_contains(lam: complex, sigma_e: EssentialSpectrumApprox,
                     strip: StripParams, tol: float = 0.0) -> bool:
    """Rectangle enclosure: Re on the spectrum, Im in gamma [s_minus, s_plus]."""
    y = lam.imag
    lo = strip.gamma * strip.s_minus
    hi = strip.gamma * strip.s_plus
    return (lo - tol <= y <= hi + tol) and sigma_e.distance(lam.real) <= tol


def we_strip_contains(lam: complex, sigma_e: EssentialSpectrumApprox,
                      strip: StripParams, tol: float = 0.0) -> bool:
    """Numerical-range strip: Re in the convex hull, Im in gamma [s-, s+]."""
    y = lam.imag
    lo = strip.gamma * strip.s_minus
    hi = strip.gamma * strip.s_plus
    if not (lo - tol <= y <= hi + tol):
        return False
    h_lo, h_hi = sigma_e.convex_hull
    return h_lo - tol <= lam.real <= h_hi + tol


def l1_lambda_limit(lam, gamma):
    """Large-R limit -i (sqrt(lam - i gamma) + sqrt(lam)) of the pollution factor.

    Never vanishes, because the two principal square roots both have
    nonnegative imaginary part and cannot be exact negatives of each other;
    a positive lower bound on a region certifies that persistent pollution
    is absent there for integrable-tail backgrounds.
    """
    return -1j * (principal_sqrt(lam - 1j * complex(gamma)) + principal_sqrt(lam))
