"""Membership predicates for the spectral enclosures of the barrier family.

Three nested regions confine where approximation can fail: a lens-shaped
region over the essential spectrum whose height profile is the square root
sqrt(Im(lam) (gamma - Im(lam))), the essential spectrum times [0, gamma],
and the convex-hull strip.  Every barrier here is gamma times a projection,
whose numerical range is [0, 1].  The essential spectrum is a BandStructure
(floquet.essential_spectrum); its convex hull is [start of the first band,
inf), since every background is unbounded above.  A closed-form limit certifies the absence of persistent
pollution for integrable-tail backgrounds.
"""

from __future__ import annotations

import math

from .core import principal_sqrt
from .floquet import BandStructure

__all__ = [
    "gamma_a_contains",
    "gamma_b_contains",
    "we_strip_contains",
    "l1_lambda_limit",
]


def _check_gamma(gamma: float) -> None:
    if gamma <= 0:
        raise ValueError("gamma must be positive")


def gamma_a_contains(lam: complex, sigma_e: BandStructure,
                     gamma: float, tol: float = 0.0) -> bool:
    """Projection-barrier enclosure membership.

    True when Im(lam) lies in [0, gamma] and the distance of Re(lam) to the
    essential spectrum is at most sqrt(Im(lam) (gamma - Im(lam))).  At
    Im(lam) = 0 or gamma the bound degenerates and forces Re(lam) onto the
    spectrum itself.
    """
    _check_gamma(gamma)
    y = lam.imag
    if y < -tol or y > gamma + tol:
        return False
    bound = math.sqrt(max(y * (gamma - y), 0.0))
    return bool(sigma_e.distance(lam.real) <= bound + tol)


def gamma_b_contains(lam: complex, sigma_e: BandStructure,
                     gamma: float, tol: float = 0.0) -> bool:
    """Rectangle enclosure: Re on the spectrum, Im in [0, gamma]."""
    _check_gamma(gamma)
    return bool(-tol <= lam.imag <= gamma + tol and sigma_e.distance(lam.real) <= tol)


def we_strip_contains(lam: complex, sigma_e: BandStructure,
                      gamma: float, tol: float = 0.0) -> bool:
    """Numerical-range strip: Re in the convex hull, Im in [0, gamma]."""
    _check_gamma(gamma)
    hull_lo = sigma_e.bands[0][0] if sigma_e.bands else math.inf
    return bool(-tol <= lam.imag <= gamma + tol and hull_lo - tol <= lam.real)


def l1_lambda_limit(lam, gamma):
    """Large-R limit -i (sqrt(lam - i gamma) + sqrt(lam)) of the pollution function.

    The pollution function is the cross-Wronskian W(psi_plus(lam),
    psi_minus(lam - i gamma)) at R with the carriers exp(+-i k R) divided
    out, floquet._cross_wronskian, whose zeros sp_zeros searches; on a
    zero tail it tends to this limit as R grows.  The limit never vanishes, because the two principal square roots both have
    nonnegative imaginary part and cannot be exact negatives of each other;
    a positive lower bound on a region certifies that persistent pollution
    is absent there for integrable-tail backgrounds.
    """
    return -1j * (principal_sqrt(lam - 1j * gamma) + principal_sqrt(lam))
