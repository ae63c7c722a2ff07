"""Floquet analysis of the periodic tail.

Monodromy of the period cell, discriminant, multipliers and exponent, real
band structure, quasi-periodic solutions, the persistent-pollution zero set
for barrier widths advancing by whole periods, and embedded resonances on
the bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _ode
from .core import (
    DomainError,
    PeriodicTail,
    PotentialModel,
    Rectangle,
    Sheet,
    SpecbarError,
    principal_sqrt,
)
from .rootfinder import (
    AnalyticFunctionHandle,
    HorizontalSegment,
    RootSet,
    find_zeros,
)

__all__ = [
    "Monodromy",
    "FloquetData",
    "BandStructure",
    "IntegrationError",
    "BranchPointError",
    "BandResolutionError",
    "monodromy",
    "floquet_data",
    "bands",
    "floquet_solution",
    "sp_zeros",
    "embedded_resonances",
]

_DET_TOL = 1e-8
_BRANCH_TOL = 1e-12
_NULL_VECTOR_TOL = 1e-8


class IntegrationError(SpecbarError):
    """Monodromy integration lost the Wronskian normalization."""


class BranchPointError(SpecbarError):
    """The discriminant is too close to +-2 to resolve the multiplier branch."""


class BandResolutionError(SpecbarError):
    """The band scan grid could not resolve all band ends."""


@dataclass(frozen=True)
class Monodromy:
    """Values of the canonical cell solutions at the end of one period.

    phi1 has (value, derivative) = (1, 0) at the cell start, phi2 has
    (0, 1).  Fields are complex scalars, or ndarrays when evaluated on an
    array of spectral points.
    """

    phi1_end: complex
    phi1p_end: complex
    phi2_end: complex
    phi2p_end: complex
    z: complex
    start: float
    period: float

    @property
    def det(self):
        return self.phi1_end * self.phi2p_end - self.phi1p_end * self.phi2_end

    @property
    def discriminant(self):
        return self.phi1_end + self.phi2p_end


@dataclass(frozen=True)
class FloquetData:
    """Discriminant, multipliers and exponent at one spectral point."""

    D: complex
    rho_plus: complex
    rho_minus: complex
    k: complex
    sheet: Sheet


@dataclass(frozen=True)
class BandStructure:
    """Sorted disjoint real intervals where the discriminant satisfies |D| <= 2."""

    bands: tuple[tuple[float, float], ...]

    @property
    def band_ends(self) -> tuple[float, ...]:
        return tuple(e for band in self.bands for e in band)

    def distance(self, x: float) -> float:
        best = math.inf
        for lo, hi in self.bands:
            if x < lo:
                best = min(best, lo - x)
            elif x > hi:
                best = min(best, x - hi)
            else:
                return 0.0
        return best

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.distance(x) <= tol


def _require_periodic(model: PotentialModel) -> PeriodicTail:
    if not isinstance(model.tail, PeriodicTail):
        raise DomainError("operation requires a model with a periodic tail")
    return model.tail


def _monodromy_arrays(model: PotentialModel, z, ode_step: float):
    """Both canonical cell solutions at the cell end, from one propagation."""
    tail = _require_periodic(model)
    z = np.asarray(z, dtype=complex)
    x0, x1 = tail.start, tail.start + tail.period
    # columns phi1, phi2 on a leading axis: (u, u') = (1, 0) and (0, 1)
    seeds = np.eye(2).reshape((2, 2) + (1,) * z.ndim)
    u, up, logs = _ode.propagate(model, z, x0, x1, seeds[0], seeds[1],
                                 step=ode_step)
    scale = np.exp(logs)
    u, up = u * scale, up * scale
    return u[0], up[0], u[1], up[1]


def monodromy(model: PotentialModel, z, ode_step: float = 1e-3) -> Monodromy:
    """Propagate the canonical cell solutions over one period of the tail.

    Raises IntegrationError when the Wronskian determinant drifts from 1 by
    more than 1e-8, which indicates an insufficient step size.
    """
    tail = _require_periodic(model)
    p1, p1p, p2, p2p = _monodromy_arrays(model, z, ode_step)
    det = p1 * p2p - p1p * p2
    # Wronskian verification at the scale of its constituent products:
    # growing cell solutions make an absolute comparison meaningless
    scale = np.maximum(1.0, np.abs(p1 * p2p) + np.abs(p1p * p2))
    drift = np.max(np.abs(det - 1.0) / scale)
    if drift > _DET_TOL:
        raise IntegrationError(
            f"monodromy determinant drift {drift:.3e} exceeds {_DET_TOL}; "
            f"reduce ode_step"
        )
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    if scalar:
        return Monodromy(complex(p1), complex(p1p), complex(p2), complex(p2p),
                         complex(z), tail.start, tail.period)
    return Monodromy(p1, p1p, p2, p2p, np.asarray(z, dtype=complex),
                     tail.start, tail.period)


def _split_multipliers(D):
    """Both multiplier candidates (D +- i sqrt(4 - D^2)) / 2."""
    w = principal_sqrt(np.asarray(D, dtype=complex) ** 2 * (-1) + 4.0)
    ra = 0.5 * (D + 1j * w)
    rb = 0.5 * (D - 1j * w)
    return ra, rb


def _select_rho(D, sheet: Sheet):
    """Multiplier with |rho| < 1 off the bands (principal) or its swap (second).

    The large-modulus root of rho^2 - D rho + 1 = 0 is computed by the
    explicit formula (no cancellation) and the small one as its reciprocal,
    which keeps both accurate when |D| is huge.  For real D in [-2, 2] both
    candidates are unimodular; the principal choice then takes the + sign,
    matching Im sqrt(4 - D^2) >= 0.
    """
    ra, rb = _split_multipliers(D)
    abs_a = np.abs(ra)
    abs_b = np.abs(rb)
    tie = np.abs(abs_a - abs_b) <= 1e-8 * (abs_a + abs_b)
    big = np.where(abs_a >= abs_b, ra, rb)
    small = 1.0 / big
    if sheet is Sheet.PRINCIPAL:
        rho_p = np.where(tie, ra, small)
        rho_m = np.where(tie, rb, big)
    else:
        rho_p = np.where(tie, rb, big)
        rho_m = np.where(tie, ra, small)
    return rho_p, rho_m


def _multipliers(mono: Monodromy, sheet: Sheet):
    """Discriminant and the multipliers (rho_plus, rho_minus) on the sheet."""
    D = mono.discriminant
    if np.min(np.abs(np.abs(np.asarray(D)) - 2.0)) < _BRANCH_TOL:
        raise BranchPointError(f"discriminant {D} is at a band end (|D| = 2)")
    rho_p, rho_m = _select_rho(D, sheet)
    return D, rho_p, rho_m


def floquet_data(model: PotentialModel, z, sheet: Sheet = Sheet.PRINCIPAL,
                 ode_step: float = 1e-3) -> FloquetData:
    """Discriminant, multipliers and exponent k = -(i/a) log(rho_plus).

    The principal sheet selects the multiplier of modulus < 1 away from the
    bands; the second sheet negates the inner square root, which is the
    analytic continuation across a band interior.  Points within 1e-12 of a
    band end (|D| = 2) raise BranchPointError.
    """
    tail = _require_periodic(model)
    D, rho_p, rho_m = _multipliers(monodromy(model, z, ode_step), sheet)
    k = (-1j / tail.period) * np.log(rho_p)
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    if scalar:
        return FloquetData(complex(np.asarray(D)), complex(rho_p), complex(rho_m),
                           complex(k), sheet)
    return FloquetData(D, rho_p, rho_m, k, sheet)


# ---------------------------------------------------------------------------
# Band structure
# ---------------------------------------------------------------------------

def _discriminant_real(model: PotentialModel, z: np.ndarray, ode_step: float):
    p1, p1p, p2, p2p = _monodromy_arrays(model, z.astype(complex), ode_step)
    D = p1 + p2p
    return D.real


def _scan_crossings(model, grid_z, g, ode_step, tol):
    """Refine every sign change of g = |D| - 2 on the grid by 16-section.

    Each round evaluates 15 interior points of every bracket in one call and
    keeps the sixteenth that holds the first sign change.  The rounds stand
    for four bisections each, enough for three decades beyond tol.
    """
    lo_idx = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
    if len(lo_idx) == 0:
        return np.array([])
    a = grid_z[lo_idx]
    b = grid_z[lo_idx + 1]
    ga = g[lo_idx]
    span = float(b[0] - a[0])
    # three decades beyond tol keeps the residual |g| below ~10 tol even
    # where the discriminant crosses steeply
    bits = min(60, max(1, math.ceil(math.log2(max(span / (1e-3 * tol), 2.0)))))
    frac = np.arange(1, 16) / 16.0
    rows = np.arange(len(a))
    for _ in range(math.ceil(bits / 4)):
        inner = a[:, None] + (b - a)[:, None] * frac
        gi = np.abs(_discriminant_real(model, inner.ravel(), ode_step)) - 2.0
        gi = gi.reshape(inner.shape)
        change = np.sign(ga)[:, None] * np.sign(gi) < 0
        # the sixteenth [x_j, x_j+1] with x_0 = a, x_16 = b
        j = np.where(change.any(axis=1), np.argmax(change, axis=1), 15)
        xs = np.column_stack([a, inner, b])
        gs = np.column_stack([ga, gi])
        a, b, ga = xs[rows, j], xs[rows, j + 1], gs[rows, j]
    return 0.5 * (a + b)


def bands(model: PotentialModel, z_min: float, z_max: float, tol: float = 1e-10,
          grid: int = 2000, ode_step: float = 1e-3) -> BandStructure:
    """Real intervals of [z_min, z_max] where |D| <= 2, ends located to tol.

    The discriminant is evaluated once on a grid of 2 grid - 1 points; its
    even points form the coarse scan.  The scan doubles its grid when the
    fine scan finds a different number of sign changes than the coarse one
    (a band squeezed inside one cell); after three retries it raises
    BandResolutionError.  Each sign change of the fine scan is refined by
    16-section, all brackets in one discriminant call per round.  Intervals
    reaching the scan boundary are clipped there.
    """
    _require_periodic(model)
    if not z_min < z_max:
        raise ValueError("need z_min < z_max")
    n = grid
    for _ in range(4):
        zg2 = np.linspace(z_min, z_max, 2 * n - 1)
        g2 = np.abs(_discriminant_real(model, zg2, ode_step)) - 2.0
        g = g2[::2]
        n_cross = int(np.sum(np.sign(g[:-1]) * np.sign(g[1:]) < 0))
        n_cross2 = int(np.sum(np.sign(g2[:-1]) * np.sign(g2[1:]) < 0))
        if n_cross == n_cross2:
            zg, g = zg2, g2
            break
        n *= 2
    else:
        raise BandResolutionError(
            f"band ends still unresolved at grid size {n}; range [{z_min}, {z_max}]"
        )
    ends = list(_scan_crossings(model, zg, g, ode_step, tol))
    points = sorted(ends)
    intervals: list[tuple[float, float]] = []
    inside = g[0] <= 0.0
    left = z_min if inside else None
    for p in points:
        if inside:
            intervals.append((left, p))
            inside = False
        else:
            left = p
            inside = True
    if inside:
        intervals.append((left, z_max))
    return BandStructure(tuple(intervals))


# ---------------------------------------------------------------------------
# Floquet solutions
# ---------------------------------------------------------------------------

def _solution_arrays(model, x: float, z, sign: str, sheet: Sheet,
                     ode_step: float):
    """(value, derivative, logs) of the quasi-periodic solution at x.

    The cell-start eigenvector (-phi2(end), phi1(end) - rho) of one checked
    monodromy is propagated to x within its cell, or backwards below the
    tail; whole periods beyond contribute the power of the multiplier.
    """
    tail = _require_periodic(model)
    z = np.asarray(z, dtype=complex)
    mono = monodromy(model, z, ode_step)
    _, rho_p, rho_m = _multipliers(mono, sheet)
    rho = rho_p if sign == "plus" else rho_m
    ncell = max(0, math.floor((x - tail.start) / tail.period + 1e-12))
    x0 = x - ncell * tail.period
    val, der = -mono.phi2_end, mono.phi1_end - rho
    logs = ncell * np.log(np.abs(rho))
    if not math.isclose(x0, tail.start, rel_tol=0.0, abs_tol=1e-15):
        val, der, dlogs = _ode.propagate(model, z, tail.start, x0, val, der,
                                         step=ode_step)
        logs = logs + dlogs
    if ncell:
        phase = np.exp(1j * ncell * np.angle(rho))
        val, der = val * phase, der * phase
    return val, der, logs


def _null_cell_vector(model: PotentialModel, z, ode_step: float):
    """True where the decaying cell-start eigenvector vanishes.

    The eigenvector (-phi2(end), phi1(end) - rho_plus) of the monodromy
    comes from its first row; it is zero where phi2(end) = 0 and
    rho_plus = phi1(end), that is where the Dirichlet solution phi2 carries
    the growing multiplier.  Zeros of functions built from it there are no
    spectral points.  At a genuine Dirichlet eigenvalue, where phi2 decays,
    the vector is (0, rho_minus - rho_plus) instead.  Vanishing means
    |vector| <= 1e-8 max |M_ij|.
    """
    mono = monodromy(model, np.asarray(z, dtype=complex), ode_step)
    _, rho_p, _ = _multipliers(mono, Sheet.PRINCIPAL)
    size = np.hypot(np.abs(mono.phi2_end), np.abs(mono.phi1_end - rho_p))
    entries = (mono.phi1_end, mono.phi1p_end, mono.phi2_end, mono.phi2p_end)
    scale = np.max(np.abs(entries), axis=0)
    return size <= _NULL_VECTOR_TOL * scale


def floquet_solution(model: PotentialModel, x: float, z, sign: str = "plus",
                     sheet: Sheet = Sheet.PRINCIPAL, ode_step: float = 1e-3):
    """Quasi-periodic solution (value, derivative) at x >= 0.

    On the fundamental cell the solution is the monodromy eigenvector
    (-phi2(end), phi1(end) - rho); beyond it the multiplier power law
    extends it, and below the tail start it is integrated backwards through
    the compact pieces.  Returns a SolutionSample whose log_scale carries
    the multiplier magnitude.
    """
    from .sturm import SolutionSample

    if x < 0:
        raise DomainError("solutions live on [0, inf)")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    val, der, logs = _solution_arrays(model, x, z, sign, sheet, ode_step)
    scalar = np.isscalar(z) or getattr(z, "ndim", 0) == 0
    if scalar:
        return SolutionSample(complex(val), complex(der), x, float(logs))
    return SolutionSample(val, der, x, logs)


# ---------------------------------------------------------------------------
# Persistent pollution set and embedded resonances
# ---------------------------------------------------------------------------

def band_exclusions(band_structure: BandStructure, offset: complex,
                    pad: float) -> tuple[HorizontalSegment, ...]:
    """Band intervals shifted by the additive complex offset, as exclusions."""
    offset = complex(offset)
    return tuple(
        HorizontalSegment(lo + offset.real, hi + offset.real, offset.imag, pad)
        for lo, hi in band_structure.bands
    )


def sp_zeros(model: PotentialModel, gamma: complex, x0: float, rect: Rectangle,
             standoff: float = 1e-3, ode_step: float = 1e-3,
             quad_tol: float = 1e-10, refine_tol: float = 1e-12,
             max_depth: int = 40) -> RootSet:
    """Zeros in rect of the cross-Wronskian that governs persistent pollution.

    The function is psi_plus(x0, lam) psi_minus'(x0, lam - i gamma)
    - psi_plus'(x0, lam) psi_minus(x0, lam - i gamma); its zeros are the
    possible pollution points for barrier widths x0 + n*period.
    """
    tail = _require_periodic(model)
    if not (tail.start <= x0 < tail.start + tail.period):
        raise DomainError("x0 must lie in the fundamental cell of the tail")
    shift = 1j * gamma
    pad_x = abs(shift.real) + 1.0
    scan_lo = min(rect.x_lo, rect.x_lo - shift.real) - pad_x
    scan_hi = max(rect.x_hi, rect.x_hi - shift.real) + pad_x
    bs = bands(model, scan_lo, scan_hi, ode_step=ode_step)
    exclusions = band_exclusions(bs, 0.0, standoff) + band_exclusions(
        bs, shift, standoff
    )

    def f(lam):
        lam = np.asarray(lam, dtype=complex)
        vp, dp, lp = _solution_arrays(model, x0, lam, "plus", Sheet.PRINCIPAL,
                                      ode_step)
        vm, dm, lm = _solution_arrays(model, x0, lam - shift, "minus",
                                      Sheet.PRINCIPAL, ode_step)
        return (vp * dm - dp * vm) * np.exp(lp + lm)

    handle = AnalyticFunctionHandle(eval=f, exclusions=exclusions)
    return find_zeros(handle, rect, quad_tol=quad_tol, refine_tol=refine_tol,
                      max_depth=max_depth)


def _rho_upper(model: PotentialModel, z: np.ndarray, ode_step: float):
    """Multiplier on a real band continued from the upper half-plane.

    Just above a band the decaying multiplier tends to (D + i s sqrt(4-D^2))/2
    with sign s opposite to D'(z); the derivative is estimated by a central
    difference.
    """
    z = np.asarray(z, dtype=float)
    D = _discriminant_real(model, z, ode_step)
    h = 1e-6
    Dp = (_discriminant_real(model, z + h, ode_step)
          - _discriminant_real(model, z - h, ode_step)) / (2 * h)
    inner = np.sqrt(np.maximum(4.0 - D ** 2, 0.0))
    s = np.where(Dp < 0, 1.0, -1.0)
    return 0.5 * (D + 1j * s * inner)


def _upper_solution_at_zero(model: PotentialModel, z, ode_step: float):
    """(value, derivative) at x = 0 of the tail solution continued from above."""
    z = np.asarray(z, dtype=complex)
    if isinstance(model.tail, PeriodicTail):
        tail = model.tail
        rho = _rho_upper(model, z.real, ode_step)
        p1, p1p, p2, p2p = _monodromy_arrays(model, z, ode_step)
        v0 = -p2
        v0p = p1 - rho
        if tail.start == 0.0:
            return v0, v0p
        val, der, logs = _ode.propagate(model, z, tail.start, 0.0, v0, v0p,
                                        step=ode_step)
        return val * np.exp(logs), der * np.exp(logs)
    # zero tail: plane wave with the upper-edge square root
    k = principal_sqrt(z)
    xt = model.compact_end
    v0 = np.exp(1j * k * xt)
    v0p = 1j * k * v0
    if xt == 0.0:
        return v0 * np.ones(z.shape), v0p * np.ones(z.shape)
    val, der, logs = _ode.propagate(model, z, xt, 0.0, v0, v0p, step=ode_step)
    return val * np.exp(logs), der * np.exp(logs)


def embedded_resonances(model: PotentialModel, band: tuple[float, float],
                        tol: float = 1e-8, grid: int = 2000,
                        ode_step: float = 1e-3,
                        standoff: float = 1e-3) -> list[float]:
    """Real zeros of the boundary form of the upper-continued tail solution.

    Scans Re BC[phi_u(., z)] for sign changes on the band, bisects each
    bracket, and keeps points whose full residual |BC[phi_u]| is below tol.
    The interval must stay inside a band (periodic tail) or inside (0, inf)
    (zero tail), away from the ends by the standoff.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError("band interval is empty")
    if isinstance(model.tail, PeriodicTail):
        bs = bands(model, lo - 1.0, hi + 1.0, ode_step=ode_step)
        if not any(b_lo + standoff <= lo and hi <= b_hi - standoff
                   for b_lo, b_hi in bs.bands):
            raise DomainError(
                f"[{lo}, {hi}] is not inside a spectral band with standoff "
                f"{standoff}"
            )
    elif lo < standoff:
        raise DomainError("interval must stay inside (0, inf) with standoff")

    eta = complex(model.eta)

    def h(z):
        val, der = _upper_solution_at_zero(model, z, ode_step)
        return np.cos(eta) * val - np.sin(eta) * der

    zg = np.linspace(lo, hi, grid)
    hv = h(zg)
    re = hv.real
    idx = np.nonzero(np.sign(re[:-1]) * np.sign(re[1:]) < 0)[0]
    out: list[float] = []
    for i in idx:
        a, b = float(zg[i]), float(zg[i + 1])
        ra = re[i]
        for _ in range(60):
            mid = 0.5 * (a + b)
            rm = h(np.array([mid]))[0].real
            if np.sign(ra) * np.sign(rm) < 0:
                b = mid
            else:
                a, ra = mid, rm
        mu = 0.5 * (a + b)
        if abs(h(np.array([mu]))[0]) < tol:
            out.append(mu)
    return out
