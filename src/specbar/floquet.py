"""Floquet analysis of the periodic tail, and the tail solution of any background.

Monodromy of the period cell, discriminant, multipliers and exponent, real
band structure, quasi-periodic solutions, the persistent-pollution zero set
of either tail, and embedded resonances on the bands.  Every spectral verb,
whatever the tail, is built from the tail solution here (a plane wave on a
zero tail, the quasi-periodic solution on a periodic one) and searched by
the one search here, which excludes the essential spectrum and its shifts.
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
    _is_scalar,
    _sample,
    principal_sqrt,
    sheeted_sqrt,
)
from .rootfinder import (
    AnalyticFunctionHandle,
    HorizontalRay,
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
    if _is_scalar(z):
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
    if _is_scalar(z):
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


def _scan_crossings(g, grid_z, gv, bits: int):
    """Refine every sign change of g on the grid to bits bits by 16-section.

    g maps a real array to real values, gv holds its values on the grid.
    Each round evaluates 15 interior points of every bracket in one call and
    keeps the sixteenth that holds the first sign change: four bisections.
    """
    lo_idx = np.nonzero(np.sign(gv[:-1]) * np.sign(gv[1:]) < 0)[0]
    if len(lo_idx) == 0:
        return np.array([])
    a = grid_z[lo_idx]
    b = grid_z[lo_idx + 1]
    ga = gv[lo_idx]
    frac = np.arange(1, 16) / 16.0
    rows = np.arange(len(a))
    for _ in range(math.ceil(bits / 4)):
        inner = a[:, None] + (b - a)[:, None] * frac
        gi = g(inner.ravel()).reshape(inner.shape)
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

    def g(z):
        return np.abs(_discriminant_real(model, z, ode_step)) - 2.0

    n = grid
    for _ in range(4):
        zg2 = np.linspace(z_min, z_max, 2 * n - 1)
        g2 = g(zg2)
        gc = g2[::2]
        n_cross = int(np.sum(np.sign(gc[:-1]) * np.sign(gc[1:]) < 0))
        n_cross2 = int(np.sum(np.sign(g2[:-1]) * np.sign(g2[1:]) < 0))
        if n_cross == n_cross2:
            zg, gv = zg2, g2
            break
        n *= 2
    else:
        raise BandResolutionError(
            f"band ends still unresolved at grid size {n}; range [{z_min}, {z_max}]"
        )
    # three decades beyond tol keeps the residual |g| below ~10 tol even
    # where the discriminant crosses steeply
    span = float(zg[1] - zg[0])
    bits = min(60, max(1, math.ceil(math.log2(max(span / (1e-3 * tol), 2.0)))))
    points = sorted(_scan_crossings(g, zg, gv, bits))
    intervals: list[tuple[float, float]] = []
    inside = gv[0] <= 0.0
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


def _essential_exclusions(model: PotentialModel, offsets, rect: Rectangle,
                          pad: float, ode_step: float):
    """The background's essential spectrum, shifted by each offset, as exclusions.

    A zero tail gives the rays offset + [0, inf).  A periodic tail gives
    its bands shifted by each offset, scanned over the real range that the
    shifts can move into rect, widened by max |Re offset| + 1.
    """
    offsets = [complex(o) for o in offsets]
    if not isinstance(model.tail, PeriodicTail):
        return tuple(HorizontalRay(o.real, o.imag, pad) for o in offsets)
    margin = max(abs(o.real) for o in offsets) + 1.0
    bs = bands(model, min(rect.x_lo - o.real for o in offsets) - margin,
               max(rect.x_hi - o.real for o in offsets) + margin,
               ode_step=ode_step)
    return tuple(HorizontalSegment(lo + o.real, hi + o.real, o.imag, pad)
                 for o in offsets for lo, hi in bs.bands)


# ---------------------------------------------------------------------------
# Floquet solutions
# ---------------------------------------------------------------------------

def _cell_vector(mono: Monodromy, rho):
    """Cell-start eigenvector (-phi2(end), phi1(end) - rho) of the monodromy.

    It comes from the first row of M - rho; it vanishes where phi2(end) = 0
    and rho = phi1(end).
    """
    return -mono.phi2_end, mono.phi1_end - rho


def _cell_solution(model: PotentialModel, x: float, mono: Monodromy, rho,
                   ode_step: float):
    """(value, derivative, logs) at x of the solution with multiplier rho.

    The cell-start eigenvector is propagated to x within its cell, or
    backwards below the tail; whole periods beyond contribute the power of
    the multiplier.
    """
    tail = model.tail
    ncell = max(0, math.floor((x - tail.start) / tail.period + 1e-12))
    x0 = x - ncell * tail.period
    val, der = _cell_vector(mono, rho)
    logs = ncell * np.log(np.abs(rho))
    if not math.isclose(x0, tail.start, rel_tol=0.0, abs_tol=1e-15):
        val, der, dlogs = _ode.propagate(model, mono.z, tail.start, x0, val,
                                         der, step=ode_step)
        logs = logs + dlogs
    if ncell:
        phase = np.exp(1j * ncell * np.angle(rho))
        val, der = val * phase, der * phase
    return val, der, logs


def _solution_arrays(model: PotentialModel, x: float, z, sign: str,
                     sheet: Sheet, ode_step: float):
    """(value, derivative, logs) at x of the tail solution of the background.

    This is the one solution of -u'' + q u = z u that the characteristic,
    the limit operator and the pollution cross-Wronskians are built from.
    Sign "plus" is the solution that decays on the principal sheet, "minus"
    the other one.  On a zero tail it is exp(+-i k x_t), with
    k = sheeted_sqrt(z, sheet) and x_t = max(x, end of the pieces),
    propagated back to x.  On a periodic tail it is the quasi-periodic
    solution with multiplier rho_plus or rho_minus of one checked
    monodromy.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(model.tail, PeriodicTail):
        mono = monodromy(model, z, ode_step)
        _, rho_p, rho_m = _multipliers(mono, sheet)
        return _cell_solution(model, x, mono, rho_p if sign == "plus" else rho_m,
                              ode_step)
    ik = (1j if sign == "plus" else -1j) * sheeted_sqrt(z, sheet)
    xt = max(x, model.compact_end)
    val = np.exp(ik * xt)
    der = ik * val
    if xt > x:
        return _ode.propagate(model, z, xt, x, val, der, step=ode_step)
    return val, der, np.zeros(z.shape)


def _null_cell_vector(model: PotentialModel, z, sign: str, sheet: Sheet,
                      ode_step: float):
    """True where the cell-start eigenvector of a tail solution vanishes.

    The eigenvector for the multiplier rho of the sign and sheet vanishes
    where phi2(end) = 0 and rho = phi1(end), that is where the Dirichlet
    solution phi2 carries the other multiplier.  Vanishing means
    |vector| <= 1e-8 max |M_ij|.
    """
    mono = monodromy(model, np.asarray(z, dtype=complex), ode_step)
    _, rho_p, rho_m = _multipliers(mono, sheet)
    val, der = _cell_vector(mono, rho_p if sign == "plus" else rho_m)
    size = np.hypot(np.abs(val), np.abs(der))
    entries = (mono.phi1_end, mono.phi1p_end, mono.phi2_end, mono.phi2p_end)
    scale = np.max(np.abs(entries), axis=0)
    return size <= _NULL_VECTOR_TOL * scale


def _spectral_zeros(model: PotentialModel, f, rect: Rectangle, offsets,
                   solutions, pad: float, ode_step: float) -> RootSet:
    """Zeros in rect of f, a function built from tail solutions of the background.

    This is the one search of every spectral verb.  It excludes the
    essential spectrum shifted by each offset, padded by pad, and finds the
    zeros with the defaults of find_zeros.  solutions lists (offset, sign,
    sheet), one for each tail solution f is built from, taken at
    lam - offset.  On a periodic tail that solution is its cell-start
    eigenvector propagated, so where the vector vanishes f vanishes
    whatever the spectrum: such zeros are no spectral points and are
    dropped.  A zero tail keeps every root.
    """
    exclusions = _essential_exclusions(model, offsets, rect, pad, ode_step)
    roots = find_zeros(AnalyticFunctionHandle(eval=f, exclusions=exclusions),
                       rect)
    if not isinstance(model.tail, PeriodicTail) or not roots.roots:
        return roots
    lam = np.array(roots.locations)
    null = np.zeros(lam.shape, dtype=bool)
    for offset, sign, sheet in solutions:
        null |= _null_cell_vector(model, lam - offset, sign, sheet, ode_step)
    return RootSet(tuple(r for r, drop in zip(roots.roots, null) if not drop))


def floquet_solution(model: PotentialModel, x: float, z, sign: str = "plus",
                     sheet: Sheet = Sheet.PRINCIPAL, ode_step: float = 1e-3):
    """Quasi-periodic solution (value, derivative) at x >= 0.

    This is the tail solution of a periodic background: on the fundamental
    cell it is the monodromy eigenvector (-phi2(end), phi1(end) - rho);
    beyond it the multiplier power law extends it, and below the tail start
    it is integrated backwards through the compact pieces.  Returns a
    SolutionSample whose log_scale carries the multiplier magnitude.
    """
    _require_periodic(model)
    if x < 0:
        raise DomainError("solutions live on [0, inf)")
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    val, der, logs = _solution_arrays(model, x, z, sign, sheet, ode_step)
    return _sample(val, der, x, logs, _is_scalar(z))


# ---------------------------------------------------------------------------
# Persistent pollution set and embedded resonances
# ---------------------------------------------------------------------------

def _cross_wronskian(model: PotentialModel, gamma: complex, x: float, lam,
                     ode_step: float):
    """W(psi_plus(lam), psi_minus(lam - i gamma)) at x, normalized.

    On a zero tail each solution is divided by its carrier exp(+-i k x),
    which keeps the function of moderate size over large rectangles.
    """
    lam = np.asarray(lam, dtype=complex)
    z = lam - 1j * complex(gamma)
    vp, dp, lp = _solution_arrays(model, x, lam, "plus", Sheet.PRINCIPAL,
                                  ode_step)
    vm, dm, lm = _solution_arrays(model, x, z, "minus", Sheet.PRINCIPAL,
                                  ode_step)
    expo = lp + lm
    if not isinstance(model.tail, PeriodicTail):
        expo = expo + 1j * (principal_sqrt(z) - principal_sqrt(lam)) * x
    return (vp * dm - dp * vm) * np.exp(expo)


def sp_zeros(model: PotentialModel, gamma: complex, x0: float, rect: Rectangle,
             standoff: float = 1e-3, ode_step: float = 1e-3) -> RootSet:
    """Zeros in rect of the cross-Wronskian that governs persistent pollution.

    The function is psi_plus(x0, lam) psi_minus'(x0, lam - i gamma)
    - psi_plus'(x0, lam) psi_minus(x0, lam - i gamma); its zeros are the
    possible pollution points for barrier widths x0 + n*period on a
    periodic tail, where x0 must lie in the fundamental cell.  On a zero
    tail x0 must be nonnegative; an integrable background provably has no
    zeros away from the essential spectrum, so an empty result is the
    expected outcome.  Zeros at which the cell-start eigenvector of either
    solution vanishes are dropped.
    """
    tail = model.tail
    if isinstance(tail, PeriodicTail):
        if not tail.start <= x0 < tail.start + tail.period:
            raise DomainError("x0 must lie in the fundamental cell of the tail")
    elif x0 < 0:
        raise DomainError("x0 must be nonnegative")
    shift = 1j * complex(gamma)

    def f(lam):
        return _cross_wronskian(model, gamma, x0, lam, ode_step)

    return _spectral_zeros(model, f, rect, (0.0, shift),
                           ((0.0, "plus", Sheet.PRINCIPAL),
                            (shift, "minus", Sheet.PRINCIPAL)),
                           standoff, ode_step)


def _rho_upper(model: PotentialModel, mono: Monodromy, ode_step: float):
    """Multiplier on a real band continued from the upper half-plane.

    Just above a band the decaying multiplier tends to (D + i s sqrt(4-D^2))/2
    with sign s opposite to D'(z); D comes from the monodromy, its
    derivative from a central difference.
    """
    z = np.asarray(mono.z).real
    D = np.asarray(mono.discriminant).real
    h = 1e-6
    Dp = (_discriminant_real(model, z + h, ode_step)
          - _discriminant_real(model, z - h, ode_step)) / (2 * h)
    inner = np.sqrt(np.maximum(4.0 - D ** 2, 0.0))
    s = np.where(Dp < 0, 1.0, -1.0)
    return 0.5 * (D + 1j * s * inner)


def _upper_solution_at_zero(model: PotentialModel, z, ode_step: float):
    """(value, derivative) at x = 0 of the tail solution continued from above.

    On a zero tail the principal square root already is the upper-edge
    value; on a periodic tail the multiplier is continued by _rho_upper.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(model.tail, PeriodicTail):
        mono = monodromy(model, z, ode_step)
        val, der, logs = _cell_solution(model, 0.0, mono,
                                        _rho_upper(model, mono, ode_step),
                                        ode_step)
    else:
        val, der, logs = _solution_arrays(model, 0.0, z, "plus",
                                          Sheet.PRINCIPAL, ode_step)
    return val * np.exp(logs), der * np.exp(logs)


def embedded_resonances(model: PotentialModel, band: tuple[float, float],
                        tol: float = 1e-8, grid: int = 2000,
                        ode_step: float = 1e-3,
                        standoff: float = 1e-3) -> list[float]:
    """Real zeros of the boundary form of the upper-continued tail solution.

    Scans Re BC[phi_u(., z)] for sign changes on the band, refines each
    bracket to 60 bits, and keeps points whose full residual |BC[phi_u]| is
    below tol.
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
    mu = _scan_crossings(lambda z: h(z).real, zg, h(zg).real, 60)
    if not len(mu):
        return []
    return [float(m) for m in mu[np.abs(h(mu)) < tol]]
