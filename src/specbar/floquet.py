"""Floquet analysis of the periodic tail, and the tail solution of any background.

Monodromy of the period cell, discriminant, multipliers and exponent, real
band structure, quasi-periodic solutions, the persistent-pollution zero set
of either tail, and embedded resonances on the bands.  Every spectral verb,
whatever the tail, is built from the tail solution here (a plane wave on a
zero tail, the quasi-periodic solution on a periodic one) and searched by
the one search here, which alone keeps every search rectangle a standoff
away from the essential spectrum and its shift.

Real points on an interval are found by one root step: a Chebyshev
interpolant whose degree doubles from 32 up to 4096 (past which
BandResolutionError is raised), its roots near the real axis, and Newton on
the function itself.  The bands are where the discriminant D meets +-2; the
embedded resonances are where the real part of the boundary form of the
upper-continued solution crosses 0, sampled in k = sqrt(z) on a zero tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from . import _ode
from .core import (
    DomainError,
    PeriodicTail,
    PotentialModel,
    Rectangle,
    Sheet,
    SinExpr,
    SpecbarError,
    _is_scalar,
    _sample,
    principal_sqrt,
    sheeted_sqrt,
)
from .rootfinder import AnalyticFunctionHandle, RootSet, _nudged, find_zeros

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
    "essential_spectrum",
    "floquet_solution",
    "sp_zeros",
    "embedded_resonances",
]

_DET_TOL = 1e-8
_BRANCH_TOL = 1e-12
_NULL_VECTOR_TOL = 1e-8
_CHOP = 1e-12            # trailing share of the largest Chebyshev coefficient
_DEGREES = (32, 64, 128, 256, 512, 1024, 2048, 4096)   # tried by _crossings in turn
_NEAR_AXIS = 1e-3        # largest |Im| of a root of p - level, as a share of the range
_NEWTON_ROUNDS = 12      # at most, polishing the crossings on the function itself


class IntegrationError(SpecbarError):
    """Monodromy integration lost the Wronskian normalization."""


class BranchPointError(SpecbarError):
    """The discriminant is too close to +-2 to resolve the multiplier branch."""


class BandResolutionError(SpecbarError):
    """A Chebyshev interpolant (of D, or of a boundary form) passed degree 4096."""


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
    """Sorted disjoint real intervals: the bands where |D| <= 2, or [0, inf).

    It is the essential spectrum of a background (essential_spectrum); the
    last interval may be unbounded.  distance is the one measure of how far
    a point or an interval lies from it.
    """

    bands: tuple[tuple[float, float], ...]

    @property
    def band_ends(self) -> tuple[float, ...]:
        return tuple(e for band in self.bands for e in band)

    def distance(self, a, b=None):
        """Distance of the interval [a, b] ([a, a] if b is None) to the bands.

        It is the minimum over the bands [lo, hi] of max(lo - b, a - hi, 0),
        elementwise over arrays a and b: 0 on a band, NaN where a or b is
        NaN, and inf when there are no bands.
        """
        a = np.asarray(a, dtype=float)[..., None]
        b = a if b is None else np.asarray(b, dtype=float)[..., None]
        lo, hi = np.reshape(self.bands, (-1, 2)).T
        return np.maximum(np.maximum(lo - b, a - hi), 0.0).min(axis=-1, initial=math.inf)


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


def _select_rho(D, sheet: Sheet):
    """Multiplier with |rho| < 1 off the bands (principal) or its swap (second).

    The large-modulus root of rho^2 - D rho + 1 = 0 is computed by the
    explicit formula (no cancellation) and the small one as its reciprocal,
    which keeps both accurate when |D| is huge.  For real D in [-2, 2] both
    candidates are unimodular; the principal choice then takes the + sign,
    matching Im sqrt(4 - D^2) >= 0.
    """
    w = principal_sqrt(np.asarray(D, dtype=complex) ** 2 * (-1) + 4.0)
    ra = 0.5 * (D + 1j * w)     # the candidates (D +- i sqrt(4 - D^2)) / 2
    rb = 0.5 * (D - 1j * w)
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
    return (p1 + p2p).real


def _crossings(f, lo: float, hi: float, levels):
    """Newton-polished points of (lo, hi) where the real function f meets a level.

    f maps a real array to real values.  Its Chebyshev interpolant p on
    [lo, hi] doubles its degree from 32 until the last eight coefficients
    fall below 1e-12 of the largest (Chebfun's chop); past degree 4096 it
    raises BandResolutionError.  Each root of p - v, for v in levels, within
    1e-3 of the range from the real axis gives the starts Re z +- |Im z|
    inside (lo, hi).  Newton then runs on f itself, with p' as the slope and
    the level nearest p(z) as the target, so f, not the interpolant's
    rounding, decides.  Returns the polished points, clipped to [lo, hi], and
    the crossings among them: the sorted points strictly inside (lo, hi)
    whose last step fell below 1e-12 of the range, one for each run of such
    points that coincide to that resolution.
    """
    for degree in _DEGREES:
        p = Chebyshev.interpolate(f, degree, domain=(lo, hi))
        c = np.abs(p.coef)
        if np.max(c[-8:]) <= _CHOP * np.max(c):
            break
    else:
        raise BandResolutionError(f"interpolant not resolved at degree {degree} "
                                  f"on [{lo}, {hi}]")
    r = np.concatenate([(p - v).roots() for v in levels])
    r = r[np.abs(r.imag) <= _NEAR_AXIS * (hi - lo)]
    z = np.unique(np.concatenate([r.real - np.abs(r.imag), r.real + np.abs(r.imag)]))
    z = z[(lo < z) & (z < hi)]
    levels = np.asarray(levels, dtype=float)
    target = levels[np.argmin(np.abs(p(z)[:, None] - levels), axis=1)]
    dp = p.deriv()
    step = np.full(len(z), np.inf)
    for _ in range(_NEWTON_ROUNDS if len(z) else 0):
        slope = dp(z)
        slope[slope == 0] = np.inf          # a flat point stays put
        z, prev = np.clip(z - (f(z) - target) / slope, lo, hi), z
        step = np.abs(z - prev)
        if np.max(step) <= 1e-15 * (hi - lo):
            break
    near = 1e-12 * (hi - lo)
    x = np.sort(z[(lo < z) & (z < hi) & (step <= near)])
    return z, x[np.diff(x, prepend=-np.inf) > near]


def _tail_minimum(model: PotentialModel) -> float:
    """Minimum of the periodic tail's potential: no band lies below it."""
    expr = model.tail.expr
    return -abs(expr.amplitude) if isinstance(expr, SinExpr) else expr.value.real


def bands(model: PotentialModel, z_min: float, z_max: float,
          ode_step: float = 1e-3) -> BandStructure:
    """Real intervals of [z_min, z_max] where |D| <= 2, ends polished to rounding.

    Any range with a finite z_max is answered, z_min = -inf included; any
    other raises ValueError.  No band lies below the
    tail potential's minimum q_min, so a range wholly below it holds none
    and D is not sampled; otherwise D is interpolated from max(z_min, q_min)
    up, since below q_min D grows like exp(T sqrt(q_min - z)), which would
    swamp the interpolant's accuracy near the bands.  D is
    entire, so its Chebyshev interpolant p converges geometrically.  A range
    whose interpolant is unresolved at degree 4096 is halved, down to pieces
    1/16 as wide; an unresolved piece of that width raises
    BandResolutionError.  Each root of p - 2 and
    p + 2 within 1e-3 of the range from the real axis starts Newton on D
    itself, so D, not the interpolant's rounding, decides a gap lower than
    that rounding (_crossings).  A piece between consecutive ends is a band
    when |D| <= 2 at its middle, by the exact sign, so a closed gap (a double
    root) and a start that found no end join their neighbours.  Intervals
    reaching the range boundary are clipped there.
    """
    _require_periodic(model)
    # D cannot be interpolated on an unbounded range: z_max must be finite
    if not z_min < z_max < math.inf:
        raise ValueError(f"need z_min < z_max < inf, got [{z_min}, {z_max}]")
    q_min = _tail_minimum(model)
    if not q_min < z_max:
        return BandStructure(())
    lo = max(z_min, q_min)

    def D(z):
        return _discriminant_real(model, z, ode_step)

    # on a wide range from q_min (the sin tail's to 2500, say) the noise of
    # the sampled D exceeds 1e-12 of its largest coefficient at every
    # degree; narrower pieces chop, so such a range is halved until they do
    pieces, z = [(lo, z_max)], [np.array([lo, z_max])]
    while pieces:
        a, b = pieces.pop()
        try:
            z.append(_crossings(D, a, b, (2.0, -2.0))[0])
        except BandResolutionError:
            if b - a <= (z_max - lo) / 16:
                raise
            pieces += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
    cuts = np.unique(np.concatenate(z))
    inside = np.abs(D(0.5 * (cuts[:-1] + cuts[1:]))) <= 2.0
    # a cut is a band end where the pieces on its two sides differ
    ends = cuts[np.diff(np.concatenate([[False], inside, [False]]))].tolist()
    return BandStructure(tuple(zip(ends[::2], ends[1::2])))


def essential_spectrum(model: PotentialModel, lo: float, hi: float,
                       ode_step: float) -> BandStructure:
    """Essential spectrum of the background: [0, inf) or the bands in [lo, hi].

    A zero tail gives [0, inf) whatever the range; a periodic tail gives
    its bands in [lo, hi], clipped there; lo may be -inf, as in bands.
    """
    if not isinstance(model.tail, PeriodicTail):
        return BandStructure(((0.0, math.inf),))
    return bands(model, lo, hi, ode_step=ode_step)


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
    propagated back to x; the carrier is kept in log form, its modulus in
    logs, so it neither overflows nor underflows at large x_t.  On a
    periodic tail it is the quasi-periodic solution with multiplier
    rho_plus or rho_minus of one checked monodromy.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(model.tail, PeriodicTail):
        mono = monodromy(model, z, ode_step)
        _, rho_p, rho_m = _multipliers(mono, sheet)
        return _cell_solution(model, x, mono, rho_p if sign == "plus" else rho_m,
                              ode_step)
    ik = (1j if sign == "plus" else -1j) * sheeted_sqrt(z, sheet)
    xt = max(x, model.compact_end)
    expo = ik * xt
    val = np.exp(1j * expo.imag)
    der = ik * val
    if xt > x:
        val, der, logs = _ode.propagate(model, z, xt, x, val, der,
                                        step=ode_step)
        return val, der, logs + expo.real
    return val, der, expo.real


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


def _check_standoff(standoff: float) -> None:
    # NaN fails the comparison too, where standoff <= 0 would let it pass
    if not 0.0 < standoff < math.inf:
        raise ValueError(f"standoff must be positive and finite, got {standoff}")


def _spectral_zeros(model: PotentialModel, f, rect: Rectangle, levels,
                   solutions, pad: float, ode_step: float) -> RootSet:
    """Zeros in rect of f, a function built from tail solutions of the background.

    This is the one search of every spectral verb, and the one place that
    keeps a search away from the essential spectrum.  Every contour of the
    search lies in rect nudged outward as a failed contour's retry is
    (rootfinder._nudged), so the search is refused with DomainError, before
    f is evaluated, when that nudged rectangle comes within pad of a band
    segment of the essential spectrum lifted to any imaginary level (0 or
    gamma).  A periodic tail's bands are found over the real range of rect
    widened by 1, and only when some level lies within pad of the nudged
    rectangle's imaginary range, since no band segment can touch the search
    otherwise.  It finds the zeros with the defaults of find_zeros.
    solutions lists (level, sign, sheet), one for each tail solution f is
    built from, taken at lam - i level.  On a periodic tail that solution
    is its cell-start eigenvector propagated, so where the vector vanishes
    f vanishes whatever the spectrum: such zeros are no spectral points and
    are dropped.  A zero tail keeps every root.  A pad that is not positive
    and finite raises ValueError.
    """
    _check_standoff(pad)
    box = _nudged(rect)
    dys = {y: max(y - box.y_hi, box.y_lo - y, 0.0) for y in levels}
    if min(dys.values()) <= pad:
        es = essential_spectrum(model, rect.x_lo - 1.0, rect.x_hi + 1.0, ode_step)
        dx = es.distance(box.x_lo, box.x_hi)
        for y, dy in dys.items():
            if math.hypot(dx, dy) <= pad:
                raise DomainError(f"search rectangle {rect} comes within the standoff "
                                  f"{pad} of the essential spectrum at Im {y}")
    roots = find_zeros(AnalyticFunctionHandle(eval=f), rect)
    if not isinstance(model.tail, PeriodicTail) or not roots.roots:
        return roots
    lam = np.array(roots.locations)
    null = np.zeros(lam.shape, dtype=bool)
    for level, sign, sheet in solutions:
        null |= _null_cell_vector(model, lam - 1j * level, sign, sheet, ode_step)
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

def _cross_wronskian(model: PotentialModel, gamma: float, x: float, lam,
                     ode_step: float):
    """W(psi_plus(lam), psi_minus(lam - i gamma)) at x, normalized.

    On a zero tail each solution is divided by its carrier exp(+-i k x),
    which keeps the function of moderate size over large rectangles.
    """
    lam = np.asarray(lam, dtype=complex)
    z = lam - 1j * gamma
    vp, dp, lp = _solution_arrays(model, x, lam, "plus", Sheet.PRINCIPAL,
                                  ode_step)
    vm, dm, lm = _solution_arrays(model, x, z, "minus", Sheet.PRINCIPAL,
                                  ode_step)
    expo = lp + lm
    if not isinstance(model.tail, PeriodicTail):
        expo = expo + 1j * (principal_sqrt(z) - principal_sqrt(lam)) * x
    return (vp * dm - dp * vm) * np.exp(expo)


def sp_zeros(model: PotentialModel, gamma: float, x0: float, rect: Rectangle,
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

    def f(lam):
        return _cross_wronskian(model, gamma, x0, lam, ode_step)

    return _spectral_zeros(model, f, rect, (0.0, gamma),
                           ((0.0, "plus", Sheet.PRINCIPAL),
                            (gamma, "minus", Sheet.PRINCIPAL)),
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
                        tol: float = 1e-8, ode_step: float = 1e-3,
                        standoff: float = 1e-3) -> list[float]:
    """Real zeros of the boundary form of the upper-continued tail solution.

    The crossings of Re BC[phi_u(., z)] with 0 come from one Chebyshev
    interpolant on the interval, its roots near the axis polished by Newton
    on the form itself (the root step of bands).  On a periodic tail it is
    sampled in z: Re BC is entire for a real background, and a complex one
    has its branch points at the band ends, outside the interval.  On a
    zero tail it is sampled in k = sqrt(z) on [sqrt(lo), sqrt(hi)], where
    the form is entire: in z, sqrt(z) puts a branch point at 0.  Past degree
    4096 the interpolant raises BandResolutionError.  The crossings that
    converged strictly inside the interval, those that coincide merged, are
    kept where the full residual |BC[phi_u]| is below tol.  The interval
    must stay inside a band (periodic tail) or inside (0, inf) (zero tail),
    away from the ends by the standoff, which must be positive and finite.
    """
    _check_standoff(standoff)
    lo, hi = band
    if not lo < hi:
        raise ValueError("band interval is empty")
    # bands clips its ends to the range, so an interval exactly the standoff
    # inside a band meets the clipped ends exactly
    es = essential_spectrum(model, lo - standoff, hi + standoff, ode_step)
    if not any(b_lo <= lo - standoff and hi + standoff <= b_hi
               for b_lo, b_hi in es.bands):
        raise DomainError(
            f"[{lo}, {hi}] is not inside a spectral band with standoff "
            f"{standoff}"
        )

    eta = complex(model.eta)

    def h(z):
        val, der = _upper_solution_at_zero(model, z, ode_step)
        return np.cos(eta) * val - np.sin(eta) * der

    if isinstance(model.tail, PeriodicTail):
        _, mu = _crossings(lambda z: h(z).real, lo, hi, (0.0,))
    else:
        # h(k^2) is entire in k: sampling in k = sqrt(z) removes the branch
        # point of sqrt(z) at 0
        _, k = _crossings(lambda k: h(k * k).real, math.sqrt(lo), math.sqrt(hi),
                          (0.0,))
        mu = k * k
    if not len(mu):
        return []
    return [float(m) for m in mu[np.abs(h(mu)) < tol]]
