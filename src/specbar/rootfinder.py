"""Locate all zeros of an analytic function inside a rectangle.

The zero count inside a rectangle is obtained from the argument principle:
(1/2*pi*i) times the contour integral of f'/f equals the number of zeros
counted with multiplicity.  The same contour gives the moments
s_k = sum_j m_j w_j^k, k < 8, of the zeros w_j (multiplicities m_j) in
coordinates scaled to the rectangle.  One leaf resolver turns the moments
of every counted rectangle into zeros: the Hankel pencil of Kravanja,
Sakurai & Van Barel (BIT 39, 1999), which extends the moment method of
Delves & Lyness (Math. Comp. 21, 1967), gives up to four distinct zeros
and their multiplicities, and damped Newton with the multiplicity polishes
each.  A rectangle the pencil cannot account for is bisected, and one still
unresolved at the maximum depth is reported as an error.

Function handles must evaluate vectorized over ndarrays of complex points;
the contour quadrature exploits this heavily.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .core import DomainError, Rectangle, SpecbarError, _is_scalar

__all__ = [
    "AnalyticFunctionHandle",
    "Root",
    "RootSet",
    "ExclusionRegion",
    "HorizontalRay",
    "HorizontalSegment",
    "BoundaryZeroError",
    "QuadratureError",
    "ClusterUnresolvedError",
    "winding_number",
    "find_zeros",
]

_BOUNDARY_REL = 1e-12        # |f| below this fraction of the edge max flags a boundary zero
_MOMENTS = 8                 # s_0 .. s_7: the pencil of up to four distinct zeros
_RANK_REL = 1e-8             # Hankel singular values above this * the largest make its rank
_MAX_EDGE_POINTS = 1 << 16   # cap on trapezoid refinement per edge
_INFLATE_ATTEMPTS = 5

_log = logging.getLogger("specbar.rootfinder")


class BoundaryZeroError(SpecbarError):
    """|f| is suspiciously small on the rectangle boundary."""

    def __init__(self, rect: Rectangle, message: str = ""):
        super().__init__(message or f"suspected zero on the boundary of {rect}")
        self.rect = rect


class QuadratureError(SpecbarError):
    """The contour integral failed to stabilize or is far from an integer."""


class ClusterUnresolvedError(SpecbarError):
    """A multi-zero cluster could not be separated before max_depth."""

    def __init__(self, rect: Rectangle, count: int):
        super().__init__(
            f"cluster of {count} zeros unresolved at maximum depth in {rect}"
        )
        self.rect = rect
        self.count = count


class ExclusionRegion(Protocol):
    """A closed region the search must keep away from."""

    def clearance(self, rect: Rectangle) -> float:
        """Distance from the rectangle to the region (<= 0 means contact)."""
        ...


def _interval_dist(lo: float, hi: float, x: float) -> float:
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0.0


@dataclass(frozen=True)
class HorizontalRay:
    """The ray {x + i*y : x >= x_start} inflated by pad."""

    x_start: float
    y: float
    pad: float = 0.0

    def clearance(self, rect: Rectangle) -> float:
        dy = _interval_dist(rect.y_lo, rect.y_hi, self.y)
        dx = 0.0 if rect.x_hi >= self.x_start else self.x_start - rect.x_hi
        return math.hypot(dx, dy) - self.pad


@dataclass(frozen=True)
class HorizontalSegment:
    """The segment {x + i*y : x0 <= x <= x1} inflated by pad."""

    x0: float
    x1: float
    y: float
    pad: float = 0.0

    def clearance(self, rect: Rectangle) -> float:
        dy = _interval_dist(rect.y_lo, rect.y_hi, self.y)
        if rect.x_hi < self.x0:
            dx = self.x0 - rect.x_hi
        elif rect.x_lo > self.x1:
            dx = rect.x_lo - self.x1
        else:
            dx = 0.0
        return math.hypot(dx, dy) - self.pad


@dataclass(frozen=True)
class AnalyticFunctionHandle:
    """Evaluatable analytic function with optional derivative and exclusions.

    ``eval`` must accept an ndarray of complex points and return an ndarray
    of values; ``eval_deriv``, when given, has the same contract.  Without a
    derivative a central difference with a step adapted to the local scale
    is used.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    eval_deriv: Optional[Callable[[np.ndarray], np.ndarray]] = None
    exclusions: tuple[ExclusionRegion, ...] = ()

    def __call__(self, z):
        scalar = _is_scalar(z)
        out = self.eval(np.atleast_1d(np.asarray(z, dtype=complex)))
        return complex(out[0]) if scalar else out

    def deriv(self, z, scale: float = 1.0):
        scalar = _is_scalar(z)
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if self.eval_deriv is not None:
            out = np.asarray(self.eval_deriv(arr))
        else:
            h = max(1e-9, 1e-6 * scale)
            out = (self.eval(arr + h) - self.eval(arr - h)) / (2.0 * h)
        return complex(out[0]) if scalar else out

    def check_clearance(self, rect: Rectangle) -> None:
        for region in self.exclusions:
            if region.clearance(rect) <= 0.0:
                raise DomainError(
                    f"search rectangle {rect} intersects an excluded region of the handle"
                )


@dataclass(frozen=True)
class Root:
    location: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class RootSet:
    roots: tuple[Root, ...] = ()

    @property
    def total_count(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    @property
    def locations(self) -> list[complex]:
        return [r.location for r in self.roots]

    def nearest(self, target: complex) -> Optional[Root]:
        if not self.roots:
            return None
        return min(self.roots, key=lambda r: abs(r.location - target))


# ---------------------------------------------------------------------------
# Contour integration
# ---------------------------------------------------------------------------

def _logderiv(f: AnalyticFunctionHandle, z: np.ndarray, fz: np.ndarray, scale: float):
    """f'/f at the points z, reusing the already computed values fz."""
    if f.eval_deriv is not None:
        dfz = np.asarray(f.eval_deriv(z))
    else:
        h = max(1e-12, 1e-5 * scale)
        dfz = (f.eval(z + h) - f.eval(z - h)) / (2.0 * h)
    return dfz / fz


def _edge_moments(f: AnalyticFunctionHandle, za: complex, zb: complex,
                  quad_tol: float, rect: Rectangle, centre: complex, half: float):
    """Integrals of w^k f'/f along za -> zb for k < 8, w = (z - centre)/half.

    Trapezoid sums with interval doubling and one Richardson extrapolation
    step; converged when two successive extrapolants of the integrals of
    f'/f and z f'/f = (centre + half w) f'/f agree to quad_tol.  The higher
    moments ride on the same samples.  Raises BoundaryZeroError when |f|
    dips below the boundary-zero threshold relative to the edge maximum.
    """
    dz = zb - za
    scale = abs(dz)

    def sample(ts, weights=1.0):
        z = za + ts * dz
        fz = np.asarray(f.eval(z))
        fabs = np.abs(fz)
        if not np.all(np.isfinite(fabs)):
            raise QuadratureError(
                f"function not finite on contour edge {za} -> {zb}"
            )
        if fabs.size and fabs.min() <= _BOUNDARY_REL * max(fabs.max(), 1e-300):
            raise BoundaryZeroError(rect)
        # a running power keeps the memory at one sample array
        p = _logderiv(f, z, fz, scale) * weights
        w = (z - centre) / half
        sums = np.empty(_MOMENTS, dtype=complex)
        for k in range(_MOMENTS):
            sums[k] = p.sum()
            p *= w
        return sums

    m = 32
    ts = np.linspace(0.0, 1.0, m + 1)
    weights = np.ones(m + 1)
    weights[0] = weights[-1] = 0.5
    t = sample(ts, weights) / m
    r_prev = None
    while m < _MAX_EDGE_POINTS:
        t_prev = t
        m *= 2
        t = 0.5 * t + sample((np.arange(m // 2) * 2 + 1) / m) / m
        # Richardson extrapolation of the doubled trapezoid sums
        r = t + (t - t_prev) / 3.0
        r0, r1 = r[0], centre * r[0] + half * r[1]
        if r_prev is not None:
            # Tolerances on the dz-integral scale, relative to the edge
            # contribution once it exceeds O(1).
            tol0 = quad_tol * max(1.0, abs(r0) * scale)
            tol1 = quad_tol * max(1.0, abs(r1) * scale, abs(za), abs(zb))
            if abs(r0 - r_prev[0]) * scale < tol0 and abs(r1 - r_prev[1]) * scale < tol1:
                return r * dz
        r_prev = r0, r1
    raise QuadratureError(
        f"contour quadrature did not stabilize on edge {za} -> {zb}"
    )


def _contour_moments(f: AnalyticFunctionHandle, rect: Rectangle, quad_tol: float):
    """Zero count and scaled moments from the boundary contour of rect.

    Returns (count, s) with s[k] = sum_j m_j w_j^k for k < 8, the zeros z_j
    of multiplicity m_j taken as w_j = (z_j - c)/h, c the centre of rect and
    h half its longer side.
    """
    centre = rect.center
    half = 0.5 * max(rect.width, rect.height)
    corners = rect.corners
    s = sum(_edge_moments(f, a, b, quad_tol, rect, centre, half)
            for a, b in zip(corners, corners[1:] + corners[:1])) / (2.0j * math.pi)
    n = round(s[0].real)
    if abs(s[0] - n) > 0.25:
        raise QuadratureError(
            f"contour value {s[0]} is not within 0.25 of an integer on {rect}"
        )
    return int(n), s


def _inflate_rng(rect: Rectangle, attempt: int) -> float:
    # Deterministic pseudo-random inflation factor in [1.01, 1.05].
    seed = hash((round(rect.x_lo, 12), round(rect.x_hi, 12),
                 round(rect.y_lo, 12), round(rect.y_hi, 12), attempt))
    return random.Random(seed).uniform(1.01, 1.05)


def _counts_with_inflation(f: AnalyticFunctionHandle, rect: Rectangle, quad_tol: float):
    """Contour counts, inflating the rectangle on boundary-zero suspicion.

    A quadrature that refuses to stabilize is treated the same way: it is
    the signature of a zero hugging the contour just above the detection
    threshold.
    """
    current = rect
    for attempt in range(_INFLATE_ATTEMPTS + 1):
        try:
            n, s = _contour_moments(f, current, quad_tol)
            return n, s, current
        except (BoundaryZeroError, QuadratureError) as exc:
            if attempt == _INFLATE_ATTEMPTS:
                raise
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("inflating %s after attempt %d: %s: %s", current,
                           attempt, type(exc).__name__, exc)
            current = current.scaled(_inflate_rng(current, attempt))
            f.check_clearance(current)
    raise AssertionError("unreachable")


def winding_number(f: AnalyticFunctionHandle, rect: Rectangle,
                   quad_tol: float = 1e-10) -> int:
    """Number of zeros of f inside rect, counted with multiplicity.

    Suspected boundary zeros trigger up to five retries on a rectangle
    inflated by a factor in [1.01, 1.05]; a contour value further than 0.25
    from an integer raises QuadratureError.
    """
    f.check_clearance(rect)
    n, _, _ = _counts_with_inflation(f, rect, quad_tol)
    return n


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def _cabs(z: complex) -> float:
    """|z| that saturates to inf instead of raising on huge components."""
    try:
        v = abs(z)
    except OverflowError:
        return math.inf
    return v if math.isfinite(v) else math.inf


def _newton(f: AnalyticFunctionHandle, z0: complex, refine_tol: float,
            scale: float, multiplicity: int = 1, max_iter: int = 60,
            region: Optional[Rectangle] = None):
    """Damped Newton iteration; the multiplicity-m variant takes steps m*f/f'.

    Iterates past refine_tol until the residual stagnates, so locations are
    polished to the precision the arithmetic supports rather than stopping
    at the first sub-tolerance value.  Steps leaving the confinement region
    are treated as uphill and damped.
    """
    z = z0
    fz = f(z)
    best_z, best_res = z, _cabs(fz)
    for _ in range(max_iter):
        if _cabs(fz) == 0.0:
            break
        df = f.deriv(z, scale)
        if df == 0 or not math.isfinite(_cabs(df)):
            break
        step = multiplicity * fz / df
        t = 1.0
        descended = False
        for _ in range(30):
            z_new = z - t * step
            if z_new == z:
                # the step is below the float spacing at z
                break
            if region is None or region.contains(z_new):
                f_new = f(z_new)
                if _cabs(f_new) < _cabs(fz):
                    descended = True
                    break
            t *= 0.5
        if not descended:
            break
        z, fz = z_new, f_new
        if _cabs(fz) < best_res:
            best_z, best_res = z, _cabs(fz)
        if best_res < refine_tol and abs(t * step) < 1e-14 * (1.0 + abs(z)):
            break
    return (best_z, best_res) if best_res < refine_tol else (None, best_res)


def _clean_split(f: AnalyticFunctionHandle, rect: Rectangle):
    """Child rectangles split along the longer side, on the candidate line
    whose minimum |f| (relative to the line's maximum) is largest, keeping
    the cut as far from zeros as the candidates allow."""
    vertical_cut = rect.width >= rect.height
    best = None
    for frac in (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39):
        if vertical_cut:
            xc = rect.x_lo + frac * rect.width
            seg = xc + 1j * np.linspace(rect.y_lo, rect.y_hi, 129)
        else:
            yc = rect.y_lo + frac * rect.height
            seg = np.linspace(rect.x_lo, rect.x_hi, 129) + 1j * yc
        fabs = np.abs(f.eval(seg))
        score = fabs.min() / max(fabs.max(), 1e-300)
        if best is None or score > best[0]:
            best = (score, frac)
            if score > 0.05:
                break
    score, frac = best
    if score <= _BOUNDARY_REL:
        raise BoundaryZeroError(rect, f"no zero-free split line found in {rect}")
    if vertical_cut:
        xc = rect.x_lo + frac * rect.width
        return (
            Rectangle(rect.x_lo, xc, rect.y_lo, rect.y_hi),
            Rectangle(xc, rect.x_hi, rect.y_lo, rect.y_hi),
        )
    yc = rect.y_lo + frac * rect.height
    return (
        Rectangle(rect.x_lo, rect.x_hi, rect.y_lo, yc),
        Rectangle(rect.x_lo, rect.x_hi, yc, rect.y_hi),
    )


def _multiple_zero_confirmed(f: AnalyticFunctionHandle, z: complex,
                             multiplicity: int, quad_tol: float) -> bool:
    """Winding check on a small box about z: it must count the multiplicity."""
    side = 1e-5 * max(1.0, abs(z))
    for _ in range(3):
        box = Rectangle(z.real - side, z.real + side, z.imag - side, z.imag + side)
        try:
            n_box, _, _ = _counts_with_inflation(f, box, quad_tol)
        except (BoundaryZeroError, QuadratureError):
            side *= 1.37
            continue
        return n_box == multiplicity
    return False


def _resolve_leaf(f: AnalyticFunctionHandle, rect: Rectangle, count: int,
                  s: np.ndarray, quad_tol: float, refine_tol: float):
    """The zeros of a counted rectangle from its moment pencil, or None.

    The Hankel matrix [s_(i+j)] of size min(count, 4) has the number of
    distinct zeros as its numerical rank; the eigenvalues of the pencil
    ([s_(i+j+1)], [s_(i+j)]) on its leading block of that size are the
    zeros, and a Vandermonde solve gives their multiplicities, which must
    be positive integers summing to count (Kravanja, Sakurai & Van Barel,
    BIT 39, 1999).
    Each zero is Newton-polished with its multiplicity and must stay in
    rect, a multiple one must pass a winding check on a small box, and no
    two polished zeros may draw closer than half the distance between
    their pencil estimates.  None means the rectangle must be bisected.
    """
    size = min(count, _MOMENTS // 2)
    hankel = np.array([[s[i + j] for j in range(size + 1)] for i in range(size)])
    sv = np.linalg.svd(hankel[:, :size], compute_uv=False)
    rank = int(np.sum(sv > _RANK_REL * sv[0]))
    if rank == size < count:
        return None  # more distinct zeros than the pencil can show
    w = np.linalg.eigvals(np.linalg.solve(hankel[:rank, :rank],
                                          hankel[:rank, 1:rank + 1]))
    mult = np.linalg.solve(np.vander(w, rank, increasing=True).T, s[:rank])
    whole = np.round(mult.real).astype(int)
    if np.any(np.abs(mult - whole) > 0.25) or np.any(whole < 1) or whole.sum() != count:
        return None
    scale = max(rect.width, rect.height)
    estimates = rect.center + 0.5 * scale * w
    roots = []
    for z0, m in zip(estimates, whole):
        z, res = _newton(f, complex(z0), refine_tol, scale, multiplicity=int(m),
                         region=rect.scaled(2.0))
        if z is None or not rect.contains(z) or (
                m > 1 and not _multiple_zero_confirmed(f, z, m, quad_tol)):
            return None
        roots.append(Root(z, int(m), res))
    zs = np.array([r.location for r in roots])
    apart = np.abs(zs[:, None] - zs) > 0.5 * np.abs(estimates[:, None] - estimates)
    if not np.all(apart | np.eye(rank, dtype=bool)):
        return None
    return roots


def find_zeros(f: AnalyticFunctionHandle, rect: Rectangle,
               quad_tol: float = 1e-10, refine_tol: float = 1e-12,
               max_depth: int = 40) -> RootSet:
    """All zeros of f in rect with multiplicities, via the moment pencil.

    Every rectangle with a nonzero winding count goes to one leaf resolver:
    the Hankel pencil of its contour moments gives the distinct zeros and
    their multiplicities, and each zero is polished by damped Newton to
    |f| < refine_tol.  A rectangle the resolver cannot account for (more
    than four distinct zeros, non-integer multiplicities, a failed
    polish or winding check) is bisected; at max_depth it raises
    ClusterUnresolvedError.  The spectral verbs search with the default
    quad_tol, refine_tol and max_depth.
    """
    f.check_clearance(rect)
    roots: list[Root] = []

    def recurse(r: Rectangle, depth: int) -> None:
        # Inflation on boundary-zero suspicion can make sibling rectangles
        # overlap slightly; the duplicate-merge pass below undoes the
        # resulting double counts.
        count, s, r = _counts_with_inflation(f, r, quad_tol)
        if count == 0:
            return
        found = _resolve_leaf(f, r, count, s, quad_tol, refine_tol)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("count %d in %s: %s", count, r, "bisected" if found is None
                       else f"resolved, multiplicities {[z.multiplicity for z in found]}")
        if found is not None:
            roots.extend(found)
            return
        if depth >= max_depth:
            raise ClusterUnresolvedError(r, count)
        child_a, child_b = _clean_split(f, r)
        recurse(child_a, depth + 1)
        recurse(child_b, depth + 1)

    recurse(rect, 0)

    # Merge duplicates that can arise from refinement across shared edges.
    merged: list[Root] = []
    for root in sorted(roots, key=lambda r: (r.location.real, r.location.imag)):
        if merged and abs(root.location - merged[-1].location) < 1e-9 * (
            1.0 + abs(root.location)
        ):
            keep = max(merged[-1], root, key=lambda r: r.multiplicity)
            merged[-1] = keep
        else:
            merged.append(root)
    return RootSet(tuple(merged))
