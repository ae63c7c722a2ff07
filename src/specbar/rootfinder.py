"""Locate all zeros of an analytic function inside a rectangle.

The zero count inside a rectangle is obtained from the argument principle:
(1/2*pi*i) times the contour integral of f'/f equals the number of zeros
counted with multiplicity.  The same contour gives the moments
s_k = sum_j m_j w_j^k, k < 8, of the zeros w_j (multiplicities m_j) in
coordinates scaled to the rectangle.  No derivative enters the contour:
every edge is integrated by one panel rule, which samples f once per point
at Clenshaw-Curtis nodes; the integrals of w^k f'/f follow, by parts, from
log f with its phase unwrapped along the panel, which Clenshaw-Curtis
quadrature integrates to geometric accuracy (Trefethen, SIAM Rev. 50,
2008).  A panel is accepted when its m/2- and m-node integrals agree.  The
unsplit edge is the first panel, its nodes doubling in place from 33 to
129; an edge not resolved at 129 nodes, such as one passing close to a
zero or across a jump, goes on as adaptive dyadic panels of 33 nodes
(Kravanja & Van Barel, Computing the Zeros of Analytic Functions, LNM
1727, 2000), so that only the part near the feature is refined.  A
contour that fails, by a suspected zero on it or an edge unresolved at
2^-30 of its length, is retried once on the rectangle with every side
moved outward by 2^-20 of its longer side; a second failure raises.  One
leaf resolver turns the moments of every counted rectangle into zeros:
the Hankel pencil of Kravanja, Sakurai & Van Barel (BIT 39, 1999), which
extends the moment method of Delves & Lyness (Math. Comp. 21, 1967),
gives up to four distinct zeros and their multiplicities, and damped
Newton with the multiplicity polishes each.  A rectangle the pencil
cannot account for is bisected, and one still unresolved at the maximum
depth is reported as an error.

Function handles must evaluate vectorized over ndarrays of complex points,
and each call has a fixed cost, so the search calls its handle once per
step.  It runs breadth first, one bisection level at a time, and every
rectangle of a level shares each call: one call per contour level samples
every live edge of every rectangle, then one per level of the failed
contours' retries; one call per Newton step serves all zeros of all the
level's leaves; and one call per round of candidate cut lines serves all
its rectangles to be split.  A point or panel two rectangles of a level
need, such as a corner two edges share or the edge two siblings share, is
sampled once, and a panel sampled once, an unsplit edge or a cut line
included, is read again by every later contour of the same search through
it.  When several rectangles fail, the error raised is the first in
breadth order: the shallowest level's, and within a level the leftmost
rectangle's in bisection order.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Rectangle, SpecbarError

__all__ = [
    "AnalyticFunctionHandle",
    "Root",
    "RootSet",
    "BoundaryZeroError",
    "QuadratureError",
    "ClusterUnresolvedError",
    "winding_number",
    "find_zeros",
]

_BOUNDARY_REL = 1e-12        # |f| below this fraction of the edge max flags a boundary zero
_MOMENTS = 8                 # s_0 .. s_7: the pencil of up to four distinct zeros
_RANK_REL = 1e-8             # Hankel singular values above this * the largest make its rank
_MAX_EDGE_POINTS = 1 << 16   # cap on the samples of one edge
_PANEL_NODES = 32            # a panel has 33 Clenshaw-Curtis nodes, but an unsplit
_EDGE_NODES = 128            # edge doubles them in place up to 129 before it halves
_PANEL_DEPTH = 30            # no panel is halved below 2^-30 of its edge
_NUDGE = 2.0 ** -20          # a failed contour's retry: sides move out by this * the longer side
_QUAD_TOL = 1e-10            # edge integrals converged: successive levels agree to this
_REFINE_TOL = 1e-12          # a polished zero has |f| below this

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


@dataclass(frozen=True)
class AnalyticFunctionHandle:
    """Evaluatable analytic function.

    ``eval`` must accept an ndarray of complex points and return an ndarray
    of values; the contour quadrature and Newton read nothing else.
    """

    eval: Callable[[np.ndarray], np.ndarray]


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

@functools.lru_cache(maxsize=None)
def _clenshaw_curtis(m: int):
    """Nodes (1 - cos(pi j/m))/2, j = 0..m (m even), and their Clenshaw-Curtis
    weights on [0, 1], by Waldvogel's FFT construction (BIT 46, 2006).  The
    nodes of m are the even-numbered nodes of 2m."""
    odd = np.arange(1, m, 2)
    v0 = np.concatenate([2.0 / odd / (odd - 2.0), [1.0 / odd[-1]], np.zeros(m // 2)])
    g = -np.ones(m)
    g[m // 2] += 2 * m
    w = np.fft.ifft(-v0[:-1] - v0[:0:-1] + g / (m * m - 1)).real
    nodes = 0.5 - 0.5 * np.cos(np.pi * np.arange(m + 1) / m)
    weights = 0.5 * np.append(w, w[0])
    nodes.flags.writeable = weights.flags.writeable = False  # every caller shares them
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _panel_nodes(m: int):
    """The m + 1 Clenshaw-Curtis nodes of a panel on [0, 1], its middle
    exactly 1/2, so that a panel's halves start and end at nodes of the
    panel and the nodes of m stay the even-numbered nodes of 2m."""
    s = _clenshaw_curtis(m)[0].copy()
    s[m // 2] = 0.5
    s.flags.writeable = False
    return s


def _panel_moments(F: np.ndarray, lo: np.ndarray, hi: np.ndarray, centre, half):
    """Integrals of w^k f'/f along panels lo -> hi for k < 8, w = (z - centre)/half,
    from rows F of samples at the m + 1 nodes of each panel, m a power of 2;
    centre and half are one per row or one for all.

    L = log f, its phase unwrapped by the principal increments between
    adjacent nodes, gives the integral of f'/f as L_b - L_a and, by parts,
    the others as w_b^k L_b - w_a^k L_a - k (dz/half) * integral of
    w^(k-1) L dt.  Returns the moments (one row per panel), the difference
    between the m- and the m/2-node integral of L over each panel, and
    whether each panel kept every phase increment within pi/2, as L is
    otherwise not resolved.  The two rules share the unwrapped L, so their
    integrals of f'/f agree exactly; the integral of L tells them apart.
    """
    m = F.shape[1] - 1
    s = _panel_nodes(m)
    weights = _clenshaw_curtis(m)[1]
    centre = np.reshape(centre, (-1, 1))
    half = np.reshape(half, (-1, 1))
    step = np.angle(F[:, 1:] / F[:, :-1])
    ok = np.all(np.abs(step) <= 0.5 * np.pi, axis=1)
    # L - L_a: the parts formula is exact for any constant added to L
    L = np.log(np.abs(F / F[:, :1])).astype(complex)
    L[:, 1:] += 1j * np.cumsum(step, axis=1)
    dz = hi - lo
    w = (lo[:, None] + s * dz[:, None] - centre) / half
    powers = np.vander(w.ravel(), _MOMENTS, increasing=True).reshape(*w.shape, _MOMENTS)
    # integrals of w^(k-1) L for k = 1 .. 7
    integrals = np.matmul((weights * L)[:, None, :], powers[:, :, :-1])[:, 0]
    r = np.empty((len(F), _MOMENTS), dtype=complex)
    r[:, 0] = L[:, -1]
    r[:, 1:] = (powers[:, -1, 1:] * L[:, -1:]
                - np.arange(1, _MOMENTS) * (dz[:, None] / half) * integrals)
    diff = integrals[:, 0] - (_clenshaw_curtis(m // 2)[1] * L[:, ::2]).sum(axis=1)
    return r, diff, ok


def _mid(a: complex, b: complex) -> complex:
    """Midpoint of a panel, computed as _cut computes a cut at 0.5."""
    return complex(a.real + 0.5 * (b.real - a.real), a.imag + 0.5 * (b.imag - a.imag))


class _Samples:
    """The samples of f that one search keeps: each panel's row at the
    widest rule sampled on it, keyed by its end points (lo, hi), and the
    values at the points panels share, ends, middles and rectangle corners,
    keyed by the point."""

    __slots__ = ("panels", "points")

    def __init__(self):
        self.panels: dict = {}
        self.points: dict = {}


class _Asked:
    """The points of one call of f, each asked for once however many edges
    need it: a panel's new nodes keyed by (panel, m), a point by itself.
    ask returns where the values will stand in the call's output."""

    __slots__ = ("chunks", "size", "at")

    def __init__(self):
        self.chunks = []
        self.size = 0
        self.at: dict = {}

    def ask(self, key, z) -> slice:
        where = self.at.get(key)
        if where is None:
            where = self.at[key] = slice(self.size, self.size + len(z))
            self.chunks.append(z)
            self.size += len(z)
        return where

    def call(self, f: AnalyticFunctionHandle) -> np.ndarray:
        if not self.size:
            return np.empty(0, dtype=complex)
        return np.asarray(f.eval(np.concatenate(self.chunks)))


class _Edge:
    """Quadrature state of one contour edge za -> zb of a rectangle with
    centre and half its longer side half, within _contour_moments.

    The unsplit edge is the panel (lo, hi), whose m + 1 nodes double in
    place from 33 to _EDGE_NODES + 1; past that it halves into panels of
    33 nodes.  Every pending panel of an edge has m + 1 nodes.
    """

    __slots__ = ("za", "zb", "centre", "half", "sign", "m", "panels", "new",
                 "ends", "need", "depth", "acc", "points", "result", "error")

    def __init__(self, za: complex, zb: complex, centre: complex, half: float):
        self.za, self.zb = za, zb
        self.centre, self.half = centre, half
        # panels are kept lo -> hi in (real, imag) order, whatever the
        # direction of the edge, so that every edge through them finds them
        forward = (za.real, za.imag) < (zb.real, zb.imag)
        self.sign = 1.0 if forward else -1.0
        self.m = _PANEL_NODES
        self.panels = [(za, zb) if forward else (zb, za)]
        self.new = []               # the pending panels not yet sampled at m
        self.ends = []              # and their end points with no value yet
        self.need = []              # where their samples stand in the call
        self.depth = 0
        self.acc = 0.0
        self.points = 0
        self.result = None
        self.error = None

    def request(self, cache: _Samples, asked: _Asked) -> bool:
        """Ask for the points this edge needs sampled at the next level:
        every node of a panel new to cache, or the new odd-numbered nodes
        of the unsplit edge once its rule doubles.  False, with the error
        set, when they would take the edge past _MAX_EDGE_POINTS."""
        self.new = [p for p in self.panels if len(cache.panels.get(p, ())) <= self.m]
        self.ends, self.need = [], []
        if not self.new:
            return True
        a, b = np.array(self.new).T
        z = a[:, None] + _panel_nodes(self.m) * (b - a)[:, None]
        if self.m > _PANEL_NODES:
            rows = z[:1, 1::2]
        else:
            rows = z[:, 1:-1]
            self.ends = [e for e in dict.fromkeys(a.tolist() + b.tolist())
                         if e not in cache.points]
        if self.points + rows.size + len(self.ends) > _MAX_EDGE_POINTS:
            self.error = QuadratureError(
                f"contour quadrature did not stabilize on edge {self.za} -> {self.zb}")
            return False
        self.need = ([asked.ask((p, self.m), row) for p, row in zip(self.new, rows)]
                     + [asked.ask(e, (e,)) for e in self.ends])
        return True

    def take(self, values: np.ndarray, rect: Rectangle, cache: _Samples) -> None:
        """Check this edge's new samples and file them, whichever edge of
        the level asked for them first."""
        if not self.need:
            return
        fz = np.concatenate([values[at] for at in self.need])
        fabs = np.abs(fz)
        if not np.all(np.isfinite(fabs)):
            raise QuadratureError(f"function not finite on contour edge {self.za} -> {self.zb}")
        if fabs.min() <= _BOUNDARY_REL * max(fabs.max(), 1e-300):
            raise BoundaryZeroError(rect)
        self.points += fz.size
        if self.m > _PANEL_NODES:
            p = self.new[0]
            if len(cache.panels[p]) <= self.m:
                row = np.empty(self.m + 1, dtype=complex)
                row[::2], row[1::2] = cache.panels[p], values[self.need[0]]
                cache.panels[p] = row
            return
        n = len(self.new)
        cache.points.update(zip(self.ends, (values[at.start] for at in self.need[n:])))
        for (a, b), at in zip(self.new, self.need):
            if (a, b) not in cache.panels:  # else an edge before filed it
                row = values[at]
                cache.points[_mid(a, b)] = row[_PANEL_NODES // 2 - 1]
                cache.panels[a, b] = np.concatenate([[cache.points[a]], row, [cache.points[b]]])


def _advance_panels(edges: list, cache: _Samples) -> None:
    """One level of the panels of every edge at once.

    A panel of m + 1 nodes is accepted when its phase increments are within
    pi/2 and its m/2- and m-node integrals of z f'/f agree to _QUAD_TOL
    times its share of the edge's scale max(1, |za|, |zb|), or relative to
    the panel's own integral once that is larger.  Otherwise the unsplit
    edge doubles its nodes up to _EDGE_NODES + 1, and then it and every
    later panel is halved.  A panel still rejected at 2^-_PANEL_DEPTH of
    its edge raises QuadratureError, naming it.  All edges of one level
    are at the same m, so their rows stack, each with the centre and half
    side of its own rectangle.
    """
    panels = [p for e in edges for p in e.panels]
    rows = [len(e.panels) for e in edges]
    F = np.array([cache.panels[p][::(len(cache.panels[p]) - 1) // e.m]
                  for e in edges for p in e.panels])
    lo, hi = np.array(panels).T
    centre = np.repeat([e.centre for e in edges], rows)
    half = np.repeat([e.half for e in edges], rows)
    r, diff, ok = _panel_moments(F, lo, hi, centre, half)
    # |hi - lo| * diff is the m/2 to m difference of the integral of z f'/f
    scale = np.repeat([max(1.0, abs(e.za), abs(e.zb)) / abs(e.zb - e.za) for e in edges],
                      rows)
    own = np.abs(centre * r[:, 0] + half * r[:, 1]) / np.abs(hi - lo)
    accept = ok & (np.abs(diff) < _QUAD_TOL * np.maximum(scale, own))
    i = 0
    for e, n in zip(edges, rows):
        took = accept[i:i + n]
        if took.any():
            e.acc = e.acc + e.sign * r[i:i + n][took].sum(axis=0)
        rejected = [p for p, t in zip(e.panels, took) if not t]
        i += n
        if not rejected:
            e.result, e.panels = e.acc, None
        elif e.depth == 0 and e.m < _EDGE_NODES:
            e.m *= 2
        elif e.depth >= _PANEL_DEPTH:
            a, b = rejected[0]
            e.error = QuadratureError(
                f"contour quadrature did not stabilize on edge {e.za} -> {e.zb}: "
                f"panel {a} -> {b} unresolved at 2^-{_PANEL_DEPTH} of the edge")
        else:
            e.panels = [q for a, b in rejected for q in ((a, _mid(a, b)), (_mid(a, b), b))]
            e.m = _PANEL_NODES
            e.depth += 1


def _contour_moments(f: AnalyticFunctionHandle, rects: list, cache: _Samples) -> list:
    """Zero count and scaled moments from the boundary contour of each rect.

    Returns, per rect, (count, s) with s[k] = sum_j m_j w_j^k for k < 8, the
    zeros z_j of multiplicity m_j taken as w_j = (z_j - c)/h, c the centre
    of rect and h half its longer side, or the error that ended its contour.

    All edges of all rectangles advance in lockstep: each level samples the
    new points of every unfinished edge in one call of f, and a panel or
    point that several edges need, such as a corner or the edge two
    siblings share, is asked for once.  One panel rule (_advance_panels)
    integrates every edge: the unsplit edge is a panel whose
    Clenshaw-Curtis nodes double in place from 33 to _EDGE_NODES + 1, and
    past that it goes on as dyadic panels of 33 nodes.  Each panel's
    samples are kept in cache under its end points, so that any later
    contour of the same search through a panel, in either direction, reads
    them again.  Errors come out as from edges taken one at a time: the
    first failing edge of a rectangle in edge order decides, so its edges
    after a failed one are dropped.  A sample that is not finite, or an
    edge past _MAX_EDGE_POINTS samples, is a QuadratureError; |f| below
    _BOUNDARY_REL of the largest new sample of an edge a BoundaryZeroError.
    """
    contours = []
    for rect in rects:
        centre, half = rect.center, 0.5 * max(rect.width, rect.height)
        corners = rect.corners
        contours.append([_Edge(a, b, centre, half)
                         for a, b in zip(corners, corners[1:] + corners[:1])])
    while True:
        asked = _Asked()
        live = []
        for rect, edges in zip(rects, contours):
            going = []
            for e in edges:
                if e.error is not None:
                    break
                if e.result is None:
                    if not e.request(cache, asked):
                        break
                    going.append(e)
            if going:
                live.append((rect, going))
        if not live:
            break
        values = asked.call(f)
        sampled = []
        for rect, going in live:
            for e in going:
                try:
                    e.take(values, rect, cache)
                except (QuadratureError, BoundaryZeroError) as exc:
                    e.error = exc
                    break
                sampled.append(e)
        if sampled:
            _advance_panels(sampled, cache)
    out = []
    for rect, edges in zip(rects, contours):
        error = next((e.error for e in edges if e.error is not None), None)
        if error is not None:
            out.append(error)
            continue
        s = sum(e.result for e in edges) / (2.0j * math.pi)
        n = round(s[0].real)
        if abs(s[0] - n) > 0.25:
            out.append(QuadratureError(
                f"contour value {s[0]} is not within 0.25 of an integer on {rect}"))
        else:
            out.append((int(n), s))
    return out


def _nudged(rect: Rectangle) -> Rectangle:
    """rect with every side moved outward by _NUDGE of its longer side: the
    rectangle a failed contour of rect is retried on, and so the largest any
    contour of a search of rect uses."""
    d = _NUDGE * max(rect.width, rect.height)
    return Rectangle(rect.x_lo - d, rect.x_hi + d, rect.y_lo - d, rect.y_hi + d)


def _counts(f: AnalyticFunctionHandle, rects: list, cache: _Samples) -> list:
    """Contour count and moments of each rect, retried once on rect nudged outward.

    A suspected boundary zero or an edge that does not stabilize, the
    signature of a zero on or hugging the contour, is retried on the
    rectangle with every side moved outward by _NUDGE of its longer side:
    a zero the panels could not resolve at 2^-30 of an edge then lies
    about 2^-20 from the moved one.  The contours of all rects run in
    lockstep, and so do all the retries, in a second pass.  Returns, per
    rect, (count, moments, the rectangle counted), or the error of its
    retry.
    """
    out = _contour_moments(f, rects, cache)
    retry = []
    for i, (rect, got) in enumerate(zip(rects, out)):
        if not isinstance(got, SpecbarError):
            out[i] = (*got, rect)
            continue
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("nudging %s outward: %s: %s", rect, type(got).__name__, got)
        retry.append((i, _nudged(rect)))
    again = _contour_moments(f, [r for _, r in retry], cache)
    for (i, nudged), got in zip(retry, again):
        out[i] = got if isinstance(got, SpecbarError) else (*got, nudged)
    return out


def winding_number(f: AnalyticFunctionHandle, rect: Rectangle) -> int:
    """Number of zeros of f inside rect, counted with multiplicity.

    Each contour level is one call of f.  Every edge is a panel of the one
    panel rule, its nodes doubling from 33 to 129 before it halves into
    panels of 33 nodes.  A suspected boundary zero or an unresolved
    edge is retried once on the rectangle nudged outward by 2^-20 of its
    longer side (_counts), so a zero on the boundary counts as inside.  A
    jump of f across an edge raises QuadratureError after about 30 panel
    levels on each of the two attempts, as does a contour value further
    than 0.25 from an integer.
    """
    [got] = _counts(f, [rect], _Samples())
    if isinstance(got, SpecbarError):
        raise got
    return got[0]


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


def _newton(f: AnalyticFunctionHandle, starts, scales, multiplicities, regions,
            max_iter: int = 60):
    """Damped Newton from every start at once; the multiplicity-m variant
    takes steps m*f/f'.

    Each start iterates past _REFINE_TOL until its residual stagnates, so
    locations are polished to the precision the arithmetic supports rather
    than stopping at the first sub-tolerance value.  Each start has its own
    scale, which sets its derivative step, and its own confinement region:
    steps leaving the region are treated as uphill and damped.  The starts
    share the handle's calls, one for the derivative stencils of all
    iterating starts and one per line-search step, and each start's
    arithmetic is that of a lone iteration.  Returns (z, residual) per
    start, z None when the residual never fell below _REFINE_TOL.
    """
    z = [complex(v) for v in starts]
    fz = [complex(v) for v in f.eval(np.array(z, dtype=complex))]
    best = [(zi, _cabs(fi)) for zi, fi in zip(z, fz)]
    active = list(range(len(z)))
    for _ in range(max_iter):
        active = [i for i in active if _cabs(fz[i]) != 0.0]
        if not active:
            break
        steps = {}
        # central differences with a step set by each start's scale, both
        # sides of every stencil in one call
        at = np.array(z)[active]
        h = np.maximum(1e-9, 1e-6 * np.asarray(scales, dtype=float)[active])
        both = f.eval(np.concatenate([at + h, at - h]))
        derivs = (both[:at.size] - both[at.size:]) / (2.0 * h)
        for i, df in zip(active, derivs):
            df = complex(df)
            if df != 0 and math.isfinite(_cabs(df)):
                steps[i] = multiplicities[i] * fz[i] / df
        t = dict.fromkeys(steps, 1.0)
        searching = list(steps)
        descended = {}
        for _ in range(30):
            trial, halved = [], []
            for i in searching:
                z_new = z[i] - t[i] * steps[i]
                if z_new == z[i]:
                    continue  # the step is below the float spacing at z
                if regions[i].contains(z_new):
                    trial.append((i, z_new))
                else:
                    t[i] *= 0.5
                    halved.append(i)
            if trial:
                values = f.eval(np.array([z_new for _, z_new in trial]))
                for (i, z_new), f_new in zip(trial, values):
                    f_new = complex(f_new)
                    if _cabs(f_new) < _cabs(fz[i]):
                        descended[i] = z_new, f_new
                    else:
                        t[i] *= 0.5
                        halved.append(i)
            searching = sorted(halved)
            if not searching:
                break
        active = []
        for i in sorted(descended):
            z[i], fz[i] = descended[i]
            if _cabs(fz[i]) < best[i][1]:
                best[i] = z[i], _cabs(fz[i])
            if not (best[i][1] < _REFINE_TOL and abs(t[i] * steps[i]) < 1e-14 * (1.0 + abs(z[i]))):
                active.append(i)
    return [(bz, res) if res < _REFINE_TOL else (None, res) for bz, res in best]


_CUTS = (0.5, 0.53, 0.47, 0.57, 0.43, 0.61, 0.39)   # candidate cuts, in fractions of a side


def _cut(rect: Rectangle, frac: float):
    """The child rectangles of rect cut across its longer side at frac, and
    their shared edge as the panel (lo, hi) both children's contours key it by."""
    if rect.width >= rect.height:
        xc = rect.x_lo + frac * rect.width
        return ((Rectangle(rect.x_lo, xc, rect.y_lo, rect.y_hi),
                 Rectangle(xc, rect.x_hi, rect.y_lo, rect.y_hi)),
                (complex(xc, rect.y_lo), complex(xc, rect.y_hi)))
    yc = rect.y_lo + frac * rect.height
    return ((Rectangle(rect.x_lo, rect.x_hi, rect.y_lo, yc),
             Rectangle(rect.x_lo, rect.x_hi, yc, rect.y_hi)),
            (complex(rect.x_lo, yc), complex(rect.x_hi, yc)))


def _clean_split(f: AnalyticFunctionHandle, rects: list, cache: _Samples) -> list:
    """Child rectangles of each rect, split along its longer side on the
    candidate line whose minimum |f| (relative to the line's maximum) is
    largest, keeping the cut as far from zeros as the candidates allow.

    Every candidate is sampled at the 33 Clenshaw-Curtis nodes of the panel
    it becomes, its ends read from cache where they are there.  A line
    scoring above 0.05 ends the search for its rectangle; the rectangles
    still searching try their next candidate together, one call of f per
    round.  The chosen line is filed in cache as the children's shared
    panel, so their contours do not sample it again.  Returns, per rect,
    its two children, or a BoundaryZeroError when no candidate keeps |f|
    above _BOUNDARY_REL of its maximum; a line where f is not finite
    scores worst.
    """
    nodes = _panel_nodes(_PANEL_NODES)
    best = [None] * len(rects)
    searching = list(range(len(rects)))
    for frac in _CUTS:
        if not searching:
            break
        asked = _Asked()
        lines = []
        for i in searching:
            children, (lo, hi) = _cut(rects[i], frac)
            inner = asked.ask((lo, hi), (lo + nodes * (hi - lo))[1:-1])
            ends = [None if e in cache.points else asked.ask(e, (e,)) for e in (lo, hi)]
            lines.append((i, children, lo, hi, inner, ends))
        values = asked.call(f)
        for i, children, lo, hi, inner, ends in lines:
            fa, fb = (cache.points[e] if at is None else values[at.start]
                      for e, at in zip((lo, hi), ends))
            row = np.concatenate([[fa], values[inner], [fb]])
            fabs = np.abs(row)
            score = (fabs.min() / max(fabs.max(), 1e-300)
                     if np.all(np.isfinite(fabs)) else -math.inf)
            if best[i] is None or score > best[i][0]:
                best[i] = (score, children, lo, hi, row)
        searching = [i for i in searching if not best[i][0] > 0.05]
    out = []
    for rect, (score, children, lo, hi, row) in zip(rects, best):
        if not score > _BOUNDARY_REL:
            out.append(BoundaryZeroError(rect, f"no zero-free split line found in {rect}"))
            continue
        cache.points[lo], cache.points[hi] = row[0], row[-1]
        cache.points[_mid(lo, hi)] = row[_PANEL_NODES // 2]
        cache.panels[lo, hi] = row
        out.append(children)
    return out


def _pencil(count: int, s: np.ndarray):
    """Distinct zeros, in scaled coordinates, and their multiplicities from
    the moments of a rectangle counting count zeros, or None.

    The Hankel matrix [s_(i+j)] of size min(count, 4) has the number of
    distinct zeros as its numerical rank; the eigenvalues of the pencil
    ([s_(i+j+1)], [s_(i+j)]) on its leading block of that size are the
    zeros, and a Vandermonde solve gives their multiplicities, which must
    be positive integers summing to count (Kravanja, Sakurai & Van Barel,
    BIT 39, 1999).
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
    return w, [int(m) for m in whole]


def _resolve_leaves(f: AnalyticFunctionHandle, leaves: list, cache: _Samples) -> list:
    """The zeros of each counted rectangle (rect, count, s) from its moment
    pencil (_pencil), or None.

    The zeros of all leaves are Newton-polished together, each with its
    multiplicity, its rectangle's longer side as scale and the rectangle
    doubled as confinement.  Each must stay in its rect, a multiple one
    must pass a winding check on a small box, all boxes counted together,
    and no two polished zeros of a leaf may draw closer than half the
    distance between their pencil estimates.  A box whose contour fails
    confirms nothing.  None means the rectangle must be bisected.
    """
    pencils = [_pencil(count, s) for _, count, s in leaves]
    starts, scales, mults, regions = [], [], [], []
    for (rect, _, _), pencil in zip(leaves, pencils):
        if pencil is not None:
            w, whole = pencil
            scale = max(rect.width, rect.height)
            starts.extend(rect.center + 0.5 * scale * w)
            scales += [scale] * len(whole)
            mults += whole
            regions += [rect.scaled(2.0)] * len(whole)
    polished = iter(_newton(f, starts, scales, mults, regions) if starts else ())
    found, boxes = [], []
    for (rect, _, _), pencil in zip(leaves, pencils):
        roots = None
        if pencil is not None:
            ours = [next(polished) for _ in pencil[1]]
            if all(z is not None and rect.contains(z) for z, _ in ours):
                roots = [Root(z, m, res) for (z, res), m in zip(ours, pencil[1])]
        for r in roots or ():
            if r.multiplicity > 1:
                z, side = r.location, 1e-5 * max(1.0, abs(r.location))
                boxes.append(Rectangle(z.real - side, z.real + side,
                                       z.imag - side, z.imag + side))
        found.append(roots)
    checks = iter(_counts(f, boxes, cache))
    out = []
    for (rect, _, _), pencil, roots in zip(leaves, pencils, found):
        if roots is None:
            out.append(None)
            continue
        boxed = [(r.multiplicity, next(checks)) for r in roots if r.multiplicity > 1]
        estimates = rect.center + 0.5 * max(rect.width, rect.height) * pencil[0]
        zs = np.array([r.location for r in roots])
        apart = np.abs(zs[:, None] - zs) > 0.5 * np.abs(estimates[:, None] - estimates)
        confirmed = all(not isinstance(got, SpecbarError) and got[0] == m for m, got in boxed)
        out.append(roots if confirmed and np.all(apart | np.eye(len(roots), dtype=bool))
                   else None)
    return out


def find_zeros(f: AnalyticFunctionHandle, rect: Rectangle,
               max_depth: int = 40) -> RootSet:
    """All zeros of f in rect with multiplicities, via the moment pencil.

    Every rectangle with a nonzero winding count goes to one leaf resolver:
    the Hankel pencil of its contour moments gives the distinct zeros and
    their multiplicities, and damped Newton polishes all of them together
    to |f| < _REFINE_TOL, its edge integrals converged to _QUAD_TOL.  A
    rectangle the resolver cannot account for (more than four distinct
    zeros, non-integer multiplicities, a failed polish or winding check) is
    bisected; at max_depth it raises ClusterUnresolvedError.  The spectral
    verbs search with the default max_depth.

    The search runs breadth first, one bisection level at a time, and each
    step of a level serves all of its rectangles at once: their contours
    advance in lockstep (_counts), one call of f per contour level, then
    their failed contours' retries; the zeros of all its counted leaves are
    polished together (_resolve_leaves), one call per Newton step; and its
    unresolved rectangles are split together (_clean_split), one call per
    round of candidate cuts.  The panel samples of one search are kept
    until it returns, so a child rectangle reads the panels of its
    parent's edges and both siblings the split edge.  When rectangles fail,
    the error raised is the first in breadth order: that of the shallowest
    level, and within it of the leftmost rectangle in bisection order.
    A rectangle nudged outward on a failed contour (_counts) can hold
    zeros just outside rect and overlap its sibling by 2^-20 of its longer
    side: zeros found twice are merged, and zeros farther outside rect than
    1e-12 of its longer side are dropped.
    """
    roots: list[Root] = []
    cache = _Samples()
    level = [rect]
    for depth in range(max_depth + 1):
        if not level:
            break
        counted = _counts(f, level, cache)
        # rectangles after the first failed contour cannot raise first
        failed = next((i for i, got in enumerate(counted)
                       if isinstance(got, SpecbarError)), len(counted))
        leaves = [(r, count, s) for count, s, r in counted[:failed] if count > 0]
        found = _resolve_leaves(f, leaves, cache)
        unresolved = [r for (r, _, _), got in zip(leaves, found) if got is None]
        splits = iter(_clean_split(f, unresolved, cache) if depth < max_depth else ())
        level = []
        for (r, count, _), got in zip(leaves, found):
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("count %d in %s: %s", count, r, "bisected" if got is None
                           else f"resolved, multiplicities {[z.multiplicity for z in got]}")
            if got is not None:
                roots.extend(got)
                continue
            if depth >= max_depth:
                raise ClusterUnresolvedError(r, count)
            children = next(splits)
            if isinstance(children, SpecbarError):
                raise children
            level.extend(children)
        if failed < len(counted):
            raise counted[failed]

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
    # a nudged rectangle can hold zeros just outside the requested one
    margin = -1e-12 * max(rect.width, rect.height)
    return RootSet(tuple(r for r in merged if rect.contains(r.location, margin)))
