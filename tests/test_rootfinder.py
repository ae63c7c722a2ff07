import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbar import floquet, rootfinder
from specbar.core import (
    BarrierProblem,
    ConstExpr,
    PeriodicTail,
    Piece,
    PotentialModel,
    Rectangle,
    SinExpr,
)
from specbar.rootfinder import (
    AnalyticFunctionHandle,
    ClusterUnresolvedError,
    QuadratureError,
    find_zeros,
    winding_number,
)
from specbar.sturm import CharacteristicContext, eigenvalues

from conftest import grid_newton_roots, oracle_f_free

UNIT = Rectangle(-1.0, 1.0, -1.0, 1.0)

# Regression guard on the work of the free R=10 search of
# test_closed_form_roots_in_strip, not a tolerance to loosen: sampling log f
# once per point with one panel rule per edge it evaluates 1,814 points
# (353,482 with the trapezoid sums of a central-difference f'/f).
FREE_R10_POINT_BOUND = 25_000

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50,
                             database=None)


def _poly_handle(coeffs):
    return AnalyticFunctionHandle(eval=lambda z, c=coeffs: np.polyval(c, z))


def _counted(fn):
    """A handle on fn and the list of array sizes it was evaluated on."""
    sizes = []

    def f(z):
        sizes.append(z.size)
        return fn(z)

    return AnalyticFunctionHandle(eval=f), sizes


def _lattice_point(cell, jitter):
    """A point within 0.025 of a node of the 0.1 lattice, so points drawn
    from distinct nodes are at least 0.05 apart, criterion 5's spacing."""
    (i, j), (dx, dy) = cell, jitter
    return complex(0.1 * i + dx, 0.1 * j + dy)


_JITTER = st.tuples(st.floats(-0.025, 0.025), st.floats(-0.025, 0.025))


def test_winding_monomial():
    assert winding_number(AnalyticFunctionHandle(eval=lambda z: z**3), UNIT) == 3


def test_winding_no_zero():
    assert winding_number(AnalyticFunctionHandle(eval=lambda z: z - 5), UNIT) == 0


def test_winding_from_the_function_alone():
    # The handle carries no derivative: the contour edges integrate log f,
    # so the supplied function alone fixes the count.
    f = AnalyticFunctionHandle(eval=lambda z: z**2 - 0.25)
    assert winding_number(f, UNIT) == 2


def test_winding_closed_form_characteristic():
    f = AnalyticFunctionHandle(eval=lambda z: oracle_f_free(z, 10.0))
    rect = Rectangle(0.1, 5.0, 0.05, 0.95)
    n = winding_number(f, rect)
    oracle = grid_newton_roots(lambda z: oracle_f_free(z, 10.0),
                               (0.1, 5.0, 0.05, 0.95))
    assert n == len(oracle)
    assert n >= 1


def test_find_zeros_constructed_pair():
    f = AnalyticFunctionHandle(eval=lambda z: (z - 0.3) * (z + 0.4j))
    out = find_zeros(f, UNIT)
    locs = sorted(out.locations, key=lambda z: z.real)
    assert len(locs) == 2
    assert abs(locs[0] - (-0.4j)) < 1e-10
    assert abs(locs[1] - 0.3) < 1e-10
    assert all(r.multiplicity == 1 for r in out.roots)


def test_newton_evaluates_no_point_repeatedly(monkeypatch):
    # Once a Newton step falls below the float spacing at z, z - t*step
    # equals z and |f| cannot fall; the line search must stop there
    # instead of halving t at one and the same point.  Newton shares its
    # calls among the zeros of a leaf, so its points are those of every
    # call made outside the contour quadrature.
    zeros = [1 / 3 + 1j / 7, 0.9 - 0.2j, -0.4 + 0.1j]
    coeffs = np.poly(zeros)
    on_contour = [False]
    newton_points = []

    def contour(*args):
        on_contour[0] = True
        try:
            return contour_moments(*args)
        finally:
            on_contour[0] = False

    def f(z):
        if not on_contour[0]:
            newton_points.extend(complex(v) for v in z)
        return np.polyval(coeffs, z)

    contour_moments = rootfinder._contour_moments
    monkeypatch.setattr(rootfinder, "_contour_moments", contour)
    out = find_zeros(AnalyticFunctionHandle(eval=f),
                     Rectangle(-1.0, 1.2, -0.5, 0.5))
    assert newton_points
    assert max(newton_points.count(z) for z in newton_points) <= 2
    got = sorted(out.locations, key=lambda z: z.real)
    want = sorted(zeros, key=lambda z: z.real)
    assert [r.multiplicity for r in out.roots] == [1, 1, 1]
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


def test_find_zeros_double_root():
    # also a double zero found within three levels, and a fivefold zero
    for power, max_depth in ((2, 40), (2, 3), (5, 40)):
        f = AnalyticFunctionHandle(eval=lambda z, p=power: (z - 0.3) ** p)
        out = find_zeros(f, UNIT, max_depth=max_depth)
        assert len(out.roots) == 1
        root = out.roots[0]
        assert root.multiplicity == power
        assert abs(root.location - 0.3) < 1e-9
        assert out.total_count == power


def test_find_zeros_triple_with_simple():
    f = AnalyticFunctionHandle(eval=lambda z: (z - 0.3) ** 3 * (z + 0.5 + 0.2j))
    out = find_zeros(f, UNIT)
    mults = sorted(r.multiplicity for r in out.roots)
    assert mults == [1, 3]


def test_closed_form_roots_in_strip():
    f = AnalyticFunctionHandle(eval=lambda z: oracle_f_free(z, 10.0))
    rect = Rectangle(0.1, 5.0, 0.05, 0.95)
    out = find_zeros(f, rect)
    oracle = grid_newton_roots(lambda z: oracle_f_free(z, 10.0),
                               (0.1, 5.0, 0.05, 0.95))
    assert out.total_count == len(oracle)
    got = sorted(out.locations, key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(got, oracle)) < 1e-9
    assert all(0.0 <= z.imag <= 1.0 for z in got)


def test_closed_form_search_stays_within_point_bound():
    f, sizes = _counted(lambda z: oracle_f_free(z, 10.0))
    out = find_zeros(f, Rectangle(0.1, 5.0, 0.05, 0.95))
    assert out.total_count == 5
    assert sum(sizes) <= FREE_R10_POINT_BOUND


def test_close_pair_is_resolved_by_the_pencil(caplog):
    # 0.05 is the closest spacing criterion 5 draws; the moment pencil of
    # the search rectangle itself separates such a pair, without bisection
    f = AnalyticFunctionHandle(eval=lambda z: (z - 0.1 - 0.2j) * (z - 0.15 - 0.2j))
    with caplog.at_level(logging.DEBUG, logger="specbar.rootfinder"):
        out = find_zeros(f, UNIT)
    assert caplog.messages == [f"count 2 in {UNIT}: resolved, multiplicities [1, 1]"]
    locs = sorted(out.locations, key=lambda z: z.real)
    assert [r.multiplicity for r in out.roots] == [1, 1]
    assert abs(locs[0] - (0.1 + 0.2j)) < 1e-10
    assert abs(locs[1] - (0.15 + 0.2j)) < 1e-10


def test_very_close_pair_resolves_to_simple_roots():
    # at 1e-3 the pencil of the search rectangle cannot yet tell the pair
    # from a double zero; a few bisections separate it (337,306 points
    # when every count >= 2 rectangle was probed for one multiple zero)
    f, sizes = _counted(lambda z: (z - 0.3) * (z - 0.301))
    out = find_zeros(f, UNIT)
    locs = sorted(out.locations, key=lambda z: z.real)
    assert [r.multiplicity for r in out.roots] == [1, 1]
    assert abs(locs[0] - 0.3) < 1e-10
    assert abs(locs[1] - 0.301) < 1e-10
    assert sum(sizes) <= 20_000


def test_pair_2e4_apart_resolves_within_three_levels():
    f = AnalyticFunctionHandle(eval=lambda z: (z - 0.1) * (z - 0.1 - 2e-4))
    out = find_zeros(f, UNIT, max_depth=3)
    locs = sorted(out.locations, key=lambda z: z.real)
    assert [r.multiplicity for r in out.roots] == [1, 1]
    assert abs(locs[0] - 0.1) < 1e-10
    assert abs(locs[1] - (0.1 + 2e-4)) < 1e-10


@PROPERTY_SETTINGS
@given(
    real_roots=st.lists(st.tuples(st.integers(-7, 7), st.floats(-0.025, 0.025)),
                        min_size=1, max_size=3, unique_by=lambda t: t[0]),
    pairs=st.lists(st.tuples(st.tuples(st.integers(-7, 7), st.integers(1, 7)),
                             _JITTER),
                   max_size=2, unique_by=lambda t: t[0]),
)
def test_real_polynomial_roots_are_conjugate_symmetric(real_roots, pairs):
    roots = [0.1 * i + dx for i, dx in real_roots]
    for cell, jitter in pairs:
        z = _lattice_point(cell, jitter)
        roots += [z, z.conjugate()]
    coeffs = np.poly(roots)
    assert np.isrealobj(coeffs)
    f = AnalyticFunctionHandle(eval=lambda z: np.polyval(coeffs, z))
    out = find_zeros(f, UNIT)
    assert out.total_count == len(roots)
    for r in out.roots:
        mirror = out.nearest(r.location.conjugate())
        assert abs(mirror.location - r.location.conjugate()) < 1e-9
        assert mirror.multiplicity == r.multiplicity


def test_expanded_polynomial_roots_without_derivative():
    # the expanded form loses digits to cancellation near its clustered
    # zeros; this input once failed to stabilize a contour edge when f'/f
    # came from a central difference
    w = complex(0.1 * 3, 0.1)
    zeros = [0.1 * 3, 0.1 * 4, 0.1 * 5, w, w.conjugate()]
    out = find_zeros(_poly_handle(np.poly(zeros)), UNIT)
    assert [r.multiplicity for r in out.roots] == [1] * 5
    for z in zeros:
        assert abs(out.nearest(z).location - z) < 1e-10


@PROPERTY_SETTINGS
@given(
    multiplicity=st.sampled_from([2, 3]),
    cells=st.lists(st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
                   min_size=1, max_size=4, unique=True),
    jitters=st.lists(_JITTER, min_size=4, max_size=4),
)
def test_planted_multiple_zero_keeps_its_multiplicity(multiplicity, cells, jitters):
    # the first lattice point carries the multiple zero, the rest are
    # simple zeros at least 0.05 away from it and from each other
    points = [_lattice_point(c, j) for c, j in zip(cells, jitters)]
    planted, simple = points[0], points[1:]

    def f(z):
        out = (z - planted) ** multiplicity
        for b in simple:
            out = out * (z - b)
        return out

    out = find_zeros(AnalyticFunctionHandle(eval=f), UNIT)
    assert sorted(r.multiplicity for r in out.roots) == [1] * len(simple) + [multiplicity]
    root = out.nearest(planted)
    assert root.multiplicity == multiplicity
    assert abs(root.location - planted) < 1e-6
    for b in simple:
        assert abs(out.nearest(b).location - b) < 1e-10


def test_winding_additivity_over_bisection():
    rng = np.random.default_rng(11)
    rect = Rectangle(-1.3, 1.1, -1.2, 1.15)
    xm = rect.x_lo + 0.5 * rect.width
    left = Rectangle(rect.x_lo, xm, rect.y_lo, rect.y_hi)
    right = Rectangle(xm, rect.x_hi, rect.y_lo, rect.y_hi)
    for _ in range(50):
        deg = int(rng.integers(1, 9))
        roots = rng.uniform(-2, 2, deg) + 1j * rng.uniform(-2, 2, deg)
        f = _poly_handle(np.poly(roots))
        assert winding_number(f, rect) == (winding_number(f, left)
                                           + winding_number(f, right))


def _split(rect, fraction, axis):
    """The two halves of rect cut at fraction of its width ("x") or height."""
    if axis == "x":
        cut = rect.x_lo + fraction * rect.width
        return (Rectangle(rect.x_lo, cut, rect.y_lo, rect.y_hi),
                Rectangle(cut, rect.x_hi, rect.y_lo, rect.y_hi))
    cut = rect.y_lo + fraction * rect.height
    return (Rectangle(rect.x_lo, rect.x_hi, rect.y_lo, cut),
            Rectangle(rect.x_lo, rect.x_hi, cut, rect.y_hi))


@PROPERTY_SETTINGS
@given(
    fraction=st.floats(0.3, 0.7),
    axis=st.sampled_from("xy"),
    roots=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=8),
)
def test_winding_additivity_over_random_splits(fraction, axis, roots):
    rect = Rectangle(-1.3, 1.1, -1.2, 1.15)
    halves = _split(rect, fraction, axis)
    # keep every zero 0.05 clear of the outer contour and of the cut
    cut = halves[0].x_hi if axis == "x" else halves[0].y_hi
    lines = [(rect.x_lo, "x"), (rect.x_hi, "x"), (rect.y_lo, "y"),
             (rect.y_hi, "y"), (cut, axis)]
    roots = [z for z in roots
             if all(abs((z.real if a == "x" else z.imag) - at) >= 0.05
                    for at, a in lines)]
    f = _poly_handle(np.atleast_1d(np.poly(roots)))
    assert winding_number(f, rect) == sum(winding_number(f, h) for h in halves)
    assert winding_number(f, rect) == sum(rect.contains(z) for z in roots)


def test_random_polynomial_recovery():
    rng = np.random.default_rng(7)
    for _ in range(100):
        deg = int(rng.integers(2, 9))
        while True:
            roots = rng.uniform(-0.9, 0.9, deg) + 1j * rng.uniform(-0.9, 0.9, deg)
            if all(abs(roots[i] - roots[j]) >= 0.05
                   for i in range(deg) for j in range(i + 1, deg)):
                break
        out = find_zeros(_poly_handle(np.poly(roots)), UNIT)
        got = sorted(out.locations, key=lambda z: (z.real, z.imag))
        want = sorted(map(complex, roots), key=lambda z: (z.real, z.imag))
        assert len(got) == len(want)
        assert all(r.multiplicity == 1 for r in out.roots)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


def test_no_invented_roots():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deg = int(rng.integers(1, 7))
        roots = rng.uniform(-0.8, 0.8, deg) + 1j * rng.uniform(-0.8, 0.8, deg)
        out = find_zeros(_poly_handle(np.poly(roots)), UNIT)
        assert all(r.residual < 1e-12 for r in out.roots)


def test_boundary_zero_inflates_and_recovers(caplog):
    # zero exactly on the requested boundary: the search retries once on the
    # rectangle with every side moved outward by 2^-20 of its longer side
    # and proceeds, logging the swallowed error at DEBUG
    f = AnalyticFunctionHandle(eval=lambda z: z - 1.0)
    with caplog.at_level(logging.DEBUG, logger="specbar.rootfinder"):
        n = winding_number(f, Rectangle(0.0, 1.0, -0.5, 0.5))
    assert n == 1
    assert any("BoundaryZeroError" in m for m in caplog.messages)
    out = find_zeros(f, Rectangle(0.0, 1.0, -0.5, 0.5))
    assert out.total_count == 1
    assert abs(out.roots[0].location - 1.0) < 1e-10


def _one_edge_rule(fz, za, zb, m, centre, half):
    """The moments of one edge za -> zb from its samples fz at the m + 1
    Clenshaw-Curtis nodes, one k at a time, and the integral of L = log f
    over the edge by the m/2-node rule on every other sample minus that by
    the m-node rule; None where a phase increment exceeds pi/2."""
    step = np.angle(fz[1:] / fz[:-1])
    if np.any(np.abs(step) > 0.5 * np.pi):
        return None
    dz = zb - za
    L = np.log(np.abs(fz / fz[0])) + 1j * np.concatenate([[0.0], np.cumsum(step)])
    w = (za + (0.5 - 0.5 * np.cos(np.pi * np.arange(m + 1) / m)) * dz - centre) / half
    r = np.empty(8, dtype=complex)
    r[0] = L[-1]
    p = rootfinder._clenshaw_curtis(m)[1] * L
    for k in range(1, 8):
        r[k] = w[-1] ** k * L[-1] - k * dz / half * p.sum()
        p *= w
    half_rule = (rootfinder._clenshaw_curtis(m // 2)[1] * L[::2]).sum()
    return r, (rootfinder._clenshaw_curtis(m)[1] * L).sum() - half_rule


def _sequential_moments(f, rect):
    """The contour moments of rect by the rule on whole edges, one edge
    after another and one call of f per edge and level.

    Each edge starts at 33 Clenshaw-Curtis nodes and doubles them until its
    m/2- and m-node integrals of z f'/f agree to 1e-10 of
    max(1, |za|, |zb|, |integral|).  It refuses edges that would need more
    than 129 nodes, where the root finder goes on in panels instead.
    """
    centre = rect.center
    half = 0.5 * max(rect.width, rect.height)
    corners = rect.corners
    total = 0
    for za, zb in zip(corners, corners[1:] + corners[:1]):
        m = 32
        fz = np.asarray(f.eval(za + rootfinder._clenshaw_curtis(m)[0] * (zb - za)))
        while True:
            out = _one_edge_rule(fz, za, zb, m, centre, half)
            if out is not None:
                r, diff = out
                own = abs(centre * r[0] + half * r[1])
                if abs(diff * (zb - za)) < 1e-10 * max(1.0, abs(za), abs(zb), own):
                    break
            assert m < 128, f"edge {za} -> {zb} needs more than 129 nodes"
            m *= 2
            new = np.asarray(f.eval(za + rootfinder._clenshaw_curtis(m)[0][1::2] * (zb - za)))
            fz = np.insert(fz, np.arange(1, fz.size), new)
        total = total + r
    return total / (2.0j * math.pi)


@pytest.mark.parametrize("fn, rect", [
    (lambda z: np.polyval(np.poly([0.3, -0.2 + 0.4j, 0.5 - 0.6j]), z), UNIT),
    (lambda z: np.polyval(np.poly([0.3, 0.4, 0.5, 0.3 + 0.1j, 0.3 - 0.1j]), z), UNIT),
    (lambda z: oracle_f_free(z, 10.0), Rectangle(1.2, 1.6, 0.7, 0.85)),
    (lambda z: oracle_f_free(z, 10.0), Rectangle(2.0, 2.5, 0.6, 0.75)),
    (lambda z: oracle_f_free(z, 10.0), Rectangle(0.2, 3.0, 0.1, 0.45)),
    (lambda z: oracle_f_free(z, 40.0), Rectangle(0.1, 3.0, 0.05, 0.7)),
])
def test_lockstep_moments_equal_the_sequential_global_rule(fn, rect):
    # every edge of these rectangles converges within 129 nodes, so the
    # lockstep levels, all edges in one call and their rows stacked and
    # cached as panels, give the moments of the whole-edge rule taken one
    # edge at a time; the middle node differs by 6e-17 and the sums run in
    # another order, so they agree to rounding
    f = AnalyticFunctionHandle(eval=fn)
    [(_, s)] = rootfinder._contour_moments(f, [rect], rootfinder._Samples())
    want = _sequential_moments(f, rect)
    assert np.max(np.abs(s - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def test_panel_moments_equal_the_one_edge_rule_per_panel():
    # the panels' stacked arrays hold the one-edge rule's arithmetic for
    # each panel: 33-node panels of a split top edge and an unsplit left
    # edge, then the same panels at 65 nodes
    fn = lambda z: oracle_f_free(z, 40.0)  # noqa: E731
    lo = np.array([1.3 + 0.95j, 1.35 + 0.95j, 0.1 + 0.05j])
    hi = np.array([1.35 + 0.95j, 1.4 + 0.95j, 0.1 + 0.95j])
    centre, half = 3.05 + 0.5j, 2.95
    for m in (32, 64):
        F = fn(lo[:, None] + rootfinder._panel_nodes(m) * (hi - lo)[:, None])
        r, diff, ok = rootfinder._panel_moments(F, lo, hi, centre, half)
        assert ok.all()
        for row, d, a, b, samples in zip(r, diff, lo, hi, F):
            want, want_diff = _one_edge_rule(samples, a, b, m, centre, half)
            assert np.max(np.abs(row - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))
            assert abs(d - want_diff) < 1e-13 * max(1.0, abs(want[0]))


@pytest.mark.parametrize("zeros, rect", [
    ([0.3, -0.2 + 0.4j, 0.5 - 0.6j], UNIT),
    ([0.3, 0.4, 0.5, 0.3 + 0.1j, 0.3 - 0.1j], UNIT),
    (10.0, Rectangle(1.2, 1.6, 0.7, 0.85)),
    (10.0, Rectangle(2.0, 2.5, 0.6, 0.75)),
    (10.0, Rectangle(0.2, 3.0, 0.45, 0.95)),
    (40.0, Rectangle(0.1, 3.0, 0.5, 0.96)),
])
def test_contour_moments_equal_the_power_sums_of_the_zeros(zeros, rect):
    # the zeros are a polynomial's or, for a width R, those grid-Newton
    # finds for the free closed form; s_k = sum_j w_j^k, w = (z - c)/h
    if isinstance(zeros, list):
        fn = lambda z, c=np.poly(zeros): np.polyval(c, z)  # noqa: E731
    else:
        fn = lambda z, R=zeros: oracle_f_free(z, R)  # noqa: E731
        zeros = grid_newton_roots(fn, (rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi))
    assert zeros
    centre, half = rect.center, 0.5 * max(rect.width, rect.height)
    w = (np.array(zeros) - centre) / half
    want = (w[:, None] ** np.arange(8)).sum(axis=0)
    [(count, s)] = rootfinder._contour_moments(AnalyticFunctionHandle(eval=fn), [rect],
                                               rootfinder._Samples())
    assert count == len(zeros)
    assert np.max(np.abs(s - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))
    # the left edge, short enough for 33 nodes to resolve, gives the same
    # moments from its rows of 33, 65 and 129 nodes
    lo, hi = np.array(rect.corners[3:]), np.array(rect.corners[:1])
    rows = [rootfinder._panel_moments(
        fn(lo[:, None] + rootfinder._panel_nodes(m) * (hi - lo)[:, None]),
        lo, hi, centre, half)[0][0] for m in (32, 64, 128)]
    scale = max(1.0, np.max(np.abs(rows[-1])))
    assert all(np.max(np.abs(r - rows[-1])) < 1e-12 * scale for r in rows)


def test_smooth_rectangle_takes_one_call_per_contour_level():
    # one call samples the 33 nodes of all four edges, each corner once
    # though two edges need it; the two edges whose 17- and 33-node
    # integrals disagree then take their 32 new nodes in a second call
    f, sizes = _counted(lambda z: z**2 - 0.25)
    assert winding_number(f, UNIT) == 2
    assert sizes == [4 * 32, 2 * 32]


def test_free_search_repeats_few_points(monkeypatch):
    # an edge is a panel of the search's sample cache, so a child rectangle
    # reads the halves of its parent's edges and a sibling the split edge
    # instead of sampling them again: fewer than 1% of the points of the
    # free R = 40 eigenvalue search repeat
    points = []

    def counted_find_zeros(f, rect, *args, **kwargs):
        def g(z):
            points.extend(z.tolist())
            return f.eval(z)
        return find_zeros(AnalyticFunctionHandle(eval=g),
                          rect, *args, **kwargs)

    monkeypatch.setattr(floquet, "find_zeros", counted_find_zeros)
    ctx = CharacteristicContext(BarrierProblem(PotentialModel(), 1.0, 40.0))
    assert eigenvalues(ctx, Rectangle(0.1, 6.0, 0.05, 0.95)).total_count == 17
    assert len(points) - len(set(points)) < 0.01 * len(points)


def test_zeros_outside_the_requested_rectangle_are_dropped():
    # 1.0 on the right edge makes the search retry on the rectangle nudged
    # outward by 2^-20 of its longer side; only the zeros of the requested
    # rectangle, its boundary included, come back, and 1.004 does not
    f = AnalyticFunctionHandle(eval=lambda z: (z - 1.0) * (z - 1.004) * (z - 0.3 - 0.1j))
    out = find_zeros(f, Rectangle(0.0, 1.0, -0.5, 0.5))
    got = sorted(out.locations, key=lambda z: z.real)
    assert [r.multiplicity for r in out.roots] == [1, 1]
    assert abs(got[0] - (0.3 + 0.1j)) < 1e-10
    assert abs(got[1] - 1.0) < 1e-10


# Regression guard on the near-edge searches below, not a tolerance to
# loosen: panels on the top edge resolve the planted zero in at most 1,638
# points, where refining the whole edge took 66,899 from 1e-4 on.
NEAR_EDGE_POINT_BOUND = 2_500


@pytest.mark.parametrize("side", ["inside", "outside"])
@pytest.mark.parametrize("distance", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_zero_near_an_edge(distance, side):
    others = [-0.4 - 0.3j, 0.5 + 0.2j]
    planted = 0.2 + (1.0 - distance if side == "inside" else 1.0 + distance) * 1j
    zeros = others + [planted]
    f, sizes = _counted(lambda z: np.prod([z - a for a in zeros], axis=0))
    out = find_zeros(f, UNIT)
    want = others + ([planted] if side == "inside" else [])
    assert out.total_count == len(want)
    assert all(r.multiplicity == 1 for r in out.roots)
    assert max(abs(out.nearest(z).location - z) for z in want) < 1e-10
    assert sum(sizes) <= NEAR_EDGE_POINT_BOUND


# Regression guard on the two failing contours of a jump, not a tolerance
# to loosen: the sqrt cut and the Bug B edge below each raise after 8,088
# points, where five retries on randomly inflated rectangles took 24,660
# and 24,784.
JUMP_POINT_BOUND = 16_000


def test_jump_raises_quadrature_error_naming_the_panel():
    # sqrt jumps across its cut on the negative axis, which crosses the
    # left and right edges at Im z = 0: panels there halve until 2^-30 of
    # the edge, on the rectangle and on the one retry on it nudged outward
    f, sizes = _counted(np.sqrt)
    with pytest.raises(QuadratureError) as exc:
        winding_number(f, Rectangle(-1.0, -0.5, -0.5, 0.5))
    assert sum(sizes) <= JUMP_POINT_BOUND
    ends = re.search(r"panel (\S+) -> (\S+) unresolved", str(exc.value)).groups()
    assert all(abs(complex(e).imag) < 1e-8 for e in ends)


def test_periodic_gap_jump_raises_within_the_point_bound(monkeypatch):
    # Bug B: on the sin tail at R = 2 pi and ode_step 1e-2 the characteristic
    # of the eigenvalue search jumps across Im lambda = 1 on the right edge
    # of this rectangle; the search fails there and on its one retry
    sizes = []

    def counted_find_zeros(f, rect, *args, **kwargs):
        def g(z):
            sizes.append(z.size)
            return f.eval(z)
        return find_zeros(AnalyticFunctionHandle(eval=g),
                          rect, *args, **kwargs)

    monkeypatch.setattr(floquet, "find_zeros", counted_find_zeros)
    model = PotentialModel(tail=PeriodicTail(period=2 * math.pi, start=0.0,
                                             expr=SinExpr(1.0, 1.0)))
    ctx = CharacteristicContext(BarrierProblem(model, 1.0, 2 * math.pi), ode_step=1e-2)
    with pytest.raises(QuadratureError, match="did not stabilize") as exc:
        eigenvalues(ctx, Rectangle(0.05, 0.55, 0.3, 1.2))
    assert sum(sizes) <= JUMP_POINT_BOUND
    ends = re.search(r"panel (\S+) -> (\S+) unresolved", str(exc.value)).groups()
    assert all(abs(complex(e).imag - 1.0) < 1e-6 for e in ends)


def test_unresolved_phase_raises_quadrature_error():
    # the phase of exp(1e5 i z) turns by 2e5 along each long edge, so no
    # level up to the point cap keeps every phase increment within pi/2
    f = AnalyticFunctionHandle(eval=lambda z: np.exp(1e5j * z))
    with pytest.raises(QuadratureError):
        winding_number(f, Rectangle(-1.0, 1.0, -1e-3, 1e-3))


def test_cluster_unresolved_at_max_depth():
    # five distinct roots 2e-4 apart: a pencil of size four cannot show
    # them, and three levels of bisection do not separate them, so the
    # cluster is reported
    zeros = [0.1 + 2e-4 * k for k in range(5)]
    f = AnalyticFunctionHandle(eval=lambda z: np.polyval(np.poly(zeros), z))
    with pytest.raises(ClusterUnresolvedError) as exc:
        find_zeros(f, UNIT, max_depth=3)
    assert exc.value.count == 5
    assert isinstance(exc.value.rect, Rectangle)


@pytest.mark.parametrize("on, outward", [
    (1.0 + 0.3j, 1.0), (0.3 + 1.0j, 1j), (-1.0 - 0.3j, -1.0), (-0.3 - 1.0j, -1j),
], ids=["right", "top", "left", "bottom"])
def test_winding_number_counts_the_zeros_find_zeros_returns(on, outward):
    # a zero on an edge of UNIT and another 4e-3 outside it: the retry on
    # the rectangle nudged outward by 2^-20 counts the first and not the
    # second, as find_zeros returns them
    zeros = [on, on + 4e-3 * outward, 0.3 + 0.1j]
    f = AnalyticFunctionHandle(eval=lambda z: np.polyval(np.poly(zeros), z))
    out = find_zeros(f, UNIT)
    assert winding_number(f, UNIT) == out.total_count == 2
    assert abs(out.nearest(on).location - on) < 1e-10


def test_zero_on_a_corner_comes_back_once():
    zeros = [1.0 + 1.0j, -0.2 + 0.1j]
    f = AnalyticFunctionHandle(eval=lambda z: np.polyval(np.poly(zeros), z))
    out = find_zeros(f, UNIT)
    assert [r.multiplicity for r in out.roots] == [1, 1]
    assert max(abs(out.nearest(z).location - z) for z in zeros) < 1e-10
    assert winding_number(f, UNIT) == 2


def test_deterministic_inflation():
    f = AnalyticFunctionHandle(eval=lambda z: z - 1.0)
    rect = Rectangle(0.0, 1.0, -0.5, 0.5)
    a = find_zeros(f, rect)
    b = find_zeros(f, rect)
    assert a == b


# six zeros: more than the pencil of one rectangle shows, so the search
# bisects, twice
SIX_ZEROS = np.poly([0.3, -0.2 + 0.4j, 0.5 - 0.6j, 0.1, -0.7j, 0.6 + 0.6j])


def _depth_first(f, rect, max_depth=40):
    """The zeros of f in rect, searched depth first: the per-level steps of
    find_zeros, _counts, _resolve_leaves and _clean_split, called on one
    rectangle at a time, each rectangle's subtree searched before its
    sibling's.  Returns the sorted (Re z, Im z, multiplicity) of its roots."""
    cache = rootfinder._Samples()
    roots = []

    def one(step, *args):
        [got] = step(f, [args[0] if len(args) == 1 else args], cache)
        if isinstance(got, Exception):
            raise got
        return got

    def recurse(r, depth):
        count, s, r = one(rootfinder._counts, r)
        if count == 0:
            return
        found = one(rootfinder._resolve_leaves, r, count, s)
        if found is not None:
            roots.extend(found)
            return
        if depth >= max_depth:
            raise ClusterUnresolvedError(r, count)
        for child in one(rootfinder._clean_split, r):
            recurse(child, depth + 1)

    recurse(rect, 0)
    return sorted((z.location.real, z.location.imag, z.multiplicity) for z in roots)


def _verb_handle(monkeypatch, verb, *args):
    """The handle and rectangle of the one search the spectral verb makes."""
    searches = []

    def captured(f, rect, *a, **k):
        searches.append((f, rect))
        return find_zeros(f, rect, *a, **k)

    monkeypatch.setattr(floquet, "find_zeros", captured)
    verb(*args)
    [search] = searches
    return search


def _stacked_sweep_width(monkeypatch):
    model = PotentialModel(pieces=(Piece(0.0, 4.7, ConstExpr(1j)),))
    ctx = CharacteristicContext(BarrierProblem(model, 1.0, 25.0))
    return _verb_handle(monkeypatch, eigenvalues, ctx, Rectangle(0.8, 1.9, 1.2, 1.9))


def _free_r40(monkeypatch):
    ctx = CharacteristicContext(BarrierProblem(PotentialModel(), 1.0, 40.0))
    return _verb_handle(monkeypatch, eigenvalues, ctx, Rectangle(0.1, 6.0, 0.05, 0.95))


@pytest.mark.parametrize("search", [
    _free_r40,
    _stacked_sweep_width,
    lambda mp: (AnalyticFunctionHandle(eval=lambda z: (z - 0.3) * (z + 0.4j)), UNIT),
    lambda mp: (AnalyticFunctionHandle(eval=lambda z: (z - 0.3) ** 2), UNIT),
    lambda mp: (AnalyticFunctionHandle(eval=lambda z: (z - 0.3) ** 5), UNIT),
    lambda mp: (AnalyticFunctionHandle(eval=lambda z: (z - 0.3) ** 3 * (z + 0.5 + 0.2j)),
                UNIT),
    lambda mp: (_poly_handle(SIX_ZEROS), UNIT),
], ids=["free-R40", "stacked-R25", "pair", "double", "fivefold", "triple-simple",
        "six-bisected"])
def test_breadth_first_search_equals_the_depth_first_one(search, monkeypatch):
    # each rectangle's contour, pencil, polish and split read the same
    # samples whichever order the rectangles come in, so the search by
    # levels finds the roots of the search one rectangle at a time, bit
    # for bit
    f, rect = search(monkeypatch)
    out = find_zeros(f, rect)
    got = sorted((z.location.real, z.location.imag, z.multiplicity) for z in out.roots)
    assert got
    assert got == _depth_first(f, rect)


def test_free_search_shares_each_call_among_its_rectangles(monkeypatch):
    # the free R = 40 search visits 11 rectangles, 3 levels deep; every
    # contour level of a bisection level, every Newton step and every round
    # of candidate cuts is one call for all of its rectangles (77 calls
    # when each rectangle took its own)
    f, rect = _free_r40(monkeypatch)
    counted, sizes = _counted(f.eval)
    assert find_zeros(counted, rect).total_count == 17
    assert len(sizes) <= 40


def test_siblings_share_their_edge_and_corners_within_a_level():
    # two rectangles that share an edge take their first contour level in
    # one call of 7 distinct edges' 31 inner nodes and 6 distinct corners
    f, sizes = _counted(lambda z: z**2 - 0.25)
    halves = _split(UNIT, 0.5, "x")
    counted = rootfinder._counts(f, list(halves), rootfinder._Samples())
    assert [n for n, _, _ in counted] == [1, 1]
    assert sizes[0] == 7 * 31 + 6
    # a split files the cut it chose, which both children then read: their
    # first level samples only their 6 other edges and 4 other corners
    f, sizes = _counted(lambda z: np.polyval(SIX_ZEROS, z))
    cache = rootfinder._Samples()
    [children] = rootfinder._clean_split(f, [UNIT], cache)
    rounds = len(sizes)
    assert rounds > 1 and children[0].x_hi != 0.0  # the cut x = 0 was refused
    counted = rootfinder._counts(f, list(children), cache)
    assert sum(n for n, _, _ in counted) == 6
    assert sizes[rounds] == 6 * 31 + 4


def test_a_failed_edge_leaves_the_samples_later_edges_share():
    # the left half's bottom edge, asked for first, holds a zero and fails;
    # the right half's bottom and left edges share its corner -1i, sampled
    # once for all of them, and still file and read it: the right half
    # gets the moments it gets alone, and the left half its retry's count
    f = AnalyticFunctionHandle(eval=lambda z: (z + 0.5 + 1j) * (z - 0.5 - 0.3j))
    left, right = _split(UNIT, 0.5, "x")
    got = rootfinder._contour_moments(f, [left, right], rootfinder._Samples())
    assert isinstance(got[0], rootfinder.BoundaryZeroError)
    [alone] = rootfinder._contour_moments(f, [right], rootfinder._Samples())
    assert got[1][0] == alone[0] == 1
    assert np.array_equal(got[1][1], alone[1])
    counted = rootfinder._counts(f, [left, right], rootfinder._Samples())
    assert [(n, r) for n, _, r in counted][1] == (1, right)
    assert counted[0][0] == 1 and counted[0][2] != left


def test_the_first_error_in_breadth_order_is_raised():
    # five zeros 2e-4 apart at -0.5, which no level up to max_depth
    # separates, and a slit on Re z = 0.5, |Im z| <= 0.3, across which f
    # jumps: the right child, holding the slit, is cut across it, and at
    # the second level both its children's contours fail, on the rectangle
    # and on the retry; the search one rectangle at a time reaches the
    # cluster's error at max_depth first
    cluster = np.poly([-0.5 + 2e-4 * k for k in range(5)])

    def fn(z):
        w = -1j * (z - 0.5)
        return np.polyval(cluster, z) * np.sqrt(w - 0.3) * np.sqrt(w + 0.3)

    f = AnalyticFunctionHandle(eval=fn)
    with pytest.raises(QuadratureError, match="did not stabilize"):
        find_zeros(f, UNIT, max_depth=4)
    with pytest.raises(ClusterUnresolvedError):
        _depth_first(f, UNIT, max_depth=4)
