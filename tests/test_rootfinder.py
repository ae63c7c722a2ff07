import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specbar.core import DomainError, Rectangle
from specbar.rootfinder import (
    AnalyticFunctionHandle,
    ClusterUnresolvedError,
    HorizontalRay,
    QuadratureError,
    find_zeros,
    winding_number,
)

from conftest import grid_newton_roots, oracle_f_free

UNIT = Rectangle(-1.0, 1.0, -1.0, 1.0)

# Regression guard on the work of the free R=10 search of
# test_closed_form_roots_in_strip, not a tolerance to loosen: with the
# moment-pencil leaf resolver it evaluates 353,482 points (462,489 with a
# moment-gated multiplicity probe and Newton only at count 1); the bound
# leaves about 20% headroom.
FREE_R10_POINT_BOUND = 425_000

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


def test_winding_uses_supplied_derivative():
    f = AnalyticFunctionHandle(eval=lambda z: z**2 - 0.25,
                               eval_deriv=lambda z: 2 * z)
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


def test_newton_evaluates_no_point_repeatedly():
    # Once a Newton step falls below the float spacing at z, z - t*step
    # equals z and |f| cannot fall; the line search must stop there
    # instead of halving t at one and the same point.
    zeros = [1 / 3 + 1j / 7, 0.9 - 0.2j, -0.4 + 0.1j]
    coeffs = np.poly(zeros)
    scalar_points = []

    def f(z):
        if z.size == 1:
            scalar_points.append(complex(z[0]))
        return np.polyval(coeffs, z)

    out = find_zeros(AnalyticFunctionHandle(eval=f),
                     Rectangle(-1.0, 1.2, -0.5, 0.5))
    assert max(scalar_points.count(z) for z in scalar_points) <= 2
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
    # The exact derivative: near clustered zeros polyval cancels so many
    # digits that the central-difference f'/f is too noisy for the edge
    # quadrature to stabilize (QuadratureError on 0.1*3, 0.4, 0.5, 0.1*3 +- 0.1i).
    f = AnalyticFunctionHandle(eval=lambda z: np.polyval(coeffs, z),
                               eval_deriv=lambda z: np.polyval(np.polyder(coeffs), z))
    out = find_zeros(f, UNIT)
    assert out.total_count == len(roots)
    for r in out.roots:
        mirror = out.nearest(r.location.conjugate())
        assert abs(mirror.location - r.location.conjugate()) < 1e-9
        assert mirror.multiplicity == r.multiplicity


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
        out = find_zeros(_poly_handle(np.poly(roots)), UNIT, refine_tol=1e-12)
        assert all(r.residual < 1e-12 for r in out.roots)


def test_boundary_zero_inflates_and_recovers(caplog):
    # zero exactly on the requested boundary: the search inflates the
    # rectangle by a factor in [1.01, 1.05] and proceeds, logging the
    # swallowed error at DEBUG
    f = AnalyticFunctionHandle(eval=lambda z: z - 1.0)
    with caplog.at_level(logging.DEBUG, logger="specbar.rootfinder"):
        n = winding_number(f, Rectangle(0.0, 1.0, -0.5, 0.5))
    assert n == 1
    assert any("BoundaryZeroError" in m for m in caplog.messages)
    out = find_zeros(f, Rectangle(0.0, 1.0, -0.5, 0.5))
    assert out.total_count == 1
    assert abs(out.roots[0].location - 1.0) < 1e-10


def test_non_integer_contour_raises_quadrature_error():
    # a log-derivative whose contour integral is half-integral (here an
    # inconsistent derivative is supplied on purpose) must be rejected
    f = AnalyticFunctionHandle(eval=lambda z: z,
                               eval_deriv=lambda z: np.full(z.shape, 0.5))
    with pytest.raises(QuadratureError):
        winding_number(f, UNIT)


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


def test_exclusion_regions_block_search():
    f = AnalyticFunctionHandle(
        eval=lambda z: z - 0.5,
        exclusions=(HorizontalRay(0.0, 0.0, 1e-3),),
    )
    with pytest.raises(DomainError):
        winding_number(f, Rectangle(-1.0, 1.0, -0.5, 0.5))
    # a rectangle clear of the excluded ray works
    assert winding_number(f, Rectangle(-1.0, 1.0, 0.1, 0.5)) == 0


def test_deterministic_inflation():
    f = AnalyticFunctionHandle(eval=lambda z: z - 1.0)
    rect = Rectangle(0.0, 1.0, -0.5, 0.5)
    a = find_zeros(f, rect)
    b = find_zeros(f, rect)
    assert a == b
