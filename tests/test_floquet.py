import math
import time

import numpy as np
import pytest
from numpy.polynomial import Chebyshev
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

from specbar import floquet, rootfinder
from specbar.core import (
    BarrierProblem,
    ConstExpr,
    DomainError,
    PeriodicTail,
    Piece,
    PotentialModel,
    Rectangle,
    Sheet,
    SinExpr,
    principal_sqrt,
)
from specbar.floquet import (
    BandStructure,
    BranchPointError,
    bands,
    embedded_resonances,
    floquet_data,
    floquet_solution,
    monodromy,
    sp_zeros,
)
from specbar.sturm import CharacteristicContext, eigenvalues

from conftest import STACKED_EMBEDDED_RESONANCE_RE

# First stability interval of -u'' + sin(x) u, from the Mathieu
# characteristic values: [a_0(2)/4, b_1(2)/4].
SIN_BAND_1 = (mathieu_a(0, 2) / 4.0, mathieu_b(1, 2) / 4.0)


def test_monodromy_free_closed_form(free_periodic_model):
    z = 2.7 - 0.3j
    m = monodromy(free_periodic_model, z)
    w = principal_sqrt(z)
    assert abs(m.phi1_end - np.cos(w)) < 1e-12
    assert abs(m.phi2p_end - np.cos(w)) < 1e-12
    assert abs(m.phi2_end - np.sin(w) / w) < 1e-12


def test_monodromy_determinant_identity(sin_model):
    # Abel identity at the scale of the Wronskian products: cell solutions
    # grow to ~1e6 at the deep end of the sample box, so the identity can
    # only be verified relative to that magnitude
    rng = np.random.default_rng(8)
    z = rng.uniform(-5, 5, 100) + 1j * rng.uniform(-1, 1, 100)
    m = monodromy(sin_model, z)
    scale = np.maximum(1.0, np.abs(m.phi1_end * m.phi2p_end)
                       + np.abs(m.phi1p_end * m.phi2_end))
    assert np.max(np.abs(m.det - 1.0) / scale) < 1e-10


def test_monodromy_requires_periodic_tail(free_model):
    with pytest.raises(DomainError):
        monodromy(free_model, 1.0)


def test_discriminant_inside_first_band(sin_model):
    m = monodromy(sin_model, -0.36)
    assert abs(m.discriminant) < 2.0


def test_floquet_data_free_exponent(free_periodic_model):
    for z in (-1.0, -2 + 1j, 3 + 2j):
        fd = floquet_data(free_periodic_model, z)
        assert abs(fd.k - principal_sqrt(z)) < 1e-10
        assert abs(fd.rho_plus * fd.rho_minus - 1.0) < 1e-12


def test_multiplier_identities(sin_model):
    rng = np.random.default_rng(9)
    z = rng.uniform(-5, 5, 100) + 1j * rng.uniform(0.05, 1, 100)
    fd = floquet_data(sin_model, z)
    assert np.max(np.abs(fd.rho_plus * fd.rho_minus - 1.0)) < 1e-12
    # trace identity, relative to |D| once the discriminant is large
    scale = np.maximum(1.0, np.abs(fd.D))
    assert np.max(np.abs(fd.rho_plus + fd.rho_minus - fd.D) / scale) < 1e-10


def test_exponent_positive_imag_off_bands(sin_model):
    rng = np.random.default_rng(10)
    z = rng.uniform(-5, 5, 60) + 1j * rng.uniform(0.01, 1.5, 60)
    fd = floquet_data(sin_model, z)
    assert np.min(fd.k.imag) > 0.0
    fd2 = floquet_data(sin_model, z, sheet=Sheet.SECOND)
    assert np.max(fd2.k.imag) < 0.0


def test_branch_point_guard(free_periodic_model):
    # z = 0 has D = 2 exactly for the free cell
    with pytest.raises(BranchPointError):
        floquet_data(free_periodic_model, 0.0)


def test_bands_free_half_line(free_periodic_model):
    # with period 2 pi the free cell's D = 2 cos(2 pi sqrt z) touches +-2 at
    # z = 1/4, 1, 9/4, 4: closed gaps, double roots that must not split the band
    free_2pi = PotentialModel(tail=PeriodicTail(2 * math.pi, 0.0, ConstExpr(0.0)))
    for model in (free_periodic_model, free_2pi):
        bs = bands(model, -1.0, 5.0)
        assert len(bs.bands) == 1
        lo, hi = bs.bands[0]
        assert abs(lo) < 1e-8
        assert hi == 5.0


def test_bands_sin_first_interval(sin_model):
    bs = bands(sin_model, -1.0, 0.0)
    assert len(bs.bands) == 1
    lo, hi = bs.bands[0]
    # paper values, quoted to 4 decimals
    assert abs(lo - (-0.3785)) < 1e-3
    assert abs(hi - (-0.3477)) < 1e-3
    # independent special-function oracle
    assert abs(lo - SIN_BAND_1[0]) < 1e-6
    assert abs(hi - SIN_BAND_1[1]) < 1e-6


def test_bands_sorted_disjoint_with_end_residuals(sin_model):
    bs = bands(sin_model, -1.0, 1.5)
    assert list(bs.bands) == sorted(bs.bands)
    for (a, b), (c, d) in zip(bs.bands, bs.bands[1:]):
        assert b < c
    for e in bs.band_ends:
        if -1.0 < e < 1.5:  # interior ends are genuine |D| = 2 points
            m = monodromy(sin_model, e)
            assert abs(abs(m.discriminant.real) - 2.0) < 1e-9


def _mathieu_ends(hi):
    # band ends of -u'' + sin(x) u below hi, from the Mathieu characteristic values
    want = []
    m = 0
    while (lo := mathieu_a(m, 2) / 4.0) < hi:
        want += [lo, min(mathieu_b(m + 1, 2) / 4.0, hi)]
        m += 1
    return want


def test_bands_find_the_narrow_gaps(sin_model):
    # [-2, 10] holds seven Mathieu bands; the gaps (6.270837, 6.270944) and
    # (9.014302, 9.014304) are narrower than any practical grid cell
    bs = bands(sin_model, -2.0, 10.0)
    want = _mathieu_ends(10.0)
    assert len(bs.bands) == len(want) // 2 == 7
    assert np.max(np.abs(np.subtract(bs.band_ends, want))) < 1e-6


def test_bands_ignore_the_range_below_the_tail_minimum(sin_model, monkeypatch):
    # no band lies below min q = -1, where D grows like exp(2 pi sqrt(-z));
    # interpolating D down to -20 would bury the ~1e-12 high 9.0143 gap
    bs = bands(sin_model, -20.0, 10.0)
    assert len(bs.bands) == 7
    assert bs == bands(sin_model, -1.0, 10.0) == bands(sin_model, -math.inf, 10.0)
    # a range wholly below -1 holds no band, and D is never sampled there
    sampled = []
    monkeypatch.setattr(floquet, "_discriminant_real",
                        lambda *args: sampled.append(args))
    assert bands(sin_model, -5.0, -1.5) == BandStructure(())
    assert bands(sin_model, -math.inf, -1.0) == BandStructure(())
    assert sampled == []
    # the upper end must be finite: an infinite one ran every degree on NaN
    for z_min, z_max in ((-1.0, math.inf), (-1.0, math.nan), (math.nan, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="need z_min < z_max < inf"):
            bands(sin_model, z_min, z_max)


def test_bands_find_ends_the_interpolant_pushes_off_the_axis(sin_model, monkeypatch):
    # an interpolant 1e-10 low turns the ends of the ~1e-12 high 9.0143 gap
    # into a complex pair of roots of p - 2; Newton on D must still find them
    class Low(Chebyshev):
        @classmethod
        def interpolate(cls, func, deg, domain=None):
            return super().interpolate(func, deg, domain=domain) - 1e-10

    monkeypatch.setattr(floquet, "Chebyshev", Low)
    bs = bands(sin_model, -1.0, 10.0)
    want = _mathieu_ends(10.0)
    assert len(bs.bands) == 7
    assert np.max(np.abs(np.subtract(bs.band_ends, want))) < 1e-6


def test_bands_stable_under_step_halving(sin_model):
    a = bands(sin_model, -1.0, 0.0, ode_step=2e-3)
    b = bands(sin_model, -1.0, 0.0, ode_step=1e-3)
    for (x, y), (u, v) in zip(a.bands, b.bands):
        assert abs(x - u) < 1e-6
        assert abs(y - v) < 1e-6


def test_band_structure_distance():
    bs = BandStructure(((0.0, 1.0), (2.0, 3.0)))
    assert bs.distance(0.5) == 0.0
    assert bs.distance(1.5) == 0.5
    assert bs.distance(-1.0) == 1.0
    assert bs.distance(2.9) == 0.0
    # an array gives the scalar rule elementwise
    x = np.array([[-1.0, 0.5, 1.25], [1.5, 2.9, 7.0]])
    assert np.array_equal(bs.distance(x), np.vectorize(bs.distance)(x))
    assert np.array_equal(bs.distance(x), [[1.0, 0.0, 0.25], [0.5, 0.0, 4.0]])
    # an interval [a, b] gives the minimum over bands of max(lo - b, a - hi, 0)
    assert bs.distance(1.5, 1.875) == 0.125
    assert bs.distance(-3.0, -0.5) == 0.5
    assert bs.distance(0.5, 2.5) == 0.0
    assert bs.distance(3.5, math.inf) == 0.5
    assert np.array_equal(bs.distance([1.5, -3.0, 3.5], [1.875, -0.5, math.inf]),
                          [0.125, 0.5, 0.5])
    # an unbounded band: the half-line of a zero tail
    half = BandStructure(((0.0, math.inf),))
    assert half.distance(-2.0) == 2.0 and half.distance(1e300) == 0.0
    # NaN gives NaN, no bands give inf
    assert math.isnan(bs.distance(math.nan))
    assert math.isnan(bs.distance(0.0, math.nan))
    assert np.array_equal(np.isnan(bs.distance([0.5, math.nan])), [False, True])
    none = BandStructure(())
    assert none.distance(0.5) == math.inf
    assert np.array_equal(none.distance([0.5, -1.0]), [math.inf, math.inf])


def test_quasi_periodicity(sin_model):
    z = -0.5 + 0.3j
    a = 2 * math.pi
    fd = floquet_data(sin_model, z)
    rng = np.random.default_rng(4)
    for x0 in rng.uniform(0, a, 20):
        s1 = floquet_solution(sin_model, float(x0), z)
        s2 = floquet_solution(sin_model, float(x0) + 3 * a, z)
        v1 = s1.value * np.exp(s1.log_scale)
        v2 = s2.value * np.exp(s2.log_scale)
        assert abs(v2 - np.exp(3j * fd.k * a) * v1) < 1e-9
        d1 = s1.derivative * np.exp(s1.log_scale)
        d2 = s2.derivative * np.exp(s2.log_scale)
        assert abs(d2 - np.exp(3j * fd.k * a) * d1) < 1e-9


def test_solution_satisfies_equation(sin_model):
    # second-difference residual of -psi'' + q psi = z psi on a grid
    z = -0.2 + 0.4j
    h = 1e-3
    xs = np.linspace(0.5, 2.5, 9)
    vals = {}
    for x in np.concatenate([xs - h, xs, xs + h]):
        s = floquet_solution(sin_model, float(x), z)
        vals[float(x)] = s.value * np.exp(s.log_scale)
    scale = max(abs(v) for v in vals.values())
    for x in xs:
        x = float(x)
        second = (vals[x - h] - 2 * vals[x] + vals[x + h]) / h**2
        q = math.sin(x)
        resid = -second + (q - z) * vals[x]
        assert abs(resid) < 1e-6 * scale


def test_free_solution_is_plane_wave(free_periodic_model):
    z = -1.5 + 0.2j
    s0 = floquet_solution(free_periodic_model, 0.0, z)
    s1 = floquet_solution(free_periodic_model, 2.7, z)
    ratio = (s1.value * np.exp(s1.log_scale)) / (s0.value * np.exp(s0.log_scale))
    assert abs(ratio - np.exp(1j * principal_sqrt(z) * 2.7)) < 1e-9


def test_floquet_solution_backward_below_cell():
    # tail starting beyond a compact piece: values below the cell start are
    # integrated backwards and must still solve the equation there
    model = PotentialModel(
        pieces=(Piece(0.0, 1.0, ConstExpr(0.5)),),
        tail=PeriodicTail(period=1.0, start=1.0, expr=ConstExpr(0.0)),
    )
    z = -0.7 + 0.1j
    h = 1e-4
    vals = []
    for x in (0.5 - h, 0.5, 0.5 + h):
        s = floquet_solution(model, x, z)
        vals.append(s.value * np.exp(s.log_scale))
    second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
    resid = -second + (0.5 - z) * vals[1]
    assert abs(resid) < 1e-5 * abs(vals[1])


def test_sp_zeros_free_tail_empty(free_periodic_model):
    out = sp_zeros(free_periodic_model, 1.0, 0.0,
                   Rectangle(-3.0, 3.0, 0.05, 0.95))
    assert out.total_count == 0


def test_sp_zeros_residual_contract_and_isolation(sin_model):
    # a coarser cell step keeps this scan fast; RK4 at 4e-3 still resolves
    # the cell to ~1e-9
    out = sp_zeros(sin_model, 0.25, 0.0, Rectangle(-0.3, 0.5, 0.02, 0.23),
                   ode_step=4e-3)
    for r in out.roots:
        assert r.residual < 1e-10
    locs = out.locations
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            assert abs(locs[i] - locs[j]) > 1e-4


def test_sp_zeros_drop_null_cell_vector_zero():
    # On the -sin tail the Dirichlet point -0.18339 decays, so the cell
    # vector of the solution with the other multiplier, psi_minus at
    # lam - i gamma, vanishes at lam = -0.18339 + i (|v| ~ 6e-14) and the
    # cross-Wronskian with it: no pollution point.
    model = PotentialModel(tail=PeriodicTail(
        period=2 * math.pi, start=0.0, expr=SinExpr(1.0, 1.0, math.pi)))
    out = sp_zeros(model, 1.0, 0.0, Rectangle(-0.3, -0.05, 0.9, 1.1),
                   ode_step=1e-2)
    assert out.total_count == 0


def test_sp_zeros_zero_just_outside_an_edge():
    # On -sin at x0 = 0.3 a zero lies 1.1e-5 left of this rectangle.  The
    # left edge resolves it in panels, so the search needs no retry (a
    # retry on a rectangle inflated by 1-5% reached the 1e-3 pad of the
    # band exclusion at Im 0 and raised DomainError, after 65.8 s when the
    # whole edge was refined).
    model = PotentialModel(tail=PeriodicTail(
        period=2 * math.pi, start=0.0, expr=SinExpr(1.0, 1.0, math.pi)))
    start = time.perf_counter()
    out = sp_zeros(model, 1.0, 0.3, Rectangle(-0.33, 0.90, 0.02, 0.98))
    assert out.total_count == 0
    assert time.perf_counter() - start < 10.0


def test_sp_zeros_validates_cell_offset(sin_model, stacked_model, free_model,
                                       monkeypatch):
    with pytest.raises(DomainError):
        sp_zeros(sin_model, 0.25, 10.0, Rectangle(-0.3, 0.5, 0.02, 0.23))
    with pytest.raises(DomainError):
        sp_zeros(stacked_model, 1.0, -1.0, Rectangle(-4.0, 4.0, 0.05, 0.95))
    # on a zero tail an infinite offset overflowed the carrier and NaN passed
    # x0 < 0: both were reported as a function not finite on a contour edge.
    # They are refused before the cross-Wronskian is evaluated
    def evaluated(*_):
        raise AssertionError("the cross-Wronskian was evaluated")

    monkeypatch.setattr(floquet, "_cross_wronskian", evaluated)
    for x0 in (math.inf, math.nan):
        with pytest.raises(DomainError, match="x0 must be nonnegative and finite"):
            sp_zeros(free_model, 1.0, x0, Rectangle(0.1, 6.0, 0.05, 0.95))


def test_embedded_resonances_free_zero_tail(free_model):
    assert embedded_resonances(free_model, (0.2, 4.0), tol=1e-8) == []


def test_embedded_resonances_stacked_compact(stacked_model):
    # the upper-continued boundary form of the stacked background has a
    # near-real zero; the scan locates its real-axis crossing
    out = embedded_resonances(stacked_model, (2.5, 4.0), tol=1e-2)
    assert len(out) == 1
    assert abs(out[0] - STACKED_EMBEDDED_RESONANCE_RE) < 5e-3
    # at a tight residual tolerance the slightly-off-axis zero is rejected
    assert embedded_resonances(stacked_model, (2.5, 4.0), tol=1e-8) == []


def test_embedded_resonances_band_validation(sin_model):
    with pytest.raises(DomainError):
        embedded_resonances(sin_model, (-0.9, -0.5), tol=1e-6,
                            ode_step=4e-3)  # in a gap
    assert embedded_resonances(
        sin_model, (SIN_BAND_1[0] + 5e-3, SIN_BAND_1[1] - 5e-3), tol=1e-6,
        ode_step=4e-3,
    ) == []


@pytest.mark.parametrize("z_max", [2501.0, 6401.0])
def test_bands_of_a_wide_range_match_a_short_range_below_10(sin_model, z_max):
    # to 2501 (fd's range at h = 0.04) and beyond, the noise of the sampled D
    # stops the 1e-12 chop at every degree; the one interpolant stops at the
    # noise plateau instead and keeps every band end of [-1, 10] to about
    # RK4's error in D, the 9.0143 gap (2e-6 wide) included
    got = bands(sin_model, -1.0, z_max).bands
    want = bands(sin_model, -1.0, 10.0).bands
    assert len(got) == len(want) == 7 and got[-1][1] == z_max
    assert np.max(np.abs(np.ravel(got)[:-1] - np.ravel(want)[:-1])) < 1e-8


def _cos_with_noise(size):
    """cos(40 x) plus a term of the given size that no degree to 4096 resolves."""
    return lambda x: np.cos(40 * x) + size * np.cos(3e4 * x)


def test_crossings_stop_at_a_noise_plateau_below_1e_8():
    # the 1e-10 term sits on the coefficients as a plateau above the chop at
    # every degree: the interpolant below it still finds cos(40 x)'s zeros,
    # which the term moves by about 2.5e-12
    _, got = floquet._crossings(_cos_with_noise(1e-10), -1.0, 1.0, (0.0,))
    want = (np.pi / 2 + np.pi * np.arange(-13, 13)) / 40
    assert len(got) == len(want)
    assert np.max(np.abs(got - want)) < 1e-11


def test_crossings_refuse_a_plateau_above_1e_8():
    with pytest.raises(floquet.BandResolutionError, match="degree 4096"):
        floquet._crossings(_cos_with_noise(1e-6), -1.0, 1.0, (0.0,))


@pytest.fixture(scope="module")
def sin_bands_to_3(sin_model):
    return bands(sin_model, -1.0, 3.0).bands


@pytest.mark.parametrize("index", range(4))
def test_embedded_resonances_take_an_interval_exactly_the_standoff_inside(
        sin_model, sin_bands_to_3, index):
    # band ends move with the range at the rounding level; the band check
    # reads the bands over the interval widened by the standoff, which
    # clips them exactly at its ends
    standoff = 1e-3
    b_lo, b_hi = sin_bands_to_3[index]
    lo, hi = b_lo + standoff, b_hi - standoff
    embedded_resonances(sin_model, (lo, hi), standoff=standoff)
    with pytest.raises(DomainError):
        embedded_resonances(sin_model, (lo - 1e-6, hi), standoff=standoff)
    if b_hi < 3.0:  # the last band is clipped at 3, not ended there
        with pytest.raises(DomainError):
            embedded_resonances(sin_model, (lo, hi + 1e-6), standoff=standoff)


@pytest.mark.parametrize("standoff", [0.0, -1.0, math.nan, math.inf])
def test_embedded_resonances_refuse_a_standoff_not_positive_and_finite(
        stacked_model, standoff):
    with pytest.raises(ValueError, match="standoff must be positive and finite"):
        embedded_resonances(stacked_model, (2.5, 4.0), standoff=standoff)


def _stacked_boundary_form(z):
    """u(0) of the solution that is exp(i sqrt(z) x) beyond the piece i on [0, 4.7)."""
    k, w, r0 = np.sqrt(z), np.sqrt(z - 1j), 4.7
    return np.exp(1j * k * r0) * (np.cos(w * r0) - 1j * k * np.sin(w * r0) / w)


_STACKED_MODEL = PotentialModel(pieces=(Piece(0.0, 4.7, ConstExpr(1j)),))
_COMPLEX_PIECE_MODEL = PotentialModel(
    pieces=(Piece(0.0, 2.0, ConstExpr(0.5j)),),
    tail=PeriodicTail(2 * math.pi, 2.0, SinExpr(1.0, 1.0)))


def _library_boundary_form(z):
    val, _ = floquet._upper_solution_at_zero(_COMPLEX_PIECE_MODEL, z, 1e-3)
    return val


def _bracketed_crossings(form, lo, hi):
    """Sign changes of Re form on a 2000-point grid, each refined by Brent's method."""
    def re_h(z):
        return np.real(form(np.asarray(z, dtype=complex)))

    grid = np.linspace(lo, hi, 2000)
    g = re_h(grid)
    return [brentq(re_h, a, b, xtol=1e-15)
            for a, b, ga, gb in zip(grid[:-1], grid[1:], g[:-1], g[1:])
            if ga * gb < 0]


@pytest.mark.parametrize("model, form, band, standoff", [
    (_STACKED_MODEL, _stacked_boundary_form, (2.5, 4.0), 1e-3),
    (_STACKED_MODEL, _stacked_boundary_form, (0.001, 40.0), 1e-3),
    (_STACKED_MODEL, _stacked_boundary_form, (0.0002, 10.0), 1e-4),
    (_STACKED_MODEL, _stacked_boundary_form, (0.01, 10.0), 1e-3),
    # bands 0 and 2 of the piece 0.5i on [0, 2] before the sin tail, 1e-3 in
    (_COMPLEX_PIECE_MODEL, _library_boundary_form, (-0.37748, -0.34867), 1e-3),
    (_COMPLEX_PIECE_MODEL, _library_boundary_form, (1.29417, 2.28415), 1e-3),
], ids=["stacked-2.5-4", "stacked-0.001-40", "stacked-0.0002-10",
        "stacked-0.01-10", "complex-band0", "complex-band2"])
def test_embedded_resonances_match_a_bracketing_oracle(model, form, band,
                                                       standoff):
    # every real crossing of Re h (tol = inf keeps them all); on band 2 Newton
    # leaves two starts clipped at the interval's ends, which are no crossings
    want = _bracketed_crossings(form, *band)
    got = embedded_resonances(model, band, tol=math.inf, standoff=standoff)
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-10


def test_crossings_merge_the_starts_that_meet():
    # sampled in z, the stacked form on (0.01, 10) sends two Newton starts to
    # the crossing at 0.1004: it is returned once
    def re_h(z):
        return _stacked_boundary_form(z.astype(complex)).real

    polished, got = floquet._crossings(re_h, 0.01, 10.0, (0.0,))
    want = _bracketed_crossings(_stacked_boundary_form, 0.01, 10.0)
    assert len(polished) > len(got) == len(want) == 5
    assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("model", [
    PotentialModel(tail=PeriodicTail(2 * math.pi, 0.0, SinExpr(1.0, 1.0))),
    PotentialModel(pieces=(Piece(0.0, 2.0, ConstExpr(1.0)),),
                   tail=PeriodicTail(2 * math.pi, 2.0, SinExpr(1.0, 1.0))),
], ids=["sin", "const_then_sin"])
def test_upper_solution_is_the_limit_from_above(model):
    # On a band the tail solution continued from the upper half-plane is
    # the limit of the decaying Floquet solution at z + i eps: the error
    # falls linearly with eps.
    z = np.array([-0.36, 0.65, 0.8, 0.9])
    val, der = floquet._upper_solution_at_zero(model, z, 4e-3)
    size = np.hypot(np.abs(val), np.abs(der))
    errs = []
    for eps in (1e-6, 1e-7):
        s = floquet_solution(model, 0.0, z + 1j * eps, ode_step=4e-3)
        scale = np.exp(s.log_scale)
        errs.append(np.hypot(np.abs(s.value * scale - val),
                             np.abs(s.derivative * scale - der)) / size)
    assert np.all(errs[0] < 1e3 * 1e-6)
    ratio = errs[0] / errs[1]
    assert np.all((ratio > 8.0) & (ratio < 12.0))


def test_exponent_continuation_toward_band(sin_model):
    # approaching a band interior from above, Im k vanishes linearly
    prev = None
    for eps in (1e-2, 1e-4, 1e-6):
        fd = floquet_data(sin_model, -0.36 + 1j * eps)
        assert fd.k.imag > 0
        if prev is not None:
            assert fd.k.imag < prev
        prev = fd.k.imag
    assert prev < 1e-4


def _gap_search(sin_model, rect, monkeypatch):
    """eigenvalues of the sin-tail barrier of width 4 pi on rect at ode_step
    1e-2, and how many times the search computed bands."""
    calls = []

    def counted_bands(*args, **kwargs):
        calls.append(args[1:3])
        return bands(*args, **kwargs)

    monkeypatch.setattr(floquet, "bands", counted_bands)
    ctx = CharacteristicContext(BarrierProblem(sin_model, 1.0, 4 * math.pi), ode_step=1e-2)
    return eigenvalues(ctx, rect), calls


def test_search_far_from_every_band_level_computes_no_bands(sin_model, monkeypatch):
    # Im 0.5 .. 0.99 lies 0.01 below the level gamma = 1, farther than the
    # standoff 1e-3 plus the retry's nudge, so no band segment of either
    # level can touch the search: no bands are computed.  A nudge wide
    # enough to reach level 1 brings the band (-0.3785, -0.3477) lifted
    # there inside the largest rectangle a contour could use, and the
    # search is refused once its bands are computed
    rect = Rectangle(-0.37, -0.2, 0.5, 0.99)
    out, calls = _gap_search(sin_model, rect, monkeypatch)
    assert calls == []
    assert out.total_count == 1
    monkeypatch.setattr(rootfinder, "_NUDGE", 1.0)
    with pytest.raises(DomainError, match="within the standoff"):
        _gap_search(sin_model, rect, monkeypatch)


@pytest.mark.parametrize("model_name, R, ode_step, rect", [
    # the ray [0, inf) lies 1e-3 + 1e-7 below this rectangle
    ("free_model", 10.0, 1e-3, Rectangle(0.1, 1.1, 1e-3 + 1e-7, 0.5)),
    # the band (-0.3785, -0.3477) lifted to Im = 1 lies 1e-3 + 2e-7 above it
    ("sin_model", 4 * math.pi, 1e-2, Rectangle(-0.37, -0.2, 0.5, 1.0 - 1e-3 - 2e-7)),
], ids=["zero", "periodic"])
def test_search_whose_retry_would_meet_the_standoff_is_refused(
        request, monkeypatch, model_name, R, ode_step, rect):
    # the rectangle clears the standoff 1e-3, but its copy nudged outward
    # by 2^-20 of its longer side, where a failed contour would be retried,
    # does not: the search is refused before the function is evaluated
    searched = []
    monkeypatch.setattr(floquet, "find_zeros", lambda f, r: searched.append(r))
    ctx = CharacteristicContext(BarrierProblem(request.getfixturevalue(model_name), 1.0, R),
                                ode_step=ode_step)
    with pytest.raises(DomainError, match="within the standoff"):
        eigenvalues(ctx, rect)
    assert searched == []


def test_search_within_the_standoff_of_a_band_is_refused(sin_model, monkeypatch):
    # the band (-0.3785, -0.3477) lifted to Im = 1 lies 5e-4 above this
    # rectangle, within the standoff 1e-3
    with pytest.raises(DomainError):
        _gap_search(sin_model, Rectangle(-0.37, -0.2, 0.5, 1.0 - 5e-4), monkeypatch)
