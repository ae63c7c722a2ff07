import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import linalg
from scipy.optimize import linear_sum_assignment

from specbar.core import BarrierProblem, PotentialModel, Rectangle, SinExpr, PeriodicTail
from specbar import fdtrunc
from specbar.fdtrunc import (
    SolverError,
    TridiagonalOperator,
    build_matrix,
    classify_spectrum,
    eigenvalues_dense,
)
from specbar.floquet import BandStructure
from specbar.sturm import CharacteristicContext, eigenvalues


def _free_operator(n: int, h: float) -> TridiagonalOperator:
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    return TridiagonalOperator(
        n=n, sub=off.copy(), diag=np.full(n, 2.0 / h**2, dtype=complex),
        super=off.copy(), h=h, X=(n + 1) * h,
    )


def _dense(t: TridiagonalOperator) -> np.ndarray:
    return np.diag(t.diag) + np.diag(t.sub, -1) + np.diag(t.super, 1)


def _matched_distance(a, b) -> float:
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_build_matrix_arithmetic():
    # h = 0.25 gives diag 2/h^2 = 32 and off-diagonals -16; the barrier
    # adds i*gamma exactly on grid points with x <= R.  (X is sized so the
    # resolution precondition h <= X/16 holds.)
    p = BarrierProblem(PotentialModel(), gamma=1.0, R=2.0)
    t = build_matrix(p, X=4.0, h=0.25)
    assert t.n == 15
    assert np.allclose(t.sub, -16.0)
    assert np.allclose(t.super, -16.0)
    x = 0.25 * np.arange(1, 16)
    assert np.allclose(t.diag, 32.0 + 1j * (x <= 2.0))


def test_build_matrix_stores_one_read_only_off_diagonal():
    t = build_matrix(BarrierProblem(PotentialModel(), gamma=1.0, R=2.0), X=4.0, h=0.25)
    assert t.sub is t.super
    assert not t.sub.flags.writeable


def test_build_matrix_includes_sin_and_barrier():
    model = PotentialModel(
        tail=PeriodicTail(period=2 * math.pi, start=0.0, expr=SinExpr(1.0, 1.0))
    )
    p = BarrierProblem(model, gamma=0.25, R=2.0)
    t = build_matrix(p, X=4.0, h=0.25)
    x = 0.25 * np.arange(1, t.n + 1)
    want = 2 / 0.25**2 + np.sin(x) + 0.25j * (x <= 2.0)
    assert np.allclose(t.diag, want, atol=1e-14)


def test_build_matrix_validation():
    p = BarrierProblem(PotentialModel(), gamma=1.0, R=2.0)
    with pytest.raises(ValueError):
        build_matrix(p, X=2.0, h=0.1)     # truncation must contain the barrier
    with pytest.raises(ValueError):
        build_matrix(p, X=4.0, h=0.5)     # h too coarse


def test_diagonal_matrix_eigenvalues():
    d = np.array([1.0 + 1j, 2.0 - 0.5j, 3.0, 4.0 + 0.25j])
    t = TridiagonalOperator(n=4, sub=np.zeros(3, dtype=complex), diag=d,
                            super=np.zeros(3, dtype=complex), h=0.2, X=1.0)
    eigs = eigenvalues_dense(t)
    got = sorted(eigs, key=lambda z: z.real)
    want = sorted(map(complex, d), key=lambda z: z.real)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_free_laplacian_closed_form(n):
    h = 0.01
    t = _free_operator(n, h)
    eigs = np.array(sorted(eigenvalues_dense(t), key=lambda z: z.real))
    k = np.arange(1, n + 1)
    want = (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))
    assert np.max(np.abs(eigs.real - want) / np.abs(want)) < 1e-10
    assert np.max(np.abs(eigs.imag)) < 1e-10 * want.max()


def test_full_barrier_shift_identity():
    # a barrier covering every grid point adds i*gamma to the whole
    # spectrum; R sits half a cell beyond the last grid point so float
    # rounding of the grid cannot drop it
    h = 0.05
    X = 2.0
    p1 = BarrierProblem(PotentialModel(), gamma=1.0, R=X - h / 2)
    t1 = build_matrix(p1, X=X, h=h)
    base = _free_operator(t1.n, h)
    e1 = np.array(sorted(eigenvalues_dense(t1), key=lambda z: z.real))
    e0 = np.array(sorted(eigenvalues_dense(base), key=lambda z: z.real))
    assert np.max(np.abs(e1 - (e0 + 1j))) < 1e-10 * np.abs(e0).max()


def test_mathieu_truncation_vs_recurrence_oracle(sin_model):
    # polish sampled eigenvalues with the characteristic-polynomial ratio
    # recurrence; the dense values must already sit on its zeros
    p = BarrierProblem(sin_model, gamma=0.25, R=4.0)
    t = build_matrix(p, X=10.05, h=0.05)
    assert t.n == 200
    eigs = eigenvalues_dense(t)

    def ratio_last(lam):
        # r_k = p_k / p_{k-1} for the leading principal minors p_k of (T - lam)
        r = t.diag[0] - lam
        off2 = 1.0 / t.h**4
        for k in range(1, t.n):
            r = (t.diag[k] - lam) - off2 / r
        return r

    idx = np.linspace(0, len(eigs) - 1, 5).astype(int)
    for i in idx:
        lam = eigs[i]
        z = complex(lam)
        h = 1e-7
        for _ in range(50):
            g = ratio_last(z)
            dg = (ratio_last(z + h) - ratio_last(z - h)) / (2 * h)
            if dg == 0:
                break
            step = g / dg
            if abs(step) > 0.5:
                step *= 0.5 / abs(step)
            z -= step
            if abs(step) < 1e-14 * (1 + abs(z)):
                break
        assert abs(z - lam) < 1e-6


def _exact_newton(t: TridiagonalOperator, z: complex) -> complex:
    # p/p' for p = det(T - z) by the three-term recurrence in exact
    # Gaussian-rational arithmetic: (re, im) pairs of Fractions
    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    def exact(w):
        return (Fraction(w.real), Fraction(w.imag))

    zq = exact(complex(z))
    s = [(Fraction(0), Fraction(0))] + [mul(exact(a), exact(b))
                                        for a, b in zip(t.sub, t.super)]
    p, p_prev = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
    dp, dp_prev = p_prev, p_prev
    for dk, sk in zip(t.diag, s):
        a = sub(exact(dk), zq)
        p, p_prev, dp, dp_prev = (
            sub(mul(a, p), mul(sk, p_prev)), p,
            sub(sub(mul(a, dp), p), mul(sk, dp_prev)), dp,
        )
    num = mul(p, (dp[0], -dp[1]))
    den = dp[0] ** 2 + dp[1] ** 2
    return complex(float(num[0] / den), float(num[1] / den))


def _recoupled(t: TridiagonalOperator, sub, super_) -> TridiagonalOperator:
    return TridiagonalOperator(n=t.n, sub=sub, diag=t.diag, super=super_, h=t.h, X=t.X)


@pytest.mark.parametrize("X, coupling", [
    pytest.param(10.05, "uniform", id="n200"),
    pytest.param(10.0, "uniform", id="n199-odd"),
    # the coupling between the rows where the two chains meet is 0
    pytest.param(10.05, "split", id="n200-split-at-the-join"),
    # sub != super, and every product sub * super differs
    pytest.param(10.05, "varied", id="n200-varied-coupling"),
])
def test_newton_matches_exact_recurrence(sin_model, X, coupling):
    # the float recurrence from both ends, rescaled by powers of two, against
    # the leading-minor recurrence in exact arithmetic, 1e-3 off sampled
    # eigenvalues and 1e-2 inside the lowest and the highest one
    t = build_matrix(BarrierProblem(sin_model, gamma=0.25, R=4.0), X=X, h=0.05)
    assert t.n == round(X / 0.05) - 1
    if coupling == "split":
        off = t.sub.copy()
        off[t.n // 2 - 1] = 0.0
        t = _recoupled(t, off, off)
    elif coupling == "varied":
        c = np.random.default_rng(5).uniform(0.5, 1.5, t.n - 1)
        t = _recoupled(t, t.sub * c, t.super * (1 + 1j * c) / 2)
    eigs = np.array(sorted(eigenvalues_dense(t), key=lambda z: z.real))
    z = np.r_[eigs[np.linspace(0, t.n - 1, 5).astype(int)] + 1e-3,
              eigs[0] + 1e-2, eigs[-1] - 1e-2]
    got = fdtrunc._newton(t, z)
    want = np.array([_exact_newton(t, zk) for zk in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9


def test_newton_rescales_each_point_on_its_own():
    # z = -1e6 sets the units: there the minors shrink by about 0.95 a row,
    # inside the spectrum by about 2^-11, so one scale for all points would
    # let the inner point's minors underflow within 100 rows
    t = _free_operator(200, 0.05)
    z = np.array([2.0 / 0.05**2 + 0.3, -1e6], dtype=complex)
    got = fdtrunc._newton(t, z)
    want = np.array([_exact_newton(t, zk) for zk in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9


@pytest.mark.parametrize("c, h", [
    pytest.param(1e150, 0.5, id="1e+150"),
    pytest.param(1e-150, 0.5, id="1e-150"),
    # ||c T|| ~ 1.6e153: tr (c T)^2 and sub * super overflow
    pytest.param(1e150, 0.05, id="1e+150-h0.05"),
    pytest.param(1e152, 0.05, id="1e+152-h0.05"),
])
def test_eigenvalues_scale_with_the_matrix(c, h):
    # c * T has eigenvalues c * lambda: unscaled, det(c T - z) over- or
    # underflows within a few rows
    n = 200
    R = n * h / 2
    x = h * np.arange(1, n + 1)
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    diag = 2.0 / h**2 + np.sin(x) + 1j * (x <= R)
    t = TridiagonalOperator(n=n, sub=off, diag=diag, super=off.copy(), h=h,
                            X=(n + 1) * h)
    ct = TridiagonalOperator(n=n, sub=c * t.sub, diag=c * t.diag, super=c * t.super,
                             h=h, X=t.X)
    base = np.array(eigenvalues_dense(t))
    got = np.array(eigenvalues_dense(ct)) / c
    assert _matched_distance(got, base) <= 1e-12 * np.abs(base).max()


@pytest.mark.parametrize("name, gamma, R, X, h, n", [
    ("sin", 1.0, 5.0, 10.05, 0.05, 200),
    ("stacked", 1.0, 10.0, 30.0, 0.05, 599),     # three levels of Im diag
    ("free", 0.5, 3.0, 4.0, 0.25, 15),
    ("sin", 1.0, 9.0, 10.05, 0.05, 200),         # the barrier block is the largest
    ("sin", 4.0, 5.0, 10.05, 0.05, 200),
])
def test_agrees_with_dense_zgeev(request, name, gamma, R, X, h, n):
    model = request.getfixturevalue(f"{name}_model")
    t = build_matrix(BarrierProblem(model, gamma, R), X, h)
    assert t.n == n
    got = eigenvalues_dense(t)
    assert _matched_distance(got, linalg.eigvals(_dense(t))) <= 1e-12 * t.norm_inf()


@pytest.mark.parametrize("diag, coupling", [
    # the block start 1 zeroes the first pivot exactly
    ([1.0, 2.0 + 1j, 3.0 + 1j], 1.0),
    # blocks [1+i, 1+i] | [5] | [1+i, 1+i] have equal spectra, so their
    # start points coincide unless they are moved apart
    ([1.0 + 1j, 1.0 + 1j, 5.0, 1.0 + 1j, 1.0 + 1j], 1.0),
    # uncoupled, 1+i is a 4-fold eigenvalue: p_n and p'_n both vanish on it
    ([1.0 + 1j, 1.0 + 1j, 5.0, 1.0 + 1j, 1.0 + 1j], 0.0),
    # two eigenvalues 1e-9 apart, one start in single precision
    ([1.0, 1.0 + 1e-9, 5.0, 2.0 + 1j], 0.0),
    # entries below the normal range of single precision
    ([1e-40, 2e-40 + 1e-41j, 1.0, 2.0], 1e-42),
], ids=["leading-minor-zero", "identical-blocks", "repeated-eigenvalue",
        "float32-merged-starts", "float32-subnormal"])
def test_degenerate_start_points(diag, coupling):
    n = len(diag)
    off = np.full(n - 1, coupling, dtype=complex)
    t = TridiagonalOperator(n=n, sub=off, diag=np.array(diag, dtype=complex),
                            super=off.copy(), h=0.25, X=0.25 * (n + 1))
    got = eigenvalues_dense(t)
    assert _matched_distance(got, linalg.eigvals(_dense(t))) <= 1e-12 * t.norm_inf()


def test_claim_gives_each_value_its_own_index():
    # both values are nearest 1.005; the nearer one, 1.0, gets it and 1.012
    # takes the nearest left, 0.99
    real = np.array([0.99, 1.005, 2.0])
    assert fdtrunc._claim(real, np.array([1.012, 1.0])).tolist() == [0, 1]
    rng = np.random.default_rng(7)
    real = np.sort(rng.uniform(0, 1, 300))
    got = fdtrunc._claim(real, rng.uniform(0, 1, 120))
    assert len(np.unique(got)) == 120


def _row_by_row_repulsion(z, active):
    diff = z[active, None] - z[None, :]
    diff[np.arange(len(active)), active] = np.inf
    return (1.0 / diff).sum(axis=1)


@pytest.mark.parametrize("m", [150, 1, 2, 31, 33, 97])
def test_repulsion_computes_each_pair_once(m):
    # m of 150 random points are active, all or one among them, and row
    # blocks of 32 end inside and at the end of the active ones
    rng = np.random.default_rng(m)
    n = 150
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    active = np.sort(rng.choice(n, m, replace=False))
    scratch = np.empty(fdtrunc._ROW_BLOCK * n, dtype=complex)
    got = fdtrunc._repulsion(z, active, scratch)
    want = _row_by_row_repulsion(z, active)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_newton_rows_of_the_benchmark_matrix(monkeypatch, sin_model):
    # the solve of the fd_truncation benchmark matrix hands _newton 9,763
    # points in all (4.07 per eigenvalue); the bound is 1.1 times that
    t = build_matrix(BarrierProblem(sin_model, 0.25, 20.0), 120.0, 0.05)
    assert t.n == 2399
    rows = []
    newton = fdtrunc._newton
    monkeypatch.setattr(fdtrunc, "_newton", lambda t, z: rows.append(len(z)) or newton(t, z))
    eigenvalues_dense(t)
    assert sum(rows) <= 10_740


def test_power_sum_certificate_rejects_a_repeated_eigenvalue(monkeypatch, sin_model):
    t = build_matrix(BarrierProblem(sin_model, 0.25, 4.0), 10.05, 0.05)
    eigs = np.sort_complex(np.array(eigenvalues_dense(t)))
    eigs[5] = eigs[4]       # a true eigenvalue, so the residual check alone passes
    monkeypatch.setattr(fdtrunc, "_aberth", lambda _: eigs.copy())
    with pytest.raises(SolverError, match="power sum"):
        eigenvalues_dense(t)


def test_aberth_memory_is_a_row_block(sin_model):
    # The repulsion sum runs _ROW_BLOCK rows at a time: at n = 2399 its
    # scratch is 32 x 2399 complex (1.2 MiB), where an n x n one is 88 MiB.
    t = build_matrix(BarrierProblem(sin_model, 0.25, 20.0), 120.0, 0.05)
    assert t.n == 2399
    tracemalloc.start()
    try:
        eigenvalues_dense(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_cap_and_residual_guards():
    # one row above the cap is refused before any solving starts
    t = _free_operator(fdtrunc._MAX_N + 1, 0.01)
    with pytest.raises(SolverError, match="exceeds the cap"):
        eigenvalues_dense(t)


def test_classify_spectrum_examples():
    bands = BandStructure(((-0.3785, -0.3477),))
    eigs = [-0.36 + 1e-9j, -0.36 + 0.25j, 5 + 0.1j]
    out = classify_spectrum(eigs, bands, gamma=0.25, tol_band=1e-3)
    assert out.pollution_real == [eigs[0]]
    assert out.essential_approx == [eigs[1]]
    assert out.discrete_candidates == [eigs[2]]
    assert out.total == 3


def test_classify_partition_property():
    rng = np.random.default_rng(3)
    bands = BandStructure(((0.0, 1.0), (2.0, 3.0)))
    eigs = [complex(rng.uniform(-1, 4), rng.uniform(-0.1, 0.6))
            for _ in range(200)]
    out = classify_spectrum(eigs, bands, gamma=0.5, tol_band=5e-3)
    assert out.total == len(eigs)
    recombined = out.pollution_real + out.essential_approx + out.discrete_candidates
    assert sorted(recombined, key=lambda z: (z.real, z.imag)) == \
        sorted(eigs, key=lambda z: (z.real, z.imag))


def _classify_one_at_a_time(eigs, bands, gamma, tol_band):
    """The per-eigenvalue rule classify_spectrum used to loop over."""
    def distance(x):
        best = math.inf
        for lo, hi in bands.bands:
            if x < lo:
                best = min(best, lo - x)
            elif x > hi:
                best = min(best, x - hi)
            else:
                return 0.0
        return best

    out = ([], [], [])
    for lam in map(complex, eigs):
        near_band = distance(lam.real) < tol_band
        if near_band and abs(lam.imag) < tol_band:
            out[0].append(lam)
        elif near_band and abs(lam.imag - gamma) < tol_band:
            out[1].append(lam)
        else:
            out[2].append(lam)
    return out


def test_classify_spectrum_is_the_per_eigenvalue_rule():
    # points on the tol_band edges: Re exactly tol_band from a band end, Im
    # exactly tol_band from 0 or gamma, on both sides, plus random points
    bands = BandStructure(((0.0, 1.0), (2.0, 3.5)))
    gamma, tol = 0.5, 0.125
    edges_re = [-0.125, -0.0625, 0.0, 1.0, 1.125, 1.0625, 1.875, 1.9375, 3.625, 3.5]
    edges_im = [-0.125, -0.0625, 0.0, 0.125, 0.0625, 0.375, 0.4375, 0.5, 0.625, 0.5625]
    rng = np.random.default_rng(8)
    eigs = ([complex(x, y) for x in edges_re for y in edges_im]
            + list(rng.uniform(-1, 4, 300) + 1j * rng.uniform(-0.2, 0.7, 300)))
    out = classify_spectrum(eigs, bands, gamma, tol_band=tol)
    want = _classify_one_at_a_time(eigs, bands, gamma, tol)
    assert (out.pollution_real, out.essential_approx, out.discrete_candidates) == want
    assert all(type(z) is complex for z in out.discrete_candidates)
    # the edges themselves fall outside: the rule is a strict < tol_band
    assert complex(-0.125, 0.0) in out.discrete_candidates
    assert complex(0.0, 0.125) in out.discrete_candidates
    assert complex(-0.0625, -0.0625) in out.pollution_real
    assert complex(1.0625, 0.4375) in out.essential_approx
    assert classify_spectrum([], bands, gamma).total == 0


def test_classify_validation():
    # NaN passed a check of tol_band <= 0, and inf made every eigenvalue pollution
    for tol_band in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            classify_spectrum([], BandStructure(((0.0, 1.0),)), 0.5, tol_band=tol_band)


def test_truncation_gap_eigenvalue_converges_to_the_contour_one_at_second_order():
    # -sin tail, barrier width 8 pi, truncated at X = R + 100: the one
    # truncation eigenvalue in the window over the gap of the shifted
    # essential spectrum approaches the contour eigenvalue like h^2
    model = PotentialModel(tail=PeriodicTail(period=2 * math.pi, start=0.0,
                                             expr=SinExpr(1.0, 1.0, math.pi)))
    p = BarrierProblem(model, 1.0, 8 * math.pi)
    [want] = eigenvalues(CharacteristicContext(p, ode_step=1e-2),
                         Rectangle(-0.3, -0.05, 0.7, 1.3)).locations
    dist = []
    for h in (0.05, 0.025):
        eigs = eigenvalues_dense(build_matrix(p, p.R + 100.0, h))
        [got] = [z for z in eigs if -0.3 < z.real < -0.05 and 0.7 < z.imag < 1.3]
        dist.append(abs(got - want))
    assert dist[0] < 1e-4 and dist[1] < 2.5e-5
    assert abs(dist[0] / dist[1] - 4.0) < 0.1
