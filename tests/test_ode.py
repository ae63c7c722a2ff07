"""Regression guards for the propagator and the Floquet layer above it.

The RK4 map is evaluated as closed-form step matrices multiplied into one
transfer per stretch; these tests pin it to the textbook stage form, pin
whole tail periods to one power of one cell's transfer, keep a wide
constant barrier finite and accurate against its closed form, and bound
how many propagations and discriminant evaluations the periodic verbs
make.  The call-count bounds are guards against rebuilding work, not
tolerances.
"""

import math

import numpy as np
import pytest

from specbar import _ode, floquet, sturm
from specbar.core import (
    BarrierProblem,
    ConstExpr,
    PeriodicTail,
    Piece,
    PotentialModel,
    SinExpr,
    principal_sqrt,
)

PERIOD = 2 * math.pi


def _stage_rk4(q, lam, x0, d, step, u, up):
    """Textbook RK4 in stage form for -u'' + q(x) u = lam u."""
    n = max(1, math.ceil(abs(d) / step))
    h = d / n
    for i in range(n):
        x = x0 + i * h
        a1, a2, a3 = q(x) - lam, q(x + 0.5 * h) - lam, q(x + h) - lam
        k1u, k1p = up, a1 * u
        k2u, k2p = up + 0.5 * h * k1p, a2 * (u + 0.5 * h * k1u)
        k3u, k3p = up + 0.5 * h * k2p, a2 * (u + 0.5 * h * k2u)
        k4u, k4p = up + h * k3p, a3 * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        up = up + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return u, up


def _lams(n=50, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 5.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def _seeds(ndim):
    eye = np.eye(2).reshape((2, 2) + (1,) * ndim)
    return eye[0], eye[1]


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("q_add", [0.0, 1j])
def test_step_matrices_match_stage_form(sin_model, q_add):
    lam = _lams()
    u, up, logs = _ode.propagate(sin_model, lam, 0.0, PERIOD, *_seeds(1),
                                 q_add=q_add, step=1e-2)
    assert np.all(logs == 0.0)
    for col, (u0, up0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        ref = _stage_rk4(lambda x: math.sin(x) + q_add, lam, 0.0, PERIOD,
                         1e-2, np.full(lam.shape, u0 + 0j),
                         np.full(lam.shape, up0 + 0j))
        scale = np.maximum(np.abs(ref[0]), np.abs(ref[1]))
        assert np.max(np.abs(u[col] - ref[0]) / scale) < 1e-12
        assert np.max(np.abs(up[col] - ref[1]) / scale) < 1e-12


@pytest.mark.parametrize("m, d, shift", [
    (1, PERIOD, 0.0),
    (1000, PERIOD, 0.0),
    (4097, PERIOD, 0.0),
    (50, 0.37, 0.0),
    (50, 13.0, 0.0),
    (50, 13.0, -400.0),
], ids=["block-64", "block-4", "block-1", "partial-0.37", "partial-13",
        "rescaled"])
def test_every_block_size_matches_stage_form(m, d, shift):
    # the blocks reuse one transfer's work arrays: 629 steps are blocks of
    # 64 steps for one point, 4 for 1000 and 1 for 4097; 37 steps leave
    # blocks of 32, 4 and 1 and 1300 steps blocks of 16 and 4; Re lam near
    # -400 grows the transfer by e^260 over 13, past _TRANSFER_LIMIT
    model = PotentialModel(pieces=(Piece(0.0, d, SinExpr(1.0, 1.0)),))
    lam = _lams(m, seed=2) + shift
    u, up, logs = _ode.propagate(model, lam, 0.0, d, *_seeds(1), step=1e-2)
    assert np.all(logs == 0.0) == (shift == 0.0)
    for col, (u0, up0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        ref = _stage_rk4(math.sin, lam, 0.0, d, 1e-2,
                         np.full(lam.shape, u0 + 0j),
                         np.full(lam.shape, up0 + 0j))
        scale = np.maximum(np.abs(ref[0]), np.abs(ref[1]))
        growth = np.exp(logs[col])
        assert np.max(np.abs(u[col] * growth - ref[0]) / scale) < 1e-12
        assert np.max(np.abs(up[col] * growth - ref[1]) / scale) < 1e-12


def test_whole_periods_match_chained_cells(sin_model, free_periodic_model):
    # the constant tail powers its cell transfer by the same rule as the sin tail
    for model in (sin_model, free_periodic_model):
        period = model.tail.period
        lam = _lams(seed=1)
        u, up, logs = _ode.propagate(model, lam, 0.0, 4 * period, 0.3, 1.0,
                                     step=1e-2)
        cu, cup = np.full(lam.shape, 0.3 + 0j), np.ones(lam.shape, complex)
        clogs = 0.0
        for k in range(4):
            cu, cup, dl = _ode.propagate(model, lam, k * period,
                                         (k + 1) * period, cu, cup, step=1e-2)
            clogs = clogs + dl
        ratio = np.exp(clogs - logs)
        scale = np.maximum(np.abs(u), np.abs(up))
        assert np.max(np.abs(cu * ratio - u) / scale) < 1e-12
        assert np.max(np.abs(cup * ratio - up) / scale) < 1e-12


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_whole_periods_are_one_power(sin_model, monkeypatch, direction):
    # 1,000 sin periods are one segment, whose cell transfer is raised to
    # its count by binary powering and applied once: one rescale, not one
    # per period.
    # The result is that of 1,000 chained single-cell propagations; the
    # largest difference measured is 3.2e-12
    period = sin_model.tail.period
    ends = [k * period for k in range(1001)]
    if direction == "backward":
        ends = ends[::-1]
    lam = _lams(8, seed=1)
    calls = _count_calls(monkeypatch, _ode, "_rescale")
    u, up, logs = _ode.propagate(sin_model, lam, ends[0], ends[-1], 0.3, 1.0,
                                 step=0.1)
    assert len(calls) == 1
    cu, cup = np.full(lam.shape, 0.3 + 0j), np.ones(lam.shape, complex)
    clogs = 0.0
    for x_from, x_to in zip(ends, ends[1:]):
        cu, cup, dl = _ode.propagate(sin_model, lam, x_from, x_to, cu, cup,
                                     step=0.1)
        clogs = clogs + dl
    ratio = np.exp(clogs - logs)
    scale = np.maximum(np.abs(u), np.abs(up))
    assert np.max(np.abs(cu * ratio - u) / scale) < 1e-11
    assert np.max(np.abs(cup * ratio - up) / scale) < 1e-11


def test_segments_count_whole_tail_cells(sin_model):
    # partial cells at either end, the whole cells between them as one
    period = sin_model.tail.period
    segs = _ode.segments(sin_model, 1.0, 1000 * period + 2.0)
    assert [(s.a, s.b, s.xoff, s.count) for s in segs] == [
        (1.0, period, 0.0, 1),
        (period, 1000 * period, period, 999),
        (1000 * period, 1000 * period + 2.0, 1000 * period, 1),
    ]
    assert _ode.segments(sin_model, 0.0, 3 * period) == [
        _ode.Segment(0.0, 3 * period, sin_model.tail.expr, 0.0, 3)]
    assert _ode.segments(sin_model, 1.0, 2.0) == [
        _ode.Segment(1.0, 2.0, sin_model.tail.expr, 0.0)]


@pytest.mark.parametrize("R", [600.0, 696.0, 1e6, 1e7])
def test_wide_constant_barrier_stays_finite(free_model, R):
    # u = sin(wR)/w, u' = cos(wR) with w = sqrt(lam - i); Im w < 0, so both
    # carry exp(i w R) ~ e^(1.03 R), past floating-point range: compare logs.
    # The rounding of w R alone moves the phase by about |w| R eps, and the
    # power of the substep transfer adds no more than that again
    lam = -1.0 + 0.5j
    ctx = sturm.CharacteristicContext(BarrierProblem(free_model, 1.0, R))
    s = sturm.interior_solution(ctx, lam)
    assert np.isfinite(s.value) and np.isfinite(s.derivative)
    w = np.sqrt(lam - 1j)
    tiny = np.exp(-2j * w * R)
    log_u = 1j * w * R + np.log((1.0 - tiny) / (2j * w))
    log_up = 1j * w * R + np.log((1.0 + tiny) / 2.0)
    bound = 1e-11 + 2.0 * abs(w) * R * np.finfo(float).eps
    assert abs(np.exp(np.log(s.value) + s.log_scale - log_u) - 1.0) < bound
    assert abs(np.exp(np.log(s.derivative) + s.log_scale - log_up) - 1.0) < bound


@pytest.mark.parametrize("x_from, x_to", [(0.0, 9.1), (9.1, 0.4)])
def test_column_seed_equals_single_columns(x_from, x_to):
    model = PotentialModel(
        pieces=(Piece(0.0, 1.3, ConstExpr(1j)), Piece(1.3, 2.0, SinExpr(0.5, 2.0))),
        tail=PeriodicTail(period=PERIOD, start=2.5, expr=SinExpr(1.0, 1.0)),
    )
    lam = _lams(seed=2)
    u, up, logs = _ode.propagate(model, lam, x_from, x_to, *_seeds(1),
                                 q_add=0.5j, step=1e-2)
    for col, (u0, up0) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        su, sup, slogs = _ode.propagate(model, lam, x_from, x_to, u0, up0,
                                        q_add=0.5j, step=1e-2)
        assert np.array_equal(u[col], su)
        assert np.array_equal(up[col], sup)
        assert np.array_equal(logs[col], slogs)


def test_characteristic_propagation_count(sin_model, monkeypatch):
    ctx = sturm.CharacteristicContext(BarrierProblem(sin_model, 1.0, 4 * math.pi),
                                      ode_step=1e-2)
    calls = _count_calls(monkeypatch, _ode, "propagate")
    sturm.characteristic(ctx, np.array([-0.3 + 0.9j, 0.2 + 0.5j]))
    # interior shot plus one monodromy
    assert len(calls) <= 2


def test_limit_function_propagation_count(sin_model, monkeypatch):
    calls = _count_calls(monkeypatch, _ode, "propagate")
    sturm._limit_function_arrays(sin_model, 1.0, np.array([0.1 + 1.1j]), 1e-2)
    # the tail starts at 0: one monodromy and nothing to propagate
    assert len(calls) == 1


def test_bands_discriminant_call_count(sin_model, monkeypatch):
    calls = _count_calls(monkeypatch, floquet, "_discriminant_real")
    floquet.bands(sin_model, -1.0, 1.0, ode_step=1e-2)
    # one call per interpolant degree tried, one per Newton round on all
    # four band ends, and one for the piece middles
    assert len(calls) <= 10


# The closed-form evaluation as it stood before its fixed cost was cut: a
# second square root in _sinc_like, a series branch taken whatever the
# input, a branch-flip clause np.sqrt never meets and a mask built before
# any magnitude is known to be large.  The current functions must give the
# same bits.

def _old_principal_sqrt(z):
    w = np.sqrt(np.asarray(z, dtype=complex))
    flip = (w.imag < 0) | ((w.imag == 0) & (w.real < 0))
    w = np.where(flip, -w, w)
    if np.isscalar(z) or getattr(z, "ndim", 0) == 0:
        return complex(w)
    return w


def _old_sinc_like(w2, d):
    w = np.sqrt(w2.astype(complex))
    t = w * d
    small = np.abs(t) < 1e-4
    w_safe = np.where(small, 1.0, w)
    c = np.cos(t)
    s = np.where(small, d * (1.0 - t * t / 6.0 * (1.0 - t * t / 20.0)),
                 np.sin(t) / w_safe)
    return c, s


def _old_const_transfer(qc, lam, d):
    w2 = lam - qc
    w = np.sqrt(w2)
    growth = float(np.max(np.abs(w.imag))) * abs(d) if w.size else 0.0
    nsub = max(1, math.ceil(growth / _ode._CONST_GROWTH))
    c, s = _old_sinc_like(w2, d / nsub)
    return ((c, s), (-w2 * s, c)), 0.0, nsub


def _old_rescale(u, up, logs):
    mag = np.maximum(np.abs(u), np.abs(up))
    big = mag > _ode._RESCALE_LIMIT
    if np.any(big):
        factor = np.where(big, mag, 1.0)
        u = u / factor
        up = up / factor
        logs = logs + np.log(factor)
    return u, up, logs


def _bits(x):
    return np.asarray(x).tobytes()


# the negative real axis with both signs of zero, the cut [0, inf) from
# either side, signed zeros, the axes and extreme magnitudes
_SQRT_POINTS = np.array([-4.0 + 0.0j, complex(-4.0, -0.0), -1e-300 + 0.0j,
                         complex(-1e-300, -0.0), complex(0.0, 0.0), complex(-0.0, 0.0),
                         complex(0.0, -0.0), complex(-0.0, -0.0), 4.0, 4.0 - 1e-15j,
                         4.0 + 1e-15j, 2.0j, -2.0j, -3.0 + 1e-300j, 1e300 - 1e300j,
                         -1e300 - 1.0j])


def test_principal_sqrt_reproduces_its_old_formula():
    assert _bits(principal_sqrt(_SQRT_POINTS)) == _bits(_old_principal_sqrt(_SQRT_POINTS))
    grid = _SQRT_POINTS.reshape(4, 4)
    assert _bits(principal_sqrt(grid)) == _bits(_old_principal_sqrt(grid))
    for z in _SQRT_POINTS:
        for form in (z, complex(z), np.asarray(z)):
            got, want = principal_sqrt(form), _old_principal_sqrt(form)
            assert type(got) is complex
            assert _bits([got]) == _bits([want])
    for z in (-4, -4.0, 0, 9, 2.25):
        assert _bits([principal_sqrt(z)]) == _bits([_old_principal_sqrt(z)])


@pytest.mark.parametrize("lam, d, nsub", [
    # |w d| below 1e-4 at every point, at some, and at none
    (np.array([1.0 + 1e-12j, 1.0 + 1e-10, 1.0 - 1e-9 + 1e-9j]), 2.0, 1),
    (np.array([1.0 + 1e-12j, 0.5 + 0.5j, 1.0 + 1e-9, 3.0 - 0.2j, -2.0]), 2.0, 1),
    (np.array([0.5 + 0.5j, 3.0 - 0.2j, -2.0, 7.0 + 0.0j]), 2.0, 1),
    # growth |Im w| d far above _CONST_GROWTH: several substeps
    (np.array([1.0 + 1e-12j, -1e4 + 3.0j, 2.0 - 50.0j]), 4.0, 5),
    (np.array(-400.0 + 1.0j), 40.0, 9),
])
def test_const_transfer_reproduces_its_old_formula(lam, d, nsub):
    got, _, got_n = _ode._const_transfer(1.0 + 0.0j, lam, d)
    want, _, want_n = _old_const_transfer(1.0 + 0.0j, lam, d)
    assert got_n == want_n == nsub
    for row, want_row in zip(got, want):
        for entry, want_entry in zip(row, want_row):
            assert _bits(entry) == _bits(want_entry)


def test_rescale_reproduces_its_old_formula():
    logs = np.array([0.0, 1.0, 2.0, 3.0])
    for u, up in (
        (np.array([1.0, 2e250, 3.0, 1e-300]), np.array([5e250, 1.0, 2.0, 0.0])),
        (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1e249, 1e250, 0.0])),
        (np.array([np.nan, 2e251, 1.0, 1e300]), np.array([1.0, 0.0, np.nan, 1.0])),
        (np.array([np.nan, 1.0, 1.0, 2.0]), np.array([0.0, np.nan, 1.0, 1.0])),
    ):
        u, up = u.astype(complex), up * (1.0 - 1.0j)
        got, want = _ode._rescale(u, up, logs), _old_rescale(u, up, logs)
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
    empty = np.empty(0, dtype=complex)
    assert all(a.size == 0 for a in _ode._rescale(empty, empty, np.empty(0)))


def test_propagate_seeds_are_read_not_copied():
    # the seeds broadcast against lam give the bits that full copies of
    # them give, and every output is a new writable array, the early
    # return's included
    model = PotentialModel(pieces=(Piece(0.0, 4.7, ConstExpr(1j)),
                                   Piece(4.7, 6.0, ConstExpr(-300.0))))
    lam = _lams(seed=3).reshape(5, 10)
    shape = lam.shape
    for x_from, x_to in ((0.0, 40.0), (12.0, 0.5), (3.0, 3.0)):
        u0, up0 = np.array(1.0 + 0.0j), np.array(0.0j)
        got = _ode.propagate(model, lam, x_from, x_to, u0, up0)
        want = _ode.propagate(model, lam, x_from, x_to, np.full(shape, u0),
                              np.full(shape, up0))
        assert [_bits(a) for a in got] == [_bits(a) for a in want]
        for a in got:
            assert a.shape == shape and a.flags.writeable
            assert not np.shares_memory(a, u0) and not np.shares_memory(a, up0)
