import inspect
import math

import mpmath as mp
import numpy as np
import pytest

from specbar import _ode, floquet
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
from specbar.enclosures import gamma_a_contains
from specbar.sturm import (
    CharacteristicContext,
    characteristic,
    eigenvalues,
    exterior_solution,
    interior_solution,
    limit_eigenvalues,
    reference_characteristic,
    resonances,
)

from conftest import (
    STACKED_LIMIT_EIG_1,
    STACKED_LIMIT_EIG_2,
    grid_newton_roots,
    oracle_f_free,
    oracle_f_stacked,
    oracle_sqrt,
)


def _ctx(model, gamma, R, **kw):
    return CharacteristicContext(BarrierProblem(model, gamma, R), **kw)


# ---------------------------------------------------------------------------
# Interior solution
# ---------------------------------------------------------------------------

def test_interior_linear_at_barrier_energy(free_model):
    # lam = i cancels the barrier exactly: u'' = 0, u = x
    s = interior_solution(_ctx(free_model, 1.0, 10.0), 1j)
    assert abs(s.value * math.exp(s.log_scale) - 10.0) < 1e-12
    assert abs(s.derivative * math.exp(s.log_scale) - 1.0) < 1e-12


def test_interior_constant_coefficient_closed_form(free_model):
    lam = 2.3 + 0.4j
    w = principal_sqrt(lam - 1j)
    s = interior_solution(_ctx(free_model, 1.0, 10.0), lam)
    want = np.sin(w * 10.0) / w
    got = s.value * math.exp(s.log_scale)
    assert abs(got - want) < 1e-12 * abs(want)
    want_d = np.cos(w * 10.0)
    assert abs(s.derivative * math.exp(s.log_scale) - want_d) < 1e-12 * abs(want_d)


def test_interior_rk4_richardson_ratio():
    # fourth-order convergence: halving the step divides the error by ~16
    model = PotentialModel(pieces=(Piece(0.0, 6.0, SinExpr(1.0, 1.0)),))
    lam = 0.7 + 0.3j

    def u_at(step):
        s = interior_solution(_ctx(model, 1.0, 6.0, ode_step=step), lam)
        return s.value * math.exp(s.log_scale)

    h = 0.04
    d1 = abs(u_at(h) - u_at(h / 2))
    d2 = abs(u_at(h / 2) - u_at(h / 4))
    ratio = d1 / d2
    assert 16 * 0.8 <= ratio <= 16 * 1.2


def test_interior_boundary_condition_seed():
    model = PotentialModel(eta=0.3 + 0.2j)
    s = interior_solution(_ctx(model, 1.0, 1.0, ode_step=1e-3), 0.5j)
    # the seed satisfies cos(eta) u(0) - sin(eta) u'(0) = 0 by construction;
    # downstream values must stay finite
    assert np.isfinite(s.value) and np.isfinite(s.derivative)


# ---------------------------------------------------------------------------
# Exterior solution
# ---------------------------------------------------------------------------

def test_exterior_zero_tail_decay(free_model):
    s = exterior_solution(_ctx(free_model, 1.0, 10.0), -1.0)
    scale = math.exp(s.log_scale)
    assert abs(s.value * scale - math.exp(-10.0)) < 1e-15
    assert abs(s.derivative * scale + math.exp(-10.0)) < 1e-15


def test_exterior_periodic_free_matches_plane_wave(free_periodic_model):
    # a periodic tail with q = 0 spans exp(i sqrt(lam) x): the overall
    # normalization is the solution's own, so compare scale-free quantities
    for lam in (-1.5 + 0.2j, 2.0 + 0.7j, -3.0 - 0.4j):
        k = principal_sqrt(lam)
        s1 = exterior_solution(_ctx(free_periodic_model, 1.0, 7.0), lam)
        s2 = exterior_solution(_ctx(free_periodic_model, 1.0, 9.0), lam)
        assert abs(s1.derivative / s1.value - 1j * k) < 1e-10 * abs(k)
        ratio = (s2.value * np.exp(s2.log_scale)) / (s1.value * np.exp(s1.log_scale))
        want = np.exp(1j * k * 2.0)
        assert abs(ratio - want) < 1e-10 * abs(want)


def test_exterior_second_sheet_grows(free_model):
    lam = 1 - 0.2j
    a = exterior_solution(_ctx(free_model, 1.0, 10.0, sheet=Sheet.SECOND), lam)
    b = exterior_solution(_ctx(free_model, 1.0, 20.0, sheet=Sheet.SECOND), lam)
    assert abs(b.value * np.exp(b.log_scale)) > abs(a.value * np.exp(a.log_scale))


def test_exterior_standoff_guard(free_model):
    with pytest.raises(DomainError):
        exterior_solution(_ctx(free_model, 1.0, 10.0), 2.0 + 1e-5j)


def test_exterior_back_propagates_through_pieces(stacked_model):
    # R inside the compact piece: the exterior is integrated back through it
    lam = -2.0 + 0.3j
    ctx = _ctx(stacked_model, 1.0, 2.0)
    s = exterior_solution(ctx, lam)
    # residual check against the equation: one explicit RK step comparison
    # via the Wronskian of (value, derivative) with an independent solve
    u, up, logs = _ode.propagate(stacked_model, np.array([lam]), 4.7, 2.0,
                                 np.exp(1j * principal_sqrt(lam) * 4.7),
                                 1j * principal_sqrt(lam)
                                 * np.exp(1j * principal_sqrt(lam) * 4.7))
    assert abs(s.value * np.exp(s.log_scale)
               - complex(u[0] * np.exp(logs[0]))) < 1e-12


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def test_characteristic_reduction_to_closed_form(free_model):
    # W(lam) = e^{i sqrt(lam) R} f(lam) / sqrt(lam - i) for the free model
    rng = np.random.default_rng(3)
    ctx = _ctx(free_model, 1.0, 10.0)
    for _ in range(20):
        lam = complex(rng.uniform(0.1, 6), rng.uniform(0.05, 0.95))
        W = characteristic(ctx, lam)
        ref = reference_characteristic("ex1", lam, 10.0)
        expect = np.exp(1j * principal_sqrt(lam) * 10.0) / principal_sqrt(lam - 1j)
        assert abs(W / ref - expect) < 1e-10 * abs(expect)


def test_characteristic_vanishes_at_oracle_roots(free_model):
    ctx = _ctx(free_model, 1.0, 10.0)
    oracle = grid_newton_roots(lambda z: oracle_f_free(z, 10.0),
                               (0.1, 5.0, 0.05, 0.95))
    for root in oracle:
        u = interior_solution(ctx, root)
        v = exterior_solution(ctx, root)
        scale = max(abs(u.value * v.derivative), abs(u.derivative * v.value))
        W = (u.value * v.derivative - u.derivative * v.value)
        assert abs(W) / scale < 1e-8


def test_characteristic_stacked_at_base_width_matches_doubled_barrier():
    # at R = R0 the stacked model is the free model with a doubled barrier
    model = PotentialModel(pieces=(Piece(0.0, 4.7, ConstExpr(1j)),))
    ctx = _ctx(model, 1.0, 4.7, ode_step=0.05)

    def doubled(lam):
        w = oracle_sqrt(lam - 2j)
        return 1j * oracle_sqrt(lam) * np.sin(w * 4.7) - w * np.cos(w * 4.7)

    roots_doubled = grid_newton_roots(doubled, (0.1, 4.0, 0.1, 1.9), n=150)
    handle_roots = eigenvalues(ctx, Rectangle(0.1, 4.0, 0.1, 0.95))
    handle_roots_hi = eigenvalues(ctx, Rectangle(0.1, 4.0, 1.05, 1.9))
    got = sorted(handle_roots.locations + handle_roots_hi.locations,
                 key=lambda z: (z.real, z.imag))
    want = [z for z in roots_doubled if abs(z.imag - 1.0) > 0.05]
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_wronskian_constancy_constant_pieces(stacked_model):
    # two independent interior solutions keep an x-independent Wronskian
    lam = np.array([1.3 + 0.4j])
    for x_end in (1.0, 3.0, 4.7):
        u1, u1p, l1 = _ode.propagate(stacked_model, lam, 0.0, x_end, 0.0, 1.0)
        u2, u2p, l2 = _ode.propagate(stacked_model, lam, 0.0, x_end, 1.0, 0.0)
        W = (u1 * u2p - u1p * u2) * np.exp(l1 + l2)
        assert abs(complex(W[0]) + 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_free_R40(free_model):
    ctx = _ctx(free_model, 1.0, 40.0)
    out = eigenvalues(ctx, Rectangle(0.1, 6.0, 0.05, 0.95))
    assert out.total_count >= 5
    assert all(0.0 < r.location.imag < 1.0 for r in out.roots)


def test_eigenvalues_empty_below_axis(free_model):
    ctx = _ctx(free_model, 1.0, 10.0)
    out = eigenvalues(ctx, Rectangle(0.1, 6.0, -0.95, -0.05))
    assert out.total_count == 0


@pytest.mark.parametrize("R", [696.0, 1500.0])
def test_eigenvalues_wide_barrier_empty_left_of_axis(free_model, R):
    # Re <Hu, u> = ||u'||^2 puts every eigenvalue in Re >= 0; at these widths
    # the interior grows past e^700 and the exterior carrier falls below e^-700
    out = eigenvalues(_ctx(free_model, 1.0, R), Rectangle(-1.2, -0.8, 0.4, 0.6))
    assert out.total_count == 0


def test_eigenvalues_match_limit_oracle_at_R30(stacked_model):
    ctx = _ctx(stacked_model, 1.0, 30.0)
    out = eigenvalues(ctx, Rectangle(0.05, 1.9, 1.2, 1.95))
    # a root within 1e-6 of the limit-operator oracle set exists (the
    # fundamental branch has converged to ~1e-14 by R = 30)
    d1 = abs(out.nearest(STACKED_LIMIT_EIG_1).location - STACKED_LIMIT_EIG_1)
    assert d1 < 1e-6
    # frozen honest value for the second branch: its distance at R = 30 is
    # 1.033e-6 (beta is about 0.48 for this branch)
    d2 = abs(out.nearest(STACKED_LIMIT_EIG_2).location - STACKED_LIMIT_EIG_2)
    assert 0.9e-6 < d2 < 1.2e-6


def test_eigenvalue_oracle_equivalence_free(free_model):
    # zero sets of the shot characteristic and the closed form coincide
    ctx = _ctx(free_model, 1.0, 10.0)
    got = eigenvalues(ctx, Rectangle(0.1, 5.0, 0.05, 0.95)).locations
    want = grid_newton_roots(lambda z: oracle_f_free(z, 10.0),
                             (0.1, 5.0, 0.05, 0.95))
    assert len(got) == len(want)
    got = sorted(got, key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_eigenvalue_oracle_equivalence_stacked(stacked_model):
    ctx = _ctx(stacked_model, 1.0, 12.0)
    for rect in (Rectangle(2.0, 6.0, 0.02, 0.97),
                 Rectangle(0.05, 2.0, 1.2, 1.98)):
        got = eigenvalues(ctx, rect).locations
        want = grid_newton_roots(
            lambda z: oracle_f_stacked(z, 12.0),
            (rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi), n=150,
        )
        assert len(got) == len(want) >= 2
        got = sorted(got, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_eigenvalues_confined_to_strip(free_model):
    sigma = floquet.BandStructure(((0.0, math.inf),))
    for R in (10.0, 20.0, 40.0):
        out = eigenvalues(_ctx(free_model, 1.0, R),
                          Rectangle(0.1, 6.0, 0.05, 0.95))
        for r in out.roots:
            assert -1e-8 <= r.location.imag <= 1.0 + 1e-8
            assert gamma_a_contains(r.location, sigma, 1.0, tol=1e-8)


# ---------------------------------------------------------------------------
# Limit operator
# ---------------------------------------------------------------------------

def test_limit_eigenvalues_free_empty(free_model):
    out = limit_eigenvalues(free_model, 1.0, Rectangle(0.1, 6.0, 1.05, 1.95))
    assert out.total_count == 0


def test_limit_eigenvalues_oracle(stacked_model):
    out = limit_eigenvalues(stacked_model, 1.0, Rectangle(0.05, 6.0, 1.05, 1.95))
    got = sorted(out.locations, key=lambda z: z.real)
    assert len(got) == 2
    assert abs(got[0] - STACKED_LIMIT_EIG_1) < 1e-8
    assert abs(got[1] - STACKED_LIMIT_EIG_2) < 1e-8
    # independent re-derivation at high precision from the secular equation
    mp.mp.dps = 30

    def mpsqrt(z):
        w = mp.sqrt(z)
        if mp.im(w) < 0 or (mp.im(w) == 0 and mp.re(w) < 0):
            w = -w
        return w

    def secular(z):
        s = mpsqrt(z)
        w = mpsqrt(z - 1j)
        return 1j * s * mp.sin(w * mp.mpf("4.7")) - w * mp.cos(w * mp.mpf("4.7"))

    for guess, got_val in ((mp.mpc("0.32", "0.91"), got[0]),
                           (mp.mpc("1.35", "0.57"), got[1])):
        z = mp.findroot(secular, guess)
        assert abs(complex(z) + 1j - got_val) < 1e-8


def test_limit_eigenvalues_shift_identity(stacked_model):
    # spectrum(gamma) = spectrum(0) + i gamma
    up = limit_eigenvalues(stacked_model, 1.0, Rectangle(0.05, 6.0, 1.05, 1.95))
    base = limit_eigenvalues(stacked_model, 0.0, Rectangle(0.05, 6.0, 0.05, 0.95))
    got = sorted(up.locations, key=lambda z: z.real)
    want = sorted((z + 1j for z in base.locations), key=lambda z: z.real)
    assert len(got) == len(want) == 2
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10


@pytest.mark.parametrize("phase", [0.0, math.pi])
def test_limit_eigenvalues_sin_gap(phase):
    # Both tails have a Dirichlet point of the shifted cell at -0.18339 + i.
    # For +sin the Dirichlet solution grows there (the cell-start eigenvector
    # vanishes instead), for -sin it decays: one genuine gap eigenvalue.
    model = PotentialModel(tail=PeriodicTail(
        period=2 * math.pi, start=0.0, expr=SinExpr(1.0, 1.0, phase)))
    out = limit_eigenvalues(model, 1.0, Rectangle(-0.3, 0.55, 0.8, 1.2),
                            ode_step=1e-2)
    if phase == 0.0:
        assert out.total_count == 0
    else:
        assert out.total_count == 1
        assert abs(out.locations[0] - (-0.18339005 + 1j)) < 1e-7


MINUS_SIN = PotentialModel(tail=PeriodicTail(period=2 * math.pi, start=0.0,
                                             expr=SinExpr(1.0, 1.0, math.pi)))


def test_gap_eigenvalues_converge_at_the_inclusion_rate():
    # On the -sin tail the barrier eigenvalue near the limit eigenvalue
    # -0.18339 + i, in the gap of the shifted essential spectrum, converges
    # at R = 2 pi n by the factor 1/|rho_plus(lam* - i gamma)|^2 per period
    [lim] = limit_eigenvalues(MINUS_SIN, 1.0, Rectangle(-0.3, 0.55, 0.8, 1.2),
                              ode_step=1e-2).locations
    rate = 1.0 / abs(floquet.floquet_data(MINUS_SIN, lim - 1j, ode_step=1e-2).rho_plus) ** 2
    errs = []
    for n in (2, 3, 4, 5):
        out = eigenvalues(_ctx(MINUS_SIN, 1.0, 2 * math.pi * n, ode_step=1e-2),
                          Rectangle(-0.3, -0.05, 0.7, 1.3))
        assert out.total_count == 1
        errs.append(abs(out.locations[0] - lim))
    assert abs(rate - 198.568) < 1e-3
    for a, b in zip(errs, errs[1:]):
        assert abs(a / b / rate - 1.0) < 0.01


def test_gap_eigenvalues_converge_to_the_pollution_points_at_their_rate():
    # At R = 1 + 2 pi n the barrier eigenvalue converges to the zero of the
    # cross-Wronskian at x0 = 1 (sp_zeros), a spectral pollution point, by
    # the factor 1/|rho_plus(lam_sp - i gamma)|^2 per period
    rect = Rectangle(-0.33, 0.57, 0.05, 0.6)
    [sp] = floquet.sp_zeros(MINUS_SIN, 1.0, 1.0, rect, ode_step=1e-2).locations
    rate = 1.0 / abs(floquet.floquet_data(MINUS_SIN, sp - 1j, ode_step=1e-2).rho_plus) ** 2
    errs = []
    for n in (1, 2, 3):
        out = eigenvalues(_ctx(MINUS_SIN, 1.0, 1.0 + 2 * math.pi * n, ode_step=1e-2), rect)
        assert out.total_count == 1
        errs.append(abs(out.locations[0] - sp))
    assert abs(sp - (-0.25437061 + 0.22997411j)) < 1e-8
    assert abs(rate - 11714.0) < 1.0
    for a, b in zip(errs, errs[1:]):
        assert abs(a / b / rate - 1.0) < 0.01


def test_eigenvalues_drop_null_cell_vector_zero(sin_model):
    # Dirichlet point -0.18339 of the +sin cell, where the Dirichlet
    # solution grows: the cell-start eigenvector of the exterior solution
    # vanishes there (|v| ~ 5e-14), and with it the characteristic.  A
    # barrier eigenvalue has 0 < Im < gamma, so that real zero is none.
    ctx = _ctx(sin_model, 1.0, 4 * math.pi, ode_step=1e-2)
    assert eigenvalues(ctx, Rectangle(-0.3, -0.05, -0.1, 0.1)).total_count == 0


@pytest.mark.parametrize("model_name, rect, ode_step, spectral", [
    # crosses the ray [0, inf), clears i + [0, inf)
    ("stacked_model", Rectangle(1.0, 2.0, -0.3, 0.3), 1e-3, floquet.sp_zeros),
    # crosses the first band [-0.378, -0.348], clears its shift by i
    ("sin_model", Rectangle(-0.45, -0.25, -0.1, 0.1), 1e-2, floquet.sp_zeros),
], ids=["stacked", "sin"])
def test_exclusions_unshifted_only_where_the_verb_needs_them(
        request, model_name, rect, ode_step, spectral):
    # The limit operator T0 + i gamma excludes only the shifted essential
    # spectrum; the barrier and pollution searches exclude it and the
    # unshifted one.
    model = request.getfixturevalue(model_name)
    out = limit_eigenvalues(model, 1.0, rect, ode_step=ode_step)
    assert all(rect.contains(z) for z in out.locations)
    with pytest.raises(DomainError):
        eigenvalues(_ctx(model, 1.0, 4 * math.pi, ode_step=ode_step), rect)
    with pytest.raises(DomainError):
        spectral(model, 1.0, 0.0, rect, ode_step=ode_step)


# ---------------------------------------------------------------------------
# Resonances
# ---------------------------------------------------------------------------

def test_resonances_exist_lower_right(free_model):
    ctx = _ctx(free_model, 1.0, 10.0, sheet=Sheet.SECOND)
    out = resonances(ctx, Rectangle(8.5, 14.0, -0.8, -0.02))
    assert out.total_count >= 1
    assert all(r.location.imag < 0 and r.location.real > 0 for r in out.roots)
    # against the continued closed form
    want = grid_newton_roots(lambda z: oracle_f_free(z, 10.0, second=True),
                             (8.5, 14.0, -0.8, -0.02), n=150)
    got = sorted(out.locations, key=lambda z: (z.real, z.imag))
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_resonances_disjoint_from_eigenvalues(free_model):
    eig = eigenvalues(_ctx(free_model, 1.0, 10.0),
                      Rectangle(0.1, 5.0, 0.05, 0.95))
    res = resonances(_ctx(free_model, 1.0, 10.0, sheet=Sheet.SECOND),
                     Rectangle(0.5, 14.0, -2.0, -0.02))
    for a in eig.locations:
        for b in res.locations:
            assert abs(a - b) > 1e-6


def test_resonances_sheet_and_quadrant_guards(free_model):
    with pytest.raises(DomainError):
        resonances(_ctx(free_model, 1.0, 10.0),
                   Rectangle(8.5, 14.0, -0.8, -0.02))
    with pytest.raises(DomainError):
        resonances(_ctx(free_model, 1.0, 10.0, sheet=Sheet.SECOND),
                    Rectangle(-1.0, 14.0, -0.8, -0.02))


def test_resonance_branch_rises_with_R(free_model):
    # track one second-sheet zero across a sweep: it approaches the axis
    rect = Rectangle(0.5, 25.0, -2.0, -0.01)
    tracked = None
    history = []
    for R in range(4, 21, 2):
        ctx = _ctx(free_model, 1.0, float(R), sheet=Sheet.SECOND)
        out = resonances(ctx, rect)
        if not out.roots:
            continue
        if tracked is None:
            tracked = max(out.locations, key=lambda z: z.imag)
        else:
            nxt = min(out.locations, key=lambda z: abs(z - tracked))
            if abs(nxt - tracked) > 2.0:
                break  # the branch left the window
            tracked = nxt
        history.append(tracked.imag)
    assert len(history) >= 3
    assert all(b > a for a, b in zip(history, history[1:]))


# ---------------------------------------------------------------------------
# Closed-form reference
# ---------------------------------------------------------------------------

def test_reference_free_vanishes_at_branch_touch():
    assert reference_characteristic("ex1", 1j, 7.0) == 0


def test_reference_free_high_precision():
    got = reference_characteristic("ex1", -1.0, 1.0)
    mp.mp.dps = 40

    def mpsqrt(z):
        w = mp.sqrt(z)
        if mp.im(w) < 0 or (mp.im(w) == 0 and mp.re(w) < 0):
            w = -w
        return w

    s = mpsqrt(mp.mpc(-1))
    w = mpsqrt(mp.mpc(-1, -1))
    want = complex(1j * s * mp.sin(w) - w * mp.cos(w))
    assert abs(got - want) < 1e-12 * abs(want)


def test_reference_stacked_reduces_at_base_width():
    # at R = R0 the stacked form is the doubled-barrier free form times a
    # nonvanishing prefactor
    rng = np.random.default_rng(5)
    for _ in range(20):
        lam = complex(rng.uniform(0.1, 5), rng.uniform(-0.9, 1.9))
        wi = oracle_sqrt(lam - 1j)
        w2 = oracle_sqrt(lam - 2j)
        s = oracle_sqrt(lam)
        pref = 2 * wi / (wi + s)
        doubled = 1j * s * np.sin(w2 * 4.7) - w2 * np.cos(w2 * 4.7)
        got = reference_characteristic("ex2", lam, 4.7, R0=4.7)
        assert abs(got - pref * doubled) < 1e-12 * max(1.0, abs(got))


def test_reference_argument_validation():
    with pytest.raises(ValueError):
        reference_characteristic("ex2", 1.0, 3.0, R0=4.7)
    with pytest.raises(ValueError):
        reference_characteristic("ex9", 1.0, 3.0)


# ---------------------------------------------------------------------------
# Pollution diagnostics
# ---------------------------------------------------------------------------

def test_pollution_factor_matches_limit(stacked_model):
    # the cross-Wronskian sp_zeros searches, its carriers divided out,
    # tends on a zero tail to -i (sqrt(lam - i gamma) + sqrt(lam))
    from specbar.enclosures import l1_lambda_limit
    for R in (50.0, 1500.0):
        for lam in (-1.0 + 0.0j, -2.5 + 1.3j, 3.0 - 2.0j):
            v = floquet._cross_wronskian(stacked_model, 1.0, R, lam, 1e-3)
            assert abs(v - l1_lambda_limit(lam, 1.0)) < 1e-3


def test_pollution_zeros_empty_for_stacked(stacked_model):
    for x0 in (6.0, 1000.0):
        out = floquet.sp_zeros(stacked_model, 1.0, x0,
                               Rectangle(-4.0, 4.0, 0.05, 0.95))
        assert out.total_count == 0


def test_pollution_zeros_propagates_at_ode_step(monkeypatch):
    # a sinusoidal piece beyond x0: the tail solution is integrated by RK4
    # from its end back to x0, at the step the caller asked for
    model = PotentialModel(pieces=(Piece(0.0, 4.7, SinExpr(0.5, 2.0)),))
    steps = []
    points = []
    propagate = _ode.propagate
    cross_wronskian = floquet._cross_wronskian

    def recording(*args, **kwargs):
        bound = inspect.signature(propagate).bind(*args, **kwargs)
        bound.apply_defaults()
        steps.append(bound.arguments["step"])
        return propagate(*args, **kwargs)

    def counting(model, gamma, x, lam, ode_step):
        points.append(np.asarray(lam).size)
        return cross_wronskian(model, gamma, x, lam, ode_step)

    monkeypatch.setattr(_ode, "propagate", recording)
    monkeypatch.setattr(floquet, "_cross_wronskian", counting)
    out = floquet.sp_zeros(model, 1.0, 2.0, Rectangle(-4.0, 4.0, 0.05, 0.95),
                           ode_step=4e-3)
    assert steps and set(steps) == {4e-3}
    assert out.total_count == 1
    assert abs(out.locations[0]
               - (2.5140197487144933 + 0.9164208815101077j)) < 1e-12
    # the zero-tail carriers exp(-+i k x0) keep the function of moderate
    # size, and log f on Clenshaw-Curtis nodes needs one evaluation per
    # point: 1,940 points (22,291 with the trapezoid sums of a
    # central-difference f'/f)
    assert sum(points) <= 6000


def test_ode_step_validation(free_model):
    with pytest.raises(ValueError):
        CharacteristicContext(BarrierProblem(free_model, 1.0, 1.0),
                              ode_step=0.5)
