"""Reference computations that the benchmark checks specbar's outputs against.

Everything here uses numpy and scipy only, never specbar: closed-form
transfer matrices for piecewise-constant potentials, Mathieu characteristic
values for the sin tail, a DOP853 shooting solver for sin-tail roots and the
free-Laplacian eigenvalues of the finite-difference matrix.
"""

from __future__ import annotations

import math

import numpy as np

SIN_PERIOD = 2.0 * math.pi


def psqrt(z):
    """Square root with its cut on [0, inf) and Im >= 0."""
    w = np.sqrt(np.asarray(z, dtype=complex))
    flip = (w.imag < 0) | ((w.imag == 0) & (w.real < 0))
    return np.where(flip, -w, w)


# ---------------------------------------------------------------------------
# Piecewise-constant potentials: closed-form characteristic functions
# ---------------------------------------------------------------------------

def _transfer(lam, q, d, u, up):
    """Exact (u, u') of -u'' + q u = lam u carried across a stretch of length d."""
    w2 = lam - q
    w = np.sqrt(w2)
    c = np.cos(w * d)
    s = d * np.sinc(w * d / np.pi)  # sin(w d)/w, even in w
    return c * u + s * up, -w2 * s * u + c * up


def _dirichlet_shot(lam, stretches):
    """(u, u') at the end of consecutive constant stretches [(length, q), ...],
    started from the Dirichlet seed (0, 1)."""
    u = np.zeros_like(lam)
    up = np.ones_like(lam)
    for d, q in stretches:
        u, up = _transfer(lam, q, d, u, up)
    return u, up


def barrier_characteristic(lam, R, gamma=1.0, bump_end=0.0, bump=0.0,
                           sheet=1):
    """Wronskian at R of the Dirichlet interior solution and exp(i k x).

    The background is ``bump`` on [0, bump_end) and 0 beyond (bump_end <= R);
    the barrier adds i*gamma on [0, R].  ``sheet`` is +1 for the principal
    sheet (k = psqrt(lam)) and -1 for the second.  The common factor
    exp(i k R) is dropped, so zeros are unchanged.
    """
    lam = np.asarray(lam, dtype=complex)
    stretches = [(bump_end, bump + 1j * gamma)] if bump_end > 0 else []
    stretches.append((R - bump_end, 1j * gamma))
    u, up = _dirichlet_shot(lam, stretches)
    k = sheet * psqrt(lam)
    return 1j * k * u - up


def stacked_limit_secular(lam, gamma=1.0, bump_end=4.7, bump=1j):
    """Secular function of the limit operator: background plus i*gamma on [0, inf).

    With z = lam - i*gamma the decaying solution beyond bump_end is
    exp(i psqrt(z) x), matched to the Dirichlet solution inside.
    """
    z = np.asarray(lam, dtype=complex) - 1j * gamma
    u, up = _dirichlet_shot(z, [(bump_end, bump)])
    return 1j * psqrt(z) * u - up


# ---------------------------------------------------------------------------
# Root counting and polishing, independent of specbar's root finder
# ---------------------------------------------------------------------------

def winding_count(f, rect, n=1 << 14, max_n=1 << 19):
    """Zeros of f inside rect = (x_lo, x_hi, y_lo, y_hi) by phase unwrapping.

    The boundary is sampled with n points per edge, doubled until no phase
    step exceeds 0.5 rad, so the unwrapped phase cannot skip a turn.
    """
    x_lo, x_hi, y_lo, y_hi = rect
    corners = [complex(x_lo, y_lo), complex(x_hi, y_lo),
               complex(x_hi, y_hi), complex(x_lo, y_hi)]
    while n <= max_n:
        t = np.arange(n) / n
        z = np.concatenate([a + t * (b - a) for a, b in
                            zip(corners, corners[1:] + corners[:1])])
        z = np.append(z, corners[0])
        phase = np.angle(f(z))
        step = np.diff(phase)
        step = (step + np.pi) % (2.0 * np.pi) - np.pi
        if np.max(np.abs(step)) < 0.5:
            return int(round(step.sum() / (2.0 * np.pi)))
        n *= 2
    raise ArithmeticError(f"phase of f not resolved on the boundary of {rect}")


def newton(f, z0, max_iter=60):
    """Newton's method with a central-difference derivative, run to stagnation.

    f maps an array of points to an array of values; each iteration makes
    one call on three points.
    """
    z = complex(z0)
    for _ in range(max_iter):
        h = 1e-6 * (1.0 + abs(z))
        fz, fp, fm = f(np.array([z, z + h, z - h]))
        if fz == 0:
            return z
        step = fz * 2.0 * h / (fp - fm)
        z -= step
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    return z


def confirm_root(f, z, tol):
    """True when Newton on the oracle f, started at z, ends within tol of z."""
    z_ref = newton(f, z)
    return bool(abs(z_ref - z) <= tol * (1.0 + abs(z))), z_ref


# ---------------------------------------------------------------------------
# Sin tail: Mathieu band ends and DOP853 shooting
# ---------------------------------------------------------------------------

def sin_band(m):
    """Band m (from 0) of -u'' + sin(x) u as (lo, hi).

    With x = 2v + pi/2 the equation is Mathieu's with a = 4 lam and q = 2;
    a 2*pi period in x is a pi period in v, so the band ends are
    a_0 < b_1 < a_1 < b_2 < ... over 4.
    """
    from scipy.special import mathieu_a, mathieu_b

    return float(mathieu_a(m, 2.0)) / 4.0, float(mathieu_b(m + 1, 2.0)) / 4.0


def sin_bands_in(lo, hi):
    """Sin-tail bands clipped to [lo, hi], as the band scan reports them."""
    out = []
    m = 0
    while (band := sin_band(m))[0] < hi:
        if band[1] > lo:
            out.append((max(band[0], lo), min(band[1], hi)))
        m += 1
    return out


def _shoot_sin(lam, x1, seeds, q_add=0.0):
    """Solutions of -u'' + (sin x + q_add) u = lam u on [0, x1] for each seed.

    lam is a 1-d array; seeds is a list of (u0, u0') arrays of the same
    shape.  Returns a list of (u, u') at x1.  All systems are integrated
    together by DOP853 with tight tolerances.
    """
    from scipy.integrate import solve_ivp

    lam = np.asarray(lam, dtype=complex)
    m = lam.size
    y0 = np.concatenate([np.concatenate([np.broadcast_to(u0, m),
                                         np.broadcast_to(u0p, m)])
                         for u0, u0p in seeds]).astype(complex)
    nsys = len(seeds)

    def rhs(x, y):
        y = y.reshape(nsys, 2, m)
        out = np.empty_like(y)
        out[:, 0] = y[:, 1]
        out[:, 1] = (math.sin(x) + q_add - lam) * y[:, 0]
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, x1), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14)
    if not sol.success:
        raise ArithmeticError(sol.message)
    end = sol.y[:, -1].reshape(nsys, 2, m)
    return [(end[i, 0], end[i, 1]) for i in range(nsys)]


def sin_monodromy(lam):
    """(phi1, phi1', phi2, phi2') at the end of one period, per point of lam."""
    (p1, p1p), (p2, p2p) = _shoot_sin(lam, SIN_PERIOD, [(1.0, 0.0), (0.0, 1.0)])
    return p1, p1p, p2, p2p


def _decaying_multiplier(D):
    r = 0.5 * (D + np.sqrt(D * D - 4.0 + 0j))
    return np.where(np.abs(r) < 1.0, r, 1.0 / r)


def sin_barrier_characteristic(lam, R, gamma=1.0):
    """Barrier characteristic of the sin tail for R a whole number of periods.

    The interior solution is shot from the Dirichlet seed with the barrier
    i*gamma on [0, R]; the decaying Floquet solution at R is a multiple of
    the monodromy eigenvector (rho - phi2', phi1') of the decaying
    multiplier.
    """
    ncell = R / SIN_PERIOD
    if abs(ncell - round(ncell)) > 1e-12:
        raise ValueError("R must be a whole number of periods")
    lam = np.asarray(lam, dtype=complex)
    ((u, up),) = _shoot_sin(lam, R, [(0.0, 1.0)], q_add=1j * gamma)
    p1, p1p, p2, p2p = sin_monodromy(lam)
    rho = _decaying_multiplier(p1 + p2p)
    v, vp = rho - p2p, p1p
    return u * vp - up * v


def sin_limit_secular(lam, gamma=1.0):
    """Value at 0 of the decaying Floquet solution at z = lam - i*gamma.

    Zeros are the Dirichlet eigenvalues of the limit operator sin(x) + i*gamma.
    """
    z = np.asarray(lam, dtype=complex) - 1j * gamma
    p1, p1p, p2, p2p = sin_monodromy(z)
    return _decaying_multiplier(p1 + p2p) - p2p


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def free_laplacian_eigenvalues(n, h):
    """Eigenvalues of tridiag(-1, 2, -1)/h^2 of size n, ascending."""
    k = np.arange(1, n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))
