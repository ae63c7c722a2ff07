"""Finite-difference domain truncation of the barrier problem.

Truncating to [0, X] with Dirichlet ends and second-order central
differences yields a complex symmetric tridiagonal matrix whose spectrum
shows, side by side, genuine eigenvalue approximants near the shifted bands
and truncation-induced pollution on the real bands.

All n eigenvalues come from an Ehrlich–Aberth iteration on det(T − z) in
O(n²) time and O(n) memory (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal.
Appl. 27, 2005).  The Newton correction is the ratio recurrence of the
leading principal minors, never a dense matrix.  Each returned spectrum is
certified: its first two power sums must match tr T and tr T², and sampled
eigenvalues must pass an inverse-iteration residual check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .core import BarrierProblem, SpecbarError, eval_potential
from .floquet import BandStructure

__all__ = [
    "TridiagonalOperator",
    "ClassifiedSpectrum",
    "SolverError",
    "build_matrix",
    "eigenvalues_dense",
    "classify_spectrum",
]


class SolverError(SpecbarError):
    """The eigensolver failed or produced an uncertified spectrum."""


@dataclass(frozen=True)
class TridiagonalOperator:
    """Dirichlet finite-difference matrix on the uniform interior grid of [0, X]."""

    n: int
    sub: np.ndarray
    diag: np.ndarray
    super: np.ndarray
    h: float
    X: float

    def __post_init__(self):
        if self.n != round(self.X / self.h) - 1 or self.n < 2:
            raise ValueError("need n = round(X/h) - 1 >= 2")
        if len(self.diag) != self.n or len(self.sub) != self.n - 1 \
                or len(self.super) != self.n - 1:
            raise ValueError("band lengths inconsistent with n")

    def norm_inf(self) -> float:
        core = np.abs(self.diag).max()
        off = np.abs(self.sub).max() + np.abs(self.super).max()
        return float(core + off)

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[1:] += self.sub * v[:-1]
        out[:-1] += self.super * v[1:]
        return out


def build_matrix(p: BarrierProblem, X: float, h: float) -> TridiagonalOperator:
    """Discretize the barrier problem on [0, X] with step h, Dirichlet ends.

    The truncation must contain the barrier (X > R) and resolve it
    (h <= X/16).  Grid points are x_j = j h for j = 1..n with
    n = round(X/h) - 1.
    """
    if X <= p.R:
        raise ValueError(f"truncation X = {X} must exceed the barrier R = {p.R}")
    if h > X / 16.0:
        raise ValueError(f"step h = {h} too coarse for X = {X} (need h <= X/16)")
    n = round(X / h) - 1
    x = h * np.arange(1, n + 1)
    q = np.array([eval_potential(p.model, float(xx)) for xx in x], dtype=complex)
    diag = 2.0 / h**2 + q + 1j * p.gamma * (x <= p.R)
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    return TridiagonalOperator(n=n, sub=off.copy(), diag=diag, super=off.copy(),
                               h=h, X=X)


def _spot_check(t: TridiagonalOperator, eigs: np.ndarray) -> None:
    """Residual check by one inverse-iteration step per sampled eigenvalue."""
    n = t.n
    scale = t.norm_inf()
    rng = np.random.default_rng(12345)
    idx = np.linspace(0, len(eigs) - 1, min(_SPOT_CHECKS, len(eigs))).astype(int)
    ab = np.zeros((3, n), dtype=complex)
    for i in idx:
        lam = eigs[i]
        # tiny shift keeps the factorization well defined at the eigenvalue
        shift = lam + 1e-12 * scale * (1 + 1j)
        ab[0, 1:] = t.super
        ab[1, :] = t.diag - shift
        ab[2, :-1] = t.sub
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            v = linalg.solve_banded((1, 1), ab, b)
        except linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError(f"inverse iteration failed at eigenvalue {i}: {exc}")
        v = v / np.linalg.norm(v)
        res = np.linalg.norm(t.apply(v) - lam * v)
        if res > 1e-8 * scale:
            raise SolverError(
                f"eigenvalue {i} ({lam}) fails the residual bound: "
                f"{res:.3e} > 1e-8 * {scale:.3e}"
            )


_EPS = np.finfo(float).eps
_ROW_BLOCK = 256     # rows per pass of the Aberth sum: O(256 n) memory
_MAX_ITER = 100
_SPOT_CHECKS = 5     # eigenvalues sampled for the inverse-iteration residual check
_STOP = 32.0         # a point stops once |step| <= _STOP * eps * ||T||


def _start_points(t: TridiagonalOperator) -> np.ndarray:
    """Spectra of the blocks on which Im diag is constant, one start per eigenvalue.

    Every model has piecewise-constant Im q and the barrier adds one jump,
    so each block is a real symmetric tridiagonal matrix (off-diagonal
    sqrt|sub * super|) shifted by i times its imaginary part.
    """
    im = t.diag.imag
    cuts = np.flatnonzero(np.diff(im)) + 1
    off = np.sqrt(np.abs(t.sub * t.super))
    z = np.concatenate([
        linalg.eigvalsh_tridiagonal(t.diag.real[lo:hi], off[lo:hi - 1]) + 1j * im[lo]
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, t.n])
    ])
    # Identical blocks give identical start points, which the Aberth sum
    # cannot pull apart: move each repeat a little off the real axis.
    order = np.lexsort((z.imag, z.real))
    repeat = order[1:][np.diff(z[order]) == 0]
    z[repeat] += 1j * np.sqrt(_EPS) * t.norm_inf() * np.arange(1, len(repeat) + 1)
    return z


def _newton(t: TridiagonalOperator, z: np.ndarray, pivmin: float) -> np.ndarray:
    """Newton corrections p(z)/p'(z) for p = det(T - z), one per point of z.

    The pivots r_k = p_k/p_{k-1} of the leading principal minors obey
    r_k = (d_k - z) - s_{k-1}/r_{k-1} with s = sub * super, and v_k = r_k'/r_k
    obeys v_k = (v_{k-1} s_{k-1}/r_{k-1} - 1)/r_k, so p'/p is the sum of the
    v_k.  A pivot smaller than pivmin is replaced by pivmin, as dstebz does:
    a start point can be an exact zero of a leading minor.
    """
    s_prev = np.concatenate(([0.0], t.sub * t.super)).tolist()
    q = np.zeros_like(z)                 # 1/r_{k-1}
    v = np.zeros_like(z)
    total = np.zeros_like(z)
    g = np.empty_like(z)
    r = np.empty_like(z)
    size = np.empty(len(z))
    small = np.empty(len(z), dtype=bool)
    for dk, sk in zip(t.diag.tolist(), s_prev):
        np.multiply(q, sk, out=g)
        np.add(z, g, out=r)
        np.subtract(dk, r, out=r)
        np.less(np.abs(r, out=size), pivmin, out=small)
        if small.any():
            r[small] = pivmin
        np.divide(1.0, r, out=q)
        v *= g
        v -= 1.0
        v *= q
        total += v
    return 1.0 / total


def _aberth(t: TridiagonalOperator) -> np.ndarray:
    """All eigenvalues of t by the Ehrlich–Aberth iteration on det(T - z)."""
    scale = t.norm_inf()
    pivmin = _EPS * scale
    stop = _STOP * _EPS * scale
    z = _start_points(t)
    active = np.arange(t.n)
    block = np.empty((min(_ROW_BLOCK, t.n), t.n), dtype=complex)
    for _ in range(_MAX_ITER):
        za = z[active]
        newton = _newton(t, za, pivmin)
        # sum over j != k of 1/(z_k - z_j), row block by row block
        repulsion = np.empty_like(za)
        for lo in range(0, len(active), _ROW_BLOCK):
            rows = active[lo:lo + _ROW_BLOCK]
            diff = block[:len(rows)]
            np.subtract(z[rows, None], z, out=diff)
            diff[np.arange(len(rows)), rows] = np.inf      # 1/inf = 0 drops j = k
            np.divide(1.0, diff, out=diff)
            diff.sum(axis=1, out=repulsion[lo:lo + len(rows)])
        step = newton / (1.0 - newton * repulsion)
        z[active] = za - step
        active = active[~(np.abs(step) <= stop)]
        if not len(active):
            return z
    raise SolverError(f"{len(active)} of {t.n} eigenvalues did not converge in "
                      f"{_MAX_ITER} Ehrlich–Aberth iterations")


def eigenvalues_dense(t: TridiagonalOperator, cap: int = 9000) -> list[complex]:
    """All eigenvalues of the truncated operator, sorted by real then imaginary part.

    An Ehrlich–Aberth iteration on det(T - z) finds all n eigenvalues in
    O(n²) time and O(n) memory; ``cap`` bounds n and so that time.  Start
    points are the spectra of the blocks where Im diag is constant; each
    point stops once its step is within 32·eps·‖T‖∞, after at most 100
    iterations.  The result is certified before it is returned: every
    value converged and is finite, the power sums match the traces,

        |Σλ − tr T| ≤ 1e-12·n·‖T‖∞,   |Σλ² − tr T²| ≤ 1e-12·n·‖T‖∞²,

    and five sampled eigenvalues pass one inverse-iteration step each with
    residual at most 1e-8·‖T‖∞.  Any failure raises SolverError.
    """
    if t.n > cap:
        raise SolverError(
            f"matrix size {t.n} exceeds the configured cap {cap}: n = round(X/h) - 1 "
            f"with X = {t.X:g} and h = {t.h:g}, so coarsen h or shrink X "
            f"(the fd verb's --h and --x-offset)"
        )
    eigs = _aberth(t)
    if not np.all(np.isfinite(eigs)):
        raise SolverError("eigensolver returned non-finite values")
    scale = t.norm_inf()
    traces = (t.diag.sum(), (t.diag**2).sum() + 2.0 * (t.sub * t.super).sum())
    for power, trace in enumerate(traces, start=1):
        miss = abs((eigs**power).sum() - trace)
        bound = 1e-12 * t.n * scale**power
        if not miss <= bound:
            raise SolverError(f"power sum {power} misses tr T^{power} by "
                              f"{miss:.3e} > {bound:.3e}")
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    _spot_check(t, eigs)
    return [complex(e) for e in eigs]


@dataclass(frozen=True)
class ClassifiedSpectrum:
    """Partition of a computed spectrum relative to the band structure."""

    pollution_real: list[complex]
    essential_approx: list[complex]
    discrete_candidates: list[complex]

    @property
    def total(self) -> int:
        return (len(self.pollution_real) + len(self.essential_approx)
                + len(self.discrete_candidates))


def classify_spectrum(eigs, bands: BandStructure, gamma: float,
                      tol_band: float = 5e-3) -> ClassifiedSpectrum:
    """Split eigenvalues into truncation pollution, band approximants, rest.

    Near-real values over a band are truncation artifacts; values near the
    barrier-shifted bands approximate the essential spectrum of the
    perturbed operator; everything else is a discrete-eigenvalue candidate.
    """
    if tol_band <= 0:
        raise ValueError("tol_band must be positive")
    pollution: list[complex] = []
    essential: list[complex] = []
    rest: list[complex] = []
    for lam in eigs:
        lam = complex(lam)
        near_band = bands.distance(lam.real) < tol_band
        if near_band and abs(lam.imag) < tol_band:
            pollution.append(lam)
        elif near_band and abs(lam.imag - gamma) < tol_band:
            essential.append(lam)
        else:
            rest.append(lam)
    return ClassifiedSpectrum(pollution, essential, rest)
