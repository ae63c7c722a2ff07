"""Finite-difference domain truncation of the barrier problem.

Truncating to [0, X] with Dirichlet ends and second-order central
differences yields a complex symmetric tridiagonal matrix whose spectrum
shows, side by side, genuine eigenvalue approximants near the shifted bands
and truncation-induced pollution on the real bands.

All n eigenvalues come from an Ehrlich–Aberth iteration on det(T − z) in
O(n²) time and O(n) memory (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal.
Appl. 27, 2005).  It starts from the spectrum of the real part of T, each
point lifted to the imaginary level of the diagonal block it belongs to.
Its Newton correction p/p' comes from the three-term recurrence of the
leading principal minors, rescaled by powers of two, never from a dense
matrix; its repulsion sum computes each pair of unsettled points once.
Each returned spectrum is certified: its first two power sums must match
tr T and tr T², and sampled eigenvalues must pass an inverse-iteration
residual check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    The truncation must be finite and contain the barrier (R < X < inf),
    and its step must resolve it (0 < h <= X/16).  Grid points are
    x_j = j h for j = 1..n with n = round(X/h) - 1.
    """
    if not p.R < X < math.inf:
        raise ValueError(f"truncation X = {X} must be finite and exceed the barrier "
                         f"R = {p.R}")
    if not h > 0:
        raise ValueError(f"step h = {h} must be positive")
    if h > X / 16.0:
        raise ValueError(f"step h = {h} too coarse for X = {X} (need h <= X/16)")
    n = round(X / h) - 1
    x = h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + eval_potential(p.model, x) + 1j * p.gamma * (x <= p.R)
    off = np.full(n - 1, -1.0 / h**2, dtype=complex)
    return TridiagonalOperator(n=n, sub=off.copy(), diag=diag, super=off.copy(),
                               h=h, X=X)


def _spot_check(t: TridiagonalOperator, eigs: np.ndarray) -> None:
    """Residual check by one inverse-iteration step per sampled eigenvalue."""
    from scipy import linalg

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
        b = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
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
_MAX_N = 9000        # largest matrix eigenvalues_dense solves: bounds its O(n²) time
_ROW_BLOCK = 32      # rows per pass of the Aberth sum: O(32 n) memory
_MAX_ITER = 100
_SPOT_CHECKS = 5     # eigenvalues sampled for the inverse-iteration residual check
_STOP = 32.0         # a point stops once |step| <= _STOP * eps * ||T||


def _start_points(t: TridiagonalOperator) -> np.ndarray:
    """One start per eigenvalue: the spectrum of Re T, lifted to the Im levels of T.

    The real parts are the eigenvalues of the real symmetric tridiagonal
    matrix with diagonal Re diag and off-diagonal sqrt|sub * super|.  Every
    model has piecewise-constant Im q and the barrier adds one jump, so Im
    diag is constant on a few blocks.  Each start takes the level of the
    largest block, whose own spectrum is never computed.  The real part of
    each block at another level has its own spectrum, and each of those
    eigenvalues claims the nearest real part not yet claimed and gives it
    that block's level.
    """
    from scipy import linalg

    im = t.diag.imag
    cuts = np.flatnonzero(np.diff(im)) + 1
    # sqrt|sub * super| of T / 2^e, 2^e > ||T||, times 2^e: exact, and no overflow
    unit = 2.0 ** -np.frexp(t.norm_inf())[1]
    off = np.sqrt(np.abs(t.sub * unit * (t.super * unit))) / unit
    real = linalg.eigvalsh_tridiagonal(t.diag.real, off)       # ascending
    los, his = np.r_[0, cuts], np.r_[cuts, t.n]
    base = im[los[np.argmax(his - los)]]         # the largest block's level
    z = real + 1j * base
    others = [(lo, hi) for lo, hi in zip(los, his) if im[lo] != base]
    if others:
        want = np.concatenate([linalg.eigvalsh_tridiagonal(t.diag.real[lo:hi],
                                                           off[lo:hi - 1])
                               for lo, hi in others])
        levels = np.concatenate([np.full(hi - lo, im[lo]) for lo, hi in others])
        z[_claim(real, want)] += 1j * (levels - base)
    # A real part repeated exactly at one level (Re T splits into identical
    # pieces) gives identical start points, which the Aberth sum cannot pull
    # apart: move each repeat a little off the real axis.
    order = np.lexsort((z.imag, z.real))
    repeat = order[1:][np.diff(z[order]) == 0]
    z[repeat] += 1j * np.sqrt(_EPS) * t.norm_inf() * np.arange(1, len(repeat) + 1)
    return z


def _claim(real: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The index into ascending `real` that each value of `want` claims.

    Each value claims the nearest real not yet claimed.  Where several want
    the same one, the nearest of them gets it and the others try again, so
    every round settles at least one value and no index is claimed twice.
    """
    taken = np.zeros(len(real), dtype=bool)
    out = np.empty(len(want), dtype=int)
    pending = np.arange(len(want))
    while len(pending):
        free = np.flatnonzero(~taken)
        w, near = want[pending], real[free]
        right = np.minimum(np.searchsorted(near, w), len(free) - 1)
        left = np.maximum(right - 1, 0)
        idx = free[np.where(w - near[left] <= np.abs(near[right] - w), left, right)]
        order = np.lexsort((np.abs(real[idx] - w), idx))
        won = order[np.r_[True, np.diff(idx[order]) != 0]]
        out[pending[won]] = idx[won]
        taken[idx[won]] = True
        pending = np.delete(pending, won)
    return out


def _newton(t: TridiagonalOperator, z: np.ndarray) -> np.ndarray:
    """Newton corrections p(z)/p'(z) for p = det(T - z), one per point of z.

    The leading principal minors and their derivatives obey the three-term
    recurrence, with s = sub * super,

        p_k = (d_k - z) p_{k-1} - s_{k-1} p_{k-2},
        p'_k = (d_k - z) p'_{k-1} - p_{k-1} - s_{k-1} p'_{k-2},

    from p_{-1} = 1 and p_{-2} = 0.  Nothing is divided until p_n/p'_n, so an
    exact zero of a leading minor is harmless, and a point where p_n is
    exactly 0 gets correction 0.  T and z are first divided by
    a power of two above ||T|| + max|z|, and every few steps the four current
    values of each point are rescaled together by a power of two.  Both are
    exact: the first multiplies p/p' by a known power, the second leaves it.
    """
    # unit = 2^-e with 2^e > ||T|| + max|z|, so |d_k - z| < 1 and |s_k| < 1/4
    # in these units.  One step then grows a point's four moduli by less than
    # 2.25 and shrinks them by less than 3/|s_k|, since (p, p')_{k-2} follow
    # from the step's inverse (a zero s_k decouples the rows): `every` steps
    # stay within 2^±1000.
    unit = 2.0 ** -np.frexp(t.norm_inf() + np.abs(z).max())[1]
    s = t.sub * unit * (t.super * unit)
    weakest = np.abs(s[s != 0]).min(initial=1.0)
    every = max(1, int(1000 // (1.6 - np.log2(weakest))))
    d = (t.diag * unit).tolist()
    s = [0.0] + s.tolist()
    buf = np.zeros((2, 2, len(z)), dtype=complex)   # rows (p, p') of two steps
    buf[0, 0] = 1.0
    cur, prev = buf
    zz = np.stack([z, z]) * unit        # same shape as cur: no broadcast in a *= cur
    a = np.empty_like(zz)
    for lo in range(0, t.n, every):
        for dk, sk in zip(d[lo:lo + every], s[lo:lo + every]):
            np.subtract(dk, zz, out=a)
            a *= cur                            # (d_k - z) (p, p')_{k-1}
            prev *= sk
            np.subtract(a, prev, out=prev)      # - s_{k-1} (p, p')_{k-2}
            prev[1] -= cur[0]                   # - p_{k-1} in p'_k
            cur, prev = prev, cur
        shift = np.frexp(np.abs(buf).max(axis=(0, 1)))[1]   # moduli < 2^shift
        buf *= np.ldexp(1.0, -shift)                        # exact
    # p_n(z) = 0 exactly makes z an eigenvalue, whose correction is 0, also
    # where p'_n(z) = 0 at a repeated one
    p, dp = cur
    return np.divide(p, dp, out=np.zeros_like(p), where=p != 0) / unit


def _repulsion(z: np.ndarray, active: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Sum over j != k of 1/(z_k - z_j) for each k in active.

    Each pair of active points is computed once, as 1/(z_j - z_k) is
    -1/(z_k - z_j): a block of rows takes its row sums over itself, the
    later active points and the settled ones, and hands the negated column
    sums to the later rows.  Settled points need no sum of their own.
    scratch holds _ROW_BLOCK * len(z) complex numbers.
    """
    settled = np.ones(len(z), dtype=bool)
    settled[active] = False
    w = np.concatenate([z[active], z[settled]])
    m, n = len(active), len(w)
    out = np.zeros(m, dtype=complex)
    for lo in range(0, m, _ROW_BLOCK):
        b = min(_ROW_BLOCK, m - lo)
        diff = scratch[:b * (n - lo)].reshape(b, n - lo)
        np.subtract(w[lo:lo + b, None], w[lo:], out=diff)
        diff[np.arange(b), np.arange(b)] = np.inf          # 1/inf = 0 drops j = k
        np.divide(1.0, diff, out=diff)
        out[lo:lo + b] += diff.sum(axis=1)
        out[lo + b:] -= diff[:, b:m - lo].sum(axis=0)
    return out


def _aberth(t: TridiagonalOperator) -> np.ndarray:
    """All eigenvalues of t by the Ehrlich–Aberth iteration on det(T - z)."""
    stop = _STOP * _EPS * t.norm_inf()
    z = _start_points(t)
    active = np.arange(t.n)
    scratch = np.empty(min(_ROW_BLOCK, t.n) * t.n, dtype=complex)
    for _ in range(_MAX_ITER):
        za = z[active]
        newton = _newton(t, za)
        step = newton / (1.0 - newton * _repulsion(z, active, scratch))
        z[active] = za - step
        active = active[~(np.abs(step) <= stop)]
        if not len(active):
            return z
    raise SolverError(f"{len(active)} of {t.n} eigenvalues did not converge in "
                      f"{_MAX_ITER} Ehrlich–Aberth iterations")


def eigenvalues_dense(t: TridiagonalOperator) -> list[complex]:
    """All eigenvalues of the truncated operator, sorted by real then imaginary part.

    An Ehrlich–Aberth iteration on det(T - z) finds all n eigenvalues in
    O(n²) time and O(n) memory; n may not exceed 9000, which bounds that
    time.  Each Newton correction runs the three-term recurrence of the
    leading principal minors of T - z, with no division and exact
    power-of-two rescaling.  Start points are the spectrum of the real
    part of T at the Im level of the largest block of constant Im diag;
    the real parts nearest the spectra of the other blocks take those
    blocks' levels.  The repulsion sum computes each pair of unsettled
    points once.  Each point stops once its step is within 32·eps·‖T‖∞,
    after at most 100 iterations.  The result is certified
    before it is returned: every value converged and is finite, the power
    sums match the traces, taken of T/‖T‖∞ so that no square overflows,

        |Σλ − tr T| ≤ 1e-12·n·‖T‖∞,   |Σλ² − tr T²| ≤ 1e-12·n·‖T‖∞²,

    and five sampled eigenvalues pass one inverse-iteration step each with
    residual at most 1e-8·‖T‖∞.  Any failure raises SolverError.
    """
    if t.n > _MAX_N:
        raise SolverError(
            f"matrix size {t.n} exceeds the cap {_MAX_N}: n = round(X/h) - 1 "
            f"with X = {t.X:g} and h = {t.h:g}, so coarsen h or shrink X "
            f"(the fd verb's --h and --x-offset)"
        )
    eigs = _aberth(t)
    if not np.all(np.isfinite(eigs)):
        raise SolverError("eigensolver returned non-finite values")
    # the power sums of T / ||T||, so that squares neither over- nor underflow
    scale = t.norm_inf()
    d, s = t.diag / scale, (t.sub / scale) * (t.super / scale)
    for power, trace in enumerate((d.sum(), (d**2).sum() + 2.0 * s.sum()), start=1):
        miss = abs(((eigs / scale)**power).sum() - trace)
        bound = 1e-12 * t.n
        if not miss <= bound:
            raise SolverError(f"power sum {power} misses tr (T/||T||)^{power} by "
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
