"""Finite-difference domain truncation of the barrier problem.

Truncating to [0, X] with Dirichlet ends and second-order central
differences yields a complex symmetric tridiagonal matrix whose spectrum
shows, side by side, genuine eigenvalue approximants near the shifted bands
and truncation-induced pollution on the real bands.

All n eigenvalues come from an Ehrlich–Aberth iteration on det(T − z) in
O(n²) time and O(n) memory (Bini, Gemignani & Tisseur, SIAM J. Matrix Anal.
Appl. 27, 2005).  It starts from the spectrum of the real part of T, taken
in single precision, each point lifted to the imaginary level of the
diagonal block it belongs to.  Its Newton correction p/p' comes from the
three-term recurrences of the leading and the trailing principal minors,
run from both ends at once and joined in the middle, rescaled by powers of
two, never from a dense matrix; its repulsion sum computes each pair of
unsettled points once.  A point settles once its step is within
32·eps·‖T‖∞, or once its steps contract and the contraction's error bound
θ/(1 − θ)·|step|, θ the ratio of its last two steps, is within that stop.
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
    off.flags.writeable = False         # one array is both bands
    return TridiagonalOperator(n=n, sub=off, diag=diag, super=off, h=h, X=X)


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
    matrix with diagonal Re diag and off-diagonal sqrt|sub * super|, in
    single precision (_real_spectrum): Aberth needs only approximate
    starts.  Every model has piecewise-constant Im q and the barrier adds
    one jump, so Im diag is constant on a few blocks.  Each start takes the
    level of the largest block, whose own spectrum is never computed.  The
    real part of each block at another level has its own spectrum, and each
    of those eigenvalues claims the nearest real part not yet claimed and
    gives it that block's level.
    """
    im = t.diag.imag
    cuts = np.flatnonzero(np.diff(im)) + 1
    # Re T / 2^e, 2^e > ||T||: every entry below 1, and sub * super cannot overflow
    unit = 2.0 ** -np.frexp(t.norm_inf())[1]
    d = (t.diag.real * unit).astype(np.float32)
    off = np.sqrt(np.abs(t.sub * unit * (t.super * unit))).astype(np.float32)
    real = _real_spectrum(d, off) / unit                        # ascending
    los, his = np.r_[0, cuts], np.r_[cuts, t.n]
    base = im[los[np.argmax(his - los)]]         # the largest block's level
    z = real + 1j * base
    others = [(lo, hi) for lo, hi in zip(los, his) if im[lo] != base]
    if others:
        want = np.concatenate([_real_spectrum(d[lo:hi], off[lo:hi - 1])
                               for lo, hi in others]) / unit
        levels = np.concatenate([np.full(hi - lo, im[lo]) for lo, hi in others])
        z[_claim(real, want)] += 1j * (levels - base)
    # A real part repeated exactly at one level (Re T splits into identical
    # pieces, or single precision rounds close eigenvalues together) gives
    # identical start points, which the Aberth sum cannot pull apart: move
    # each repeat a little off the real axis.
    order = np.lexsort((z.imag, z.real))
    repeat = order[1:][np.diff(z[order]) == 0]
    z[repeat] += 1j * np.sqrt(_EPS) * t.norm_inf() * np.arange(1, len(repeat) + 1)
    return z


def _real_spectrum(d: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the float32 symmetric tridiagonal (d, off), as float64.

    LAPACK ssterf: the root-free QR iteration, in single precision.
    """
    from scipy.linalg import lapack

    if len(d) == 1:                    # ssterf wants a non-empty off-diagonal
        return d.astype(float)
    vals, info = lapack.ssterf(d, off)
    if info:
        raise SolverError(f"ssterf left {info} off-diagonal entries unconverged")
    return vals.astype(float)


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

    With s = sub * super, the leading principal minors θ_k (rows 0..k) and
    the trailing ones φ_k (rows k..n-1) obey three-term recurrences,

        θ_k = (d_k - z) θ_{k-1} - s_{k-1} θ_{k-2},   θ_{-1} = 1, θ_{-2} = 0,
        φ_k = (d_k - z) φ_{k+1} - s_k φ_{k+2},       φ_n = 1,    φ_{n+1} = 0,

    and their derivatives the same ones less θ_{k-1} and φ_{k+1}.  Both
    chains run in lockstep, down from row 0 and up from row n-1, and meet
    in the middle: with j = n//2 - 1,

        p = θ_j φ_{j+1} - s_j θ_{j-1} φ_{j+2},

    and p' is the product-rule sum of the same terms.  For odd n the
    trailing chain has one row more, and the leading chain first takes a
    virtual row that yields its boundary values exactly.  Nothing is
    divided until p/p', so an exact zero of a minor is harmless, and a
    point where p is exactly 0 gets correction 0.  T and z are first
    divided by a power of two above ||T|| + max|z|, and every few steps the
    four current values of each chain at each point are rescaled together
    by a power of two.  Both are exact: the first multiplies p/p' by a known
    power, the second scales every term of p and of p' alike.
    """
    # unit = 2^-e with 2^e > ||T|| + max|z|, so |d_k - z| < 1 and |s_k| < 1/4
    # in these units.  One step then grows a chain's four moduli by less than
    # 2.25 and shrinks them by less than 3/|s_k|, since its two earlier rows
    # follow from the step's inverse (a zero s_k decouples the rows): `every`
    # steps stay within 2^±1000.
    n, m, k = t.n, t.n // 2, len(z)
    unit = 2.0 ** -np.frexp(t.norm_inf() + np.abs(z).max())[1]
    s = t.sub * unit * (t.super * unit)
    weakest = np.abs(s[s != 0]).min(initial=1.0)
    every = max(1, int(1000 // (1.6 - np.log2(weakest))))
    # (d, s) of each step's leading and trailing row; the virtual row, d = 0
    # and s = 1, steps from (θ, θ')_{-2} = (0, 0) and (θ, θ')_{-3} = (-1, 0)
    # to (θ, θ')_{-1} = (1, 0)
    lead, d = n - 2 * m, t.diag * unit
    dj = np.zeros((n - m, 2, 1), dtype=complex)
    sj = np.zeros_like(dj)
    dj[lead:, 0, 0], dj[:, 1, 0] = d[:m], d[:m - 1:-1]
    sj[lead + 1:, 0, 0], sj[1:, 1, 0] = s[:m - 1], s[:m - 1:-1]
    sj[:lead, 0] = 1.0
    # a scalar operand is faster than a broadcast pair: one where both agree
    sj = [x if x == y else pair for x, y, pair in zip(*sj[:, :, 0].T.tolist(), sj)]
    buf = np.zeros((2, 2, 2, k), dtype=complex)     # (step, chain, (p, p'), point)
    buf[0, :, 0] = 1.0
    if lead:
        buf[0, 0, 0], buf[1, 0, 0] = 0.0, -1.0
    # (cur, prev, p' of prev, p of cur) with buf[0], then buf[1], current;
    # each chain's p and p' side by side, the shape of zz
    flat = buf.reshape(2, 2, 2 * k)
    views = [(flat[i], flat[1 - i], buf[1 - i, :, 1], buf[i, :, 0]) for i in (0, 1)]
    zz = np.tile(z * unit, (2, 2))
    # d - z of `rows` steps at once, in at most max(2^14, 4k) complex numbers
    rows = max(1, min(every, 2**12 // k))
    a = np.empty((rows, 2, 2 * k), dtype=complex)
    i = 0
    for lo in range(0, n - m, every):
        for top in range(lo, min(lo + every, n - m), rows):
            ak = a[:min(rows, lo + every - top, n - m - top)]
            np.subtract(dj[top:top + len(ak)], zz, out=ak)
            for aj, sk in zip(ak, sj[top:top + len(ak)]):
                cur, prev, dprev, pcur = views[i]
                aj *= cur                       # (d - z) (p, p') one row back
                prev *= sk
                np.subtract(aj, prev, out=prev)     # - s (p, p') two rows back
                dprev -= pcur                   # - p one row back, in p'
                i ^= 1
        shift = np.frexp(np.abs(buf).max(axis=(0, 2)))[1]   # moduli < 2^shift
        buf *= np.ldexp(1.0, -shift)[:, None]                # exact
    (th, dth), (ph, dph) = buf[i]
    (th0, dth0), (ph0, dph0) = buf[1 - i]
    p = th * ph - s[m - 1] * th0 * ph0
    dp = dth * ph + th * dph - s[m - 1] * (dth0 * ph0 + th0 * dph0)
    # p(z) = 0 exactly makes z an eigenvalue, whose correction is 0, also
    # where p'(z) = 0 at a repeated one
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
        np.fill_diagonal(diff, np.inf)          # 1/inf = 0 drops j = k
        np.reciprocal(diff, out=diff)
        out[lo:lo + b] += diff.sum(axis=1)
        out[lo + b:] -= diff[:, b:m - lo].sum(axis=0)
    return out


def _aberth(t: TridiagonalOperator) -> np.ndarray:
    """All eigenvalues of t by the Ehrlich–Aberth iteration on det(T - z).

    A point settles once its step |Δₖ| is within stop, or once its steps
    contract, θ = |Δₖ|/|Δₖ₋₁| < 1, with θ/(1 − θ)·|Δₖ| within stop: the
    a-posteriori error bound of a contraction (Deuflhard, Newton Methods for
    Nonlinear Problems, 2004), which spares the sweep that would only
    confirm it.  The first sweep has no previous step (NaN) and only the
    first test.
    """
    stop = _STOP * _EPS * t.norm_inf()
    z = _start_points(t)
    active = np.arange(t.n)
    last = np.full(t.n, np.nan)         # |Δₖ₋₁| of each active point
    scratch = np.empty(min(_ROW_BLOCK, t.n) * t.n, dtype=complex)
    for _ in range(_MAX_ITER):
        za = z[active]
        newton = _newton(t, za)
        step = newton / (1.0 - newton * _repulsion(z, active, scratch))
        z[active] = za - step
        size = np.abs(step)
        theta = size / last
        # θ·|Δ| <= (1 - θ)·stop holds for no θ >= 1 once |Δ| > 0
        settled = (size <= stop) | (theta * size <= (1.0 - theta) * stop)
        active, last = active[~settled], size[~settled]
        if not len(active):
            return z
    raise SolverError(f"{len(active)} of {t.n} eigenvalues did not converge in "
                      f"{_MAX_ITER} Ehrlich–Aberth iterations")


def eigenvalues_dense(t: TridiagonalOperator) -> list[complex]:
    """All eigenvalues of the truncated operator, sorted by real then imaginary part.

    An Ehrlich–Aberth iteration on det(T - z) finds all n eigenvalues in
    O(n²) time and O(n) memory; n may not exceed 9000, which bounds that
    time.  Each Newton correction runs the three-term recurrences of the
    leading and the trailing principal minors of T - z from both ends,
    meeting in the middle, with no division and exact power-of-two
    rescaling.  Start points are the spectrum of the real part of T, in
    single precision, at the Im level of the largest block of constant Im
    diag;
    the real parts nearest the spectra of the other blocks take those
    blocks' levels.  The repulsion sum computes each pair of unsettled
    points once.  Each point stops once its step is within 32·eps·‖T‖∞,
    or once θ = |Δₖ|/|Δₖ₋₁| < 1 and θ/(1 − θ)·|Δₖ| is within it, after at
    most 100 iterations.  The result is certified
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
    Near is closer than tol_band: Re lambda to the bands (one array call of
    BandStructure.distance), Im lambda to 0 or gamma.
    """
    if not 0 < tol_band < math.inf:
        raise ValueError(f"tol_band = {tol_band} must be positive and finite")
    lam = np.asarray(eigs, dtype=complex)
    near_band = bands.distance(lam.real) < tol_band
    pollution = near_band & (np.abs(lam.imag) < tol_band)
    essential = near_band & ~pollution & (np.abs(lam.imag - gamma) < tol_band)
    return ClassifiedSpectrum(lam[pollution].tolist(), lam[essential].tolist(),
                              lam[~(pollution | essential)].tolist())
