"""Vectorized propagation of second-order spectral problems.

Propagates (u, u') for -u'' + (q(x) + c) u = lam * u across intervals on
which q is a single expression.  Every stretch is one power T^n of a
one-step transfer T.  A constant stretch is n equal substeps, T the exact
matrix of one substep h in the entire functions cos(w h) and sin(w h)/w,
with n the fewest substeps that keep T's entries bounded.  A sinusoidal
stretch is fixed-step RK4 in closed form: one RK4 step of
y' = [[0, 1], [q + c - lam, 0]] y is a 2x2 matrix whose entries are
polynomials of degree <= 2 in lam, with coefficients from one vectorized
evaluation of q at all nodes of the stretch.  The step matrices are built
and multiplied pairwise in blocks of whole-array operations into T,
inside work arrays allocated once per transfer and reused by every block.
The whole cells of a periodic tail are one stretch, T the transfer of one
cell, whichever kind, and n their count.  For n > 1, T^n comes from
binary powering, every product normalised per point by a power of two, so
n repeats cost at most 2 log2(n) products and one application to the
solution.  Every transfer has entries below _TRANSFER_LIMIT and is applied
to a solution rescaled below _RESCALE_LIMIT, so no magnitude overflows.
All routines are vectorized over an ndarray of spectral parameters; the
seeds may add a leading axis of columns, such as the two canonical
solutions of a monodromy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import ConstExpr, PeriodicTail, PotentialModel

_RESCALE_LIMIT = 1e250
_RESCALE_EVERY = 64       # RK4 steps between overflow checks of a transfer
# A transfer entry stays below this, so that applying it to a solution
# rescaled below _RESCALE_LIMIT stays finite.
_TRANSFER_LIMIT = 1e50
# Bound on |Im w| h for one constant substep of length h: its entries are
# at most e^100 max(1, |w|, h) < 3e43 max(1, |w|, h), below
# _TRANSFER_LIMIT for |w| and h up to 3e6.
_CONST_GROWTH = 100.0
# Step-point pairs per block of RK4 step matrices multiplied together: few
# array operations for few points, bounded memory for many.  One
# transfer's blocks share work arrays sized by its largest block.
_BLOCK_POINTS = 1 << 12


class Segment(NamedTuple):
    a: float
    b: float
    expr: object      # ConstExpr | SinExpr
    xoff: float       # q(x) = expr(x - xoff) on the first of count cells
    count: int = 1    # equal cells of length (b - a) / count cover [a, b]


def segments(model: PotentialModel, x_lo: float, x_hi: float) -> list[Segment]:
    """Expression-homogeneous subintervals covering [x_lo, x_hi] in order.

    Gaps not covered by pieces or a periodic tail count as q = 0.  The whole
    cells of a periodic tail are one segment with their count, between the
    partial cells at either end; an end within rounding (about 1e-12) of a
    cell boundary counts as on it.
    """
    if not (0.0 <= x_lo < x_hi):
        raise ValueError(f"need 0 <= x_lo < x_hi, got [{x_lo}, {x_hi}]")
    zero = ConstExpr(0.0)
    out: list[Segment] = []
    x = x_lo
    for p in model.pieces:
        if p.x_hi <= x or p.x_lo >= x_hi:
            continue
        a = max(p.x_lo, x)
        b = min(p.x_hi, x_hi)
        if a > x + 1e-15:
            out.append(Segment(x, a, zero, 0.0))
        out.append(Segment(a, b, p.expr, 0.0))
        x = b
    if x >= x_hi - 1e-15:
        return out
    tail = model.tail
    if not isinstance(tail, PeriodicTail):
        out.append(Segment(x, x_hi, zero, 0.0))
        return out
    if x < tail.start:
        a = min(tail.start, x_hi)
        out.append(Segment(x, a, zero, 0.0))
        x = a
    start, period = tail.start, tail.period
    n = math.floor((x - start) / period + 1e-12)     # the cell holding x
    k = math.floor((x_hi - start) / period + 1e-12)  # cell ends up to x_hi
    if x < x_hi - 1e-15 and x - (start + n * period) > 1e-12 * (1.0 + abs(x)):
        n += 1
        out.append(Segment(x, min(start + n * period, x_hi), tail.expr, (n - 1) * period))
        x = out[-1].b
    if k > n:
        out.append(Segment(x, start + k * period, tail.expr, n * period, k - n))
        x, n = out[-1].b, k
    if x < x_hi - 1e-15:
        out.append(Segment(x, x_hi, tail.expr, n * period))
    return out


def _sinc_like(w: np.ndarray, d: float):
    """cos(w d) and sin(w d)/w, both entire in w^2; a series where |w d| < 1e-4."""
    t = w * d
    c = np.cos(t)
    small = np.abs(t) < 1e-4
    if not small.any():
        return c, np.sin(t) / w
    s = np.where(small, d * (1.0 - t * t / 6.0 * (1.0 - t * t / 20.0)),
                 np.sin(t) / np.where(small, 1.0, w))
    return c, s


def _const_transfer(qc: complex, lam, d: float):
    """Exact transfer across a constant stretch of length d.

    Returns (T, 0.0, n): the transfer is T^n, with T = ((c, s), (-w^2 s, c))
    the substep matrix of length d/n, as nested tuples of arrays shaped like
    lam, and n the fewest substeps whose growth stays below _CONST_GROWTH.
    """
    w2 = lam - qc
    w = np.sqrt(w2)
    growth = float(np.max(np.abs(w.imag))) * abs(d) if w.size else 0.0
    nsub = max(1, math.ceil(growth / _CONST_GROWTH))
    c, s = _sinc_like(w, d / nsub)
    return ((c, s), (-w2 * s, c)), 0.0, nsub


def _rk4_transfer(expr, x0: float, lam, d: float, step: float,
                  q_add: complex):
    """RK4 transfer across a stretch where q(x) = expr(x) for x in x0 + [0, d].

    With a = q + q_add - lam taken at x, x + h/2 and x + h (a1, a2, a3), one
    RK4 step of y' = [[0, 1], [a, 0]] y is the matrix

        s11 = 1 + h^2/6 (a1 + 2 a2) + h^4/24 a1 a2
        s12 = h + h^3/6 a2
        s21 = h/6 (a1 + 4 a2 + a3) + h^3/12 a2 (a1 + a3)
        s22 = 1 + h^2/6 (2 a2 + a3) + h^4/24 a2 a3

    whose entries are polynomials of degree <= 2 in lam.  The steps are
    multiplied pairwise in blocks of up to 64; the product is rescaled
    every 64 steps and at the end.  Every product is written into work
    arrays allocated once per call and reused by every block, so a call on
    many points does not allocate, and fault in, fresh memory per block.
    Returns (T, logs, 1): T has shape (2, 2) + lam.shape and the transfer,
    applied once, is T * exp(logs).
    """
    n = max(1, math.ceil(abs(d) / step))
    h = d / n
    c = np.asarray(expr(x0 + 0.5 * h * np.arange(2 * n + 1)), dtype=complex)
    c = c + q_add
    c1, c2, c3 = c[0:-1:2], c[1::2], c[2::2]
    w2, w3, w4 = h * h / 6.0, h ** 3 / 12.0, h ** 4 / 24.0
    # constant and linear coefficients in lam of each step matrix, (2, 2, n)
    const = np.array([
        [1.0 + w2 * (c1 + 2.0 * c2) + w4 * c1 * c2, h + 2.0 * w3 * c2],
        [h / 6.0 * (c1 + 4.0 * c2 + c3) + w3 * c2 * (c1 + c3),
         1.0 + w2 * (2.0 * c2 + c3) + w4 * c2 * c3],
    ])
    lin = np.array([
        [-3.0 * w2 - w4 * (c1 + c2), np.full(n, -2.0 * w3)],
        [-h - w3 * (c1 + 2.0 * c2 + c3), -3.0 * w2 - w4 * (c2 + c3)],
    ])
    lam1 = lam.reshape(-1)
    m = lam1.size
    quad = np.multiply.outer(np.array([[w4, 0.0], [2.0 * w3, w4]]), lam1 * lam1)
    quad = quad[:, :, None, :]
    max_block = min(_RESCALE_EVERY,
                    _pow2_floor(max(1, _BLOCK_POINTS // max(m, 1))))
    # work arrays of every block: its step matrices, a product level, the
    # scratch of a product's second term and a transfer; the levels of the
    # pairwise products go to the level array and the steps in turn
    steps = np.empty(4 * max_block * m, dtype=complex)
    level = np.empty(4 * (max_block // 2) * m, dtype=complex)
    scratch = np.empty(4 * max(1, max_block // 2) * m, dtype=complex)
    spare = np.empty((2, 2, m), dtype=complex)
    term = scratch[:4 * m].reshape(2, 2, m)
    trees = {}
    T = None
    logs = np.zeros(lam1.shape)
    done = 0
    while done < n:
        k = min(max_block, _pow2_floor(n - done))
        if k not in trees:
            trees[k] = _tree_views(steps, level, scratch, k, m)
        S, tree, top = trees[k]
        block = slice(done, done + k)
        np.multiply(lin[:, :, block, None], lam1, out=S)
        S += const[:, :, block, None]
        S += quad
        for a0, b0, a1, b1, out, tmp in tree:
            np.multiply(a0, b0, out=out)
            np.multiply(a1, b1, out=tmp)
            out += tmp
        if T is None:
            T = top.copy()
        else:
            T, spare = _matmul_into(top, T, spare, term), T
        done += k
        if done % _RESCALE_EVERY == 0 or done == n:
            mag = np.max(np.abs(T), axis=(0, 1))
            big = mag > _TRANSFER_LIMIT
            if np.any(big):
                factor = np.where(big, mag, 1.0)
                T /= factor
                logs = logs + np.log(factor)
    return T.reshape((2, 2) + lam.shape), logs.reshape(lam.shape), 1


def _pow2_floor(n: int) -> int:
    return 1 << (n.bit_length() - 1)


def _tree_views(steps, level, scratch, k, m):
    """Views that multiply k step matrices pairwise inside the work arrays.

    Returns (S, tree, top): S is steps as k stacked step matrices, each
    entry of tree holds the operands of one level's two products (those of
    _matmul_into), its output in level and steps in turn, so that no level
    writes to the array it reads, and its second term in scratch; top is
    the product of the block.
    """
    S = src = steps[:4 * k * m].reshape(2, 2, k, m)
    tree = []
    while k > 1:
        k //= 2
        out = (level, steps)[len(tree) % 2][:4 * k * m].reshape(2, 2, k, m)
        tmp = scratch[:4 * k * m].reshape(2, 2, k, m)
        a, b = src[:, :, 1::2], src[:, :, 0::2]
        tree.append((a[:, 0, None], b[None, 0], a[:, 1, None], b[None, 1],
                     out, tmp))
        src = out
    return S, tree, src[:, :, 0]


def _matmul_into(a, b, out, tmp):
    """Products of stacked 2x2 matrices, matrix axes first, written to out.

    tmp has out's shape and holds the second of the two-term sums.
    """
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    np.multiply(a[:, 1, None], b[None, 1], out=tmp)
    out += tmp
    return out


def _normalised(T, logs):
    """T divided per point by the power of two that brings its largest
    entry into [1/2, 1), with the exact log of that power added to logs."""
    _, e = np.frexp(np.max(np.abs(T), axis=(0, 1)))
    return T * np.ldexp(1.0, -e), logs + e * math.log(2.0)


def _power(T, logs, n: int):
    """The transfer T * exp(logs) applied n times, as (P, plogs).

    By binary powering from the leading bit of n: one squaring per further
    bit and one product with T per set bit, each product normalised per
    point by a power of two, so the whole power is formed before any
    solution is touched and its entries lie below 2.
    """
    T, logs = _normalised(T, logs)
    P, plogs = T, logs
    for bit in bin(n)[3:]:
        P, plogs = _normalised(np.einsum("ij...,jk...->ik...", P, P), 2.0 * plogs)
        if bit == "1":
            P, plogs = _normalised(np.einsum("ij...,jk...->ik...", P, T), plogs + logs)
    return P, plogs


def _rescale(u, up, logs):
    mag = np.maximum(np.abs(u), np.abs(up))
    # fmax skips NaN, as the mask does
    if np.fmax.reduce(mag, axis=None, initial=0.0) > _RESCALE_LIMIT:
        big = mag > _RESCALE_LIMIT
        factor = np.where(big, mag, 1.0)
        u = u / factor
        up = up / factor
        logs = logs + np.log(factor)
    return u, up, logs


def propagate(model: PotentialModel, lam, x_from: float, x_to: float,
              u, up, q_add: complex = 0.0, step: float = 1e-3):
    """Propagate (u, u') of -u'' + (q + q_add) u = lam u from x_from to x_to.

    Works in either direction.  u and up broadcast against lam; a leading
    axis beyond lam's shape holds independent columns, which share every
    transfer.  Each segment's one-step transfer is built once and, when
    it repeats (the substeps of a constant stretch, the whole cells of a
    periodic tail), raised to its count by binary powering before it
    touches the solution, so a segment costs one application and one
    rescale however wide it is.  Returns (u, up, logs) where exp(logs) is a
    magnitude factor split off to avoid overflow; the true solution is
    (u, up) * exp(logs).
    The RK4 step must be positive and finite; otherwise ValueError.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"ode_step must be positive and finite, got {step}")
    lam = np.asarray(lam, dtype=complex)
    u = np.asarray(u, dtype=complex)
    up = np.asarray(up, dtype=complex)
    shape = np.broadcast(u, up, lam).shape
    # read-only views: every transfer below makes new arrays
    u = np.broadcast_to(u, shape)
    up = np.broadcast_to(up, shape)
    logs = np.zeros(shape)
    if math.isclose(x_from, x_to, rel_tol=0.0, abs_tol=1e-15):
        return u.copy(), up.copy(), logs
    forward = x_to > x_from
    segs = segments(model, *(sorted((x_from, x_to))))
    if not forward:
        segs = segs[::-1]
    for seg in segs:
        # one cell, from its start x0 in the direction of travel
        d = (seg.b - seg.a) / seg.count
        x0, d = (seg.a, d) if forward else (seg.b - (seg.count - 1) * d, -d)
        if isinstance(seg.expr, ConstExpr):
            T, dlogs, nsub = _const_transfer(complex(seg.expr.value) + q_add,
                                             lam, d)
        else:
            T, dlogs, nsub = _rk4_transfer(seg.expr, x0 - seg.xoff, lam, d,
                                           step, q_add)
        if nsub * seg.count > 1:
            T, dlogs = _power(np.array(T), dlogs, nsub * seg.count)
        u, up = T[0][0] * u + T[0][1] * up, T[1][0] * u + T[1][1] * up
        logs = logs + dlogs
        u, up, logs = _rescale(u, up, logs)
    return u, up, logs
