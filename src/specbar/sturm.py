"""Characteristic function of the barrier-perturbed half-line operator.

The interior solution is shot from 0 with a seed that satisfies the mixed
boundary condition exactly; the exterior solution decays at infinity (plane
wave for an integrable-tail potential, quasi-periodic solution for a
periodic tail).  Their Wronskian at the barrier edge R vanishes exactly at
the eigenvalues (principal sheet) or resonances (second sheet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _ode, floquet
from .core import (
    BarrierProblem,
    DomainError,
    PeriodicTail,
    PotentialModel,
    Rectangle,
    Sheet,
    SolutionSample,
    _is_scalar,
    _sample,
    principal_sqrt,
    sheeted_sqrt,
)
from .rootfinder import RootSet

__all__ = [
    "SolutionSample",
    "CharacteristicContext",
    "interior_solution",
    "exterior_solution",
    "characteristic",
    "eigenvalues",
    "resonances",
    "limit_eigenvalues",
    "reference_characteristic",
    "pollution_factor",
]


@dataclass(frozen=True)
class CharacteristicContext:
    """Spectral-parameter-independent data of one characteristic function."""

    problem: BarrierProblem
    sheet: Sheet = Sheet.PRINCIPAL
    ode_step: float = 1e-3
    standoff: float = 1e-3

    def __post_init__(self):
        if self.ode_step <= 0:
            raise ValueError("ode_step must be positive")
        if self.ode_step > self.problem.R / 16.0:
            raise ValueError(
                f"ode_step {self.ode_step} too coarse for R = {self.problem.R}"
                " (need ode_step <= R/16)"
            )
        if self.standoff <= 0:
            raise ValueError("standoff must be positive")


# ---------------------------------------------------------------------------
# Interior and exterior solutions
# ---------------------------------------------------------------------------

def _interior_arrays(ctx: CharacteristicContext, lam):
    model = ctx.problem.model
    lam = np.asarray(lam, dtype=complex)
    eta = complex(model.eta)
    u0 = np.full(lam.shape, complex(np.sin(eta)))
    up0 = np.full(lam.shape, complex(np.cos(eta)))
    return _ode.propagate(model, lam, 0.0, ctx.problem.R, u0, up0,
                          q_add=1j * ctx.problem.gamma, step=ctx.ode_step)


def interior_solution(ctx: CharacteristicContext, lam) -> SolutionSample:
    """Shoot -u'' + (q + i gamma) u = lam u from 0 to the barrier edge R.

    The seed (u, u')(0) = (sin eta, cos eta) satisfies the mixed boundary
    condition identically.  Constant stretches of the potential are
    propagated by exact transfer matrices, sinusoidal ones by RK4 at
    ctx.ode_step, each as one transfer built from closed-form RK4 step
    matrices.  Whole periods of a periodic tail share the first period's
    transfer, so each further period costs one 2x2 product.
    """
    u, up, logs = _interior_arrays(ctx, lam)
    return _sample(u, up, ctx.problem.R, logs, _is_scalar(lam))


def _check_zero_tail_clearance(lam, standoff: float, what: str):
    lam = np.asarray(lam, dtype=complex)
    dist = np.where(lam.real >= 0.0, np.abs(lam.imag), np.abs(lam))
    if np.min(dist) < standoff:
        raise DomainError(
            f"{what} within standoff {standoff} of the essential spectrum ray"
        )


def _exterior_arrays(ctx: CharacteristicContext, lam, check: bool = True):
    model = ctx.problem.model
    if check and not model.is_periodic:
        _check_zero_tail_clearance(lam, ctx.standoff, "spectral parameter")
    return floquet._solution_arrays(model, ctx.problem.R, lam, "plus",
                                    ctx.sheet, ctx.ode_step)


def exterior_solution(ctx: CharacteristicContext, lam) -> SolutionSample:
    """Decaying-at-infinity solution of the unperturbed equation, taken at R.

    This is the tail solution of the background (floquet._solution_arrays,
    sign "plus"): for a zero tail exp(i k x) with k = sheeted_sqrt(lam,
    sheet), propagated backwards through any compact pieces beyond R; for a
    periodic tail the quasi-periodic solution with the (possibly continued)
    decaying multiplier.
    """
    val, der, logs = _exterior_arrays(ctx, lam)
    return _sample(val, der, ctx.problem.R, logs, _is_scalar(lam))


# ---------------------------------------------------------------------------
# Characteristic function
# ---------------------------------------------------------------------------

def _characteristic_parts(ctx: CharacteristicContext, lam, check: bool = True):
    """Normalized Wronskian and the log factor it was scaled by."""
    u, up, li = _interior_arrays(ctx, lam)
    v, vp, le = _exterior_arrays(ctx, lam, check=check)
    return u * vp - up * v, li + le


def characteristic(ctx: CharacteristicContext, lam):
    """Wronskian u(R) psi'(R) - u'(R) psi(R) of interior and exterior solutions.

    Zeros in the admissible region are exactly the eigenvalues (principal
    sheet) or resonances (second sheet) of the barrier problem.
    """
    scalar = _is_scalar(lam)
    w, logs = _characteristic_parts(ctx, lam)
    out = w * np.exp(logs)
    return complex(out) if scalar else out


def _characteristic_zeros(ctx: CharacteristicContext, rect: Rectangle) -> RootSet:
    """Zeros in rect of the Wronskian times a damping factor.

    The factor exp(i k_int R - i k_ext x_t) cancels the exponential growth
    of the interior solution and the exterior normalization, keeping |f|
    of moderate size uniformly over large rectangles without moving any
    zeros; it is analytic wherever the characteristic itself is.  The
    search excludes the essential spectrum and its shift by i gamma.
    """
    model = ctx.problem.model
    R = ctx.problem.R
    gamma = ctx.problem.gamma
    periodic = isinstance(model.tail, PeriodicTail)
    xt = max(R, model.compact_end)

    def f(lam):
        lam = np.asarray(lam, dtype=complex)
        w, logs = _characteristic_parts(ctx, lam, check=False)
        expo = logs + 1j * principal_sqrt(lam - 1j * gamma) * R
        if not periodic:
            expo = expo - 1j * sheeted_sqrt(lam, ctx.sheet) * xt
        return w * np.exp(expo)

    return floquet._spectral_zeros(model, f, rect, (0.0, 1j * complex(gamma)),
                                   ((0.0, "plus", ctx.sheet),), ctx.standoff,
                                   ctx.ode_step)


def eigenvalues(ctx: CharacteristicContext, rect: Rectangle) -> RootSet:
    """All eigenvalues of the barrier problem inside rect (principal sheet).

    The rectangle must keep the context's standoff distance from the
    essential spectrum of the background and its barrier shift.  For a
    periodic tail, zeros at which the cell-start Floquet eigenvector of the
    exterior solution vanishes are dropped: they are zeros of that
    representation, not eigenvalues.
    """
    if ctx.sheet is not Sheet.PRINCIPAL:
        raise DomainError("eigenvalue search requires the principal sheet")
    return _characteristic_zeros(ctx, rect)


def resonances(ctx: CharacteristicContext, rect: Rectangle) -> RootSet:
    """Second-sheet zeros of the characteristic in a lower-right rectangle.

    As for eigenvalues, null-vector zeros of a periodic tail are dropped.
    """
    if ctx.sheet is not Sheet.SECOND:
        raise DomainError("resonance search requires the second sheet")
    if rect.x_lo < 0 or rect.y_hi > 0:
        raise DomainError(
            "resonance rectangles must lie in the lower right quadrant"
        )
    return _characteristic_zeros(ctx, rect)


# ---------------------------------------------------------------------------
# Limit operator
# ---------------------------------------------------------------------------

def _limit_function_arrays(model: PotentialModel, gamma: complex, lam,
                           ode_step: float, standoff: float):
    """Boundary form of the decaying solution at the shifted parameter.

    Zeros are the eigenvalues of the limit operator (background plus the
    constant barrier i gamma).
    """
    lam = np.asarray(lam, dtype=complex)
    z = lam - 1j * gamma
    eta = complex(model.eta)
    if not model.is_periodic:
        _check_zero_tail_clearance(z, standoff, "shifted spectral parameter")
    val, der, logs = floquet._solution_arrays(model, 0.0, z, "plus",
                                              Sheet.PRINCIPAL, ode_step)
    return (np.cos(eta) * val - np.sin(eta) * der) * np.exp(logs)


def limit_eigenvalues(model: PotentialModel, gamma: complex, rect: Rectangle,
                      ode_step: float = 1e-3, standoff: float = 1e-3) -> RootSet:
    """Eigenvalues of the limit operator inside rect.

    These are the zeros of the boundary form of the decaying solution at
    the shifted spectral parameter; gamma = 0 recovers the unshifted
    background operator.  For a periodic tail, zeros at which the
    cell-start Floquet eigenvector itself vanishes are dropped: there the
    Dirichlet solution grows, so they are no eigenvalues.
    """
    gamma = complex(gamma)
    shift = 1j * gamma

    def f(lam):
        return _limit_function_arrays(model, gamma, lam, ode_step, standoff)

    return floquet._spectral_zeros(model, f, rect, (shift,),
                                   ((shift, "plus", Sheet.PRINCIPAL),),
                                   standoff, ode_step)


# ---------------------------------------------------------------------------
# Closed-form references
# ---------------------------------------------------------------------------

def reference_characteristic(example: str, lam, R: float,
                             R0: Optional[float] = None,
                             sheet: Sheet = Sheet.PRINCIPAL):
    """Closed-form characteristic functions of the two worked examples.

    ``ex1`` is the free background with a unit barrier; ``ex2`` stacks the
    unit barrier on a background that is i on [0, R0).  The sheet selector
    continues the outermost square root across the positive half-axis.
    """
    scalar = _is_scalar(lam)
    lam = np.asarray(lam, dtype=complex)
    s = sheeted_sqrt(lam, sheet)
    if example == "ex1":
        w = principal_sqrt(lam - 1j)
        out = 1j * s * np.sin(w * R) - w * np.cos(w * R)
    elif example == "ex2":
        if R0 is None or not 0 < R0 <= R:
            raise ValueError("ex2 requires R >= R0 > 0")
        wi = principal_sqrt(lam - 1j)
        w2 = principal_sqrt(lam - 2j)
        kap = (wi - s) / (wi + s)
        ee = np.exp(-2j * wi * (R - R0))
        out = (1j * wi * (ee - kap) * np.sin(w2 * R0)
               - w2 * (ee + kap) * np.cos(w2 * R0))
    else:
        raise ValueError(f"unknown example {example!r}")
    return complex(out) if scalar else out


# ---------------------------------------------------------------------------
# Pollution diagnostics for integrable-tail backgrounds
# ---------------------------------------------------------------------------

def pollution_factor(model: PotentialModel, gamma: complex, R: float, lam):
    """Cross-Wronskian of the normalized tail solutions at the barrier edge.

    For an integrable (zero-tail) background this converges, as R grows, to
    -i (sqrt(lam - i gamma) + sqrt(lam)), which never vanishes; its zeros
    locate persistent pollution (floquet.sp_zeros searches them), so the
    limit being bounded away from zero certifies an empty pollution set
    away from the essential spectrum.  Sinusoidal pieces beyond R are
    integrated at the default step 1e-3.
    """
    if isinstance(model.tail, PeriodicTail):
        raise DomainError("pollution_factor applies to zero-tail models")
    scalar = _is_scalar(lam)
    out = floquet._cross_wronskian(model, gamma, R, lam, 1e-3)
    return complex(out) if scalar else out
