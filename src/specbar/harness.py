"""Barrier-width sweeps and convergence-rate fits.

A sweep computes eigenvalues for each barrier width, matches the one
nearest a fixed target, and records the error; rates are then fitted by
least squares on log error against either the width (exponential decay) or
its log (power decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import BarrierProblem, PotentialModel, Rectangle, SpecbarError
from .sturm import CharacteristicContext, eigenvalues

__all__ = [
    "ConvergenceRecord",
    "RateFit",
    "SweepFailureError",
    "InsufficientDataError",
    "run_sweep",
    "fit_rate",
]


class SweepFailureError(SpecbarError):
    """No sweep point produced a matchable eigenvalue."""


class InsufficientDataError(SpecbarError):
    """Too few finite-error records for a rate fit."""


@dataclass(frozen=True)
class ConvergenceRecord:
    """One sweep point: nearest eigenvalue to the target and its error."""

    R: float
    matched: Optional[complex]
    target: complex
    error: float


@dataclass(frozen=True)
class RateFit:
    """Fitted decay law: error ~ prefactor * exp(-rate * R) or prefactor * R**(-rate)."""

    kind: str
    rate: float
    prefactor: float
    r_squared: float


def thread_count() -> int:
    """Always 1: a sweep runs its widths one after another.

    Kept only for ``perfbench/tracing.py``, which reads it to report the
    ``harness.workers`` figure.
    """
    return 1


def run_sweep(model: PotentialModel, gamma: complex, R_grid: Sequence[float],
              target: complex, rect: Rectangle, ode_step: float = 1e-3,
              standoff: float = 1e-3) -> list[ConvergenceRecord]:
    """Eigenvalue errors against a fixed target across barrier widths.

    Widths must be increasing and the rectangle must contain the target or
    at least come close to it: essential-spectrum targets sit exactly on
    the excluded boundary line, so containment is checked on a slightly
    inflated copy.  Widths whose search comes back empty are recorded with
    an infinite error and are skipped by the fitting stage; a sweep with no
    matches at all raises SweepFailureError.
    """
    if list(R_grid) != sorted(R_grid) or len(set(R_grid)) != len(R_grid):
        raise ValueError("R_grid must be strictly increasing")
    target = complex(target)
    if not rect.scaled(1.25).contains(target):
        raise ValueError(f"target {target} lies too far outside the sweep rectangle")

    records = []
    for R in R_grid:
        ctx = CharacteristicContext(BarrierProblem(model, gamma, R),
                                    ode_step=ode_step, standoff=standoff)
        best = eigenvalues(ctx, rect).nearest(target)
        matched = None if best is None else best.location
        error = math.inf if best is None else abs(matched - target)
        records.append(ConvergenceRecord(R, matched, target, error))
    if all(math.isinf(r.error) for r in records):
        raise SweepFailureError("no sweep point matched an eigenvalue")
    return records


def fit_rate(records: Sequence[ConvergenceRecord], kind: str,
             skip_initial: int = 2) -> RateFit:
    """Least-squares decay fit on the finite-error records.

    ``exponential`` regresses log error on R (rate = decay exponent);
    ``power`` regresses log error on log R (rate = power).  Records with
    error inf (no match) or exactly 0.0 (no log) are left out; of the rest,
    the smallest skip_initial widths are dropped as transient unless told
    otherwise.  At least four finite records must remain, or
    InsufficientDataError says how many were left out for each reason.
    """
    if kind not in ("exponential", "power"):
        raise ValueError("kind must be 'exponential' or 'power'")
    usable = [r for r in records if math.isfinite(r.error) and r.error > 0.0]
    usable = sorted(usable, key=lambda r: r.R)[skip_initial:]
    if len(usable) < 4:
        n_zero = sum(r.error == 0.0 for r in records)
        n_inf = sum(math.isinf(r.error) for r in records)
        raise InsufficientDataError(
            f"need at least 4 finite-error records after dropping "
            f"{skip_initial}; have {len(usable)} ({n_zero} dropped for "
            f"error 0.0, {n_inf} for error inf)"
        )
    R = np.array([r.R for r in usable])
    y = np.log([r.error for r in usable])
    x = R if kind == "exponential" else np.log(R)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(kind=kind, rate=float(-coef[0]),
                   prefactor=float(np.exp(coef[1])), r_squared=r2)
