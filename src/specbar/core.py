"""Complex-plane primitives, potential models and barrier problems.

Everything here is an immutable value; all functions are pure. The square
root convention used throughout the package is fixed in this module: the
branch cut runs along the positive real semi-axis and the principal branch
has nonnegative imaginary part.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "Sheet",
    "SpecbarError",
    "DomainError",
    "principal_sqrt",
    "sheeted_sqrt",
    "ConstExpr",
    "SinExpr",
    "Piece",
    "ZeroTail",
    "PeriodicTail",
    "PotentialModel",
    "eval_potential",
    "Rectangle",
    "BarrierProblem",
    "load_model",
    "save_model",
    "model_from_dict",
    "model_to_dict",
]


class SpecbarError(Exception):
    """Base class for all package errors."""


class DomainError(SpecbarError, ValueError):
    """An argument lies outside the domain of validity of an operation."""


def _is_scalar(z) -> bool:
    """True for a Python or numpy scalar and for a 0-d array."""
    return np.isscalar(z) or getattr(z, "ndim", 0) == 0


@dataclass(frozen=True)
class SolutionSample:
    """Solution value and derivative at a point, with a magnitude offset.

    The represented solution values are (value, derivative) * exp(log_scale);
    the factor is split off so that strongly growing solutions stay inside
    floating-point range.  Fields may be ndarrays for vectorized spectral
    parameters.
    """

    value: complex
    derivative: complex
    x: float
    log_scale: float = 0.0


def _sample(value, derivative, x, logs, scalar: bool) -> SolutionSample:
    if scalar:
        return SolutionSample(complex(value), complex(derivative), x, float(logs))
    return SolutionSample(value, derivative, x, logs)


class Sheet(enum.Enum):
    """Branch selector for square roots and Floquet multipliers."""

    PRINCIPAL = "principal"
    SECOND = "second"


def principal_sqrt(z):
    """Square root with branch cut along [0, inf) and Im sqrt(z) >= 0.

    On the cut the value is the limit from the upper half-plane, so
    ``principal_sqrt(4) == 2`` (real, nonnegative).  Accepts a complex
    scalar or an ndarray and returns the same kind.
    """
    arr = np.asarray(z, dtype=complex)
    w = np.sqrt(arr)
    # np.sqrt cuts along (-inf, 0] with Re >= 0; flipping the lower
    # half-plane values moves the cut to [0, inf) with Im >= 0.
    flip = (w.imag < 0) | ((w.imag == 0) & (w.real < 0))
    w = np.where(flip, -w, w)
    if _is_scalar(z):
        return complex(w)
    return w


def sheeted_sqrt(z, sheet: Sheet):
    """Principal square root or its analytic continuation across the cut.

    The second sheet is the negative of the principal branch; it is the
    continuation of the principal branch from the upper half-plane down
    through (0, inf).
    """
    w = principal_sqrt(z)
    if sheet is Sheet.SECOND:
        return -w
    return w


@dataclass(frozen=True)
class ConstExpr:
    """Constant potential value (complex allowed)."""

    value: complex

    def __call__(self, x):
        return self.value if np.isscalar(x) else np.full(np.shape(x), self.value)

    @property
    def is_real(self) -> bool:
        return complex(self.value).imag == 0.0


@dataclass(frozen=True)
class SinExpr:
    """Sinusoid amplitude * sin(frequency * x + phase), real parameters."""

    amplitude: float
    frequency: float
    phase: float = 0.0

    def __call__(self, x):
        return self.amplitude * np.sin(self.frequency * np.asarray(x) + self.phase)

    @property
    def is_real(self) -> bool:
        return True


Expression = Union[ConstExpr, SinExpr]


@dataclass(frozen=True)
class Piece:
    """Potential expression on the half-open interval [x_lo, x_hi)."""

    x_lo: float
    x_hi: float
    expr: Expression

    def __post_init__(self):
        if not (self.x_lo < self.x_hi):
            raise ValueError(f"piece interval is empty: [{self.x_lo}, {self.x_hi})")


@dataclass(frozen=True)
class ZeroTail:
    """Potential vanishes identically beyond the compact pieces."""


@dataclass(frozen=True)
class PeriodicTail:
    """Real a-periodic potential on [start, inf).

    The tail value at x >= start is expr evaluated at the reduced
    coordinate start + ((x - start) mod period).
    """

    period: float
    start: float
    expr: Expression

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("tail period must be positive")
        if self.start < 0:
            raise ValueError("tail start must be nonnegative")
        if not self.expr.is_real:
            raise ValueError("periodic tail expression must be real-valued")


Tail = Union[ZeroTail, PeriodicTail]


@dataclass(frozen=True)
class PotentialModel:
    """Piecewise potential q on [0, inf) plus its tail behaviour.

    Pieces must be contiguous from 0 and non-overlapping.  Any gap between
    the last piece and a periodic tail's start is treated as q = 0, as is
    everything beyond the pieces for a zero tail.  ``eta`` is the mixed
    boundary condition parameter: cos(eta) u(0) - sin(eta) u'(0) = 0.
    """

    pieces: tuple[Piece, ...] = ()
    tail: Tail = field(default_factory=ZeroTail)
    eta: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        x = 0.0
        for p in self.pieces:
            if not math.isclose(p.x_lo, x, rel_tol=0.0, abs_tol=1e-12):
                raise ValueError(
                    f"pieces must be contiguous from 0: expected x_lo={x}, got {p.x_lo}"
                )
            x = p.x_hi
        if isinstance(self.tail, PeriodicTail) and self.tail.start < x - 1e-12:
            raise ValueError("periodic tail must start at or beyond the last piece")

    @property
    def compact_end(self) -> float:
        """Right end of the last compact piece (0 if there are none)."""
        return self.pieces[-1].x_hi if self.pieces else 0.0

    @property
    def is_periodic(self) -> bool:
        return isinstance(self.tail, PeriodicTail)


def eval_potential(model: PotentialModel, x: float) -> complex:
    """Value of q at x >= 0, reducing periodic-tail coordinates mod the period."""
    if x < 0:
        raise DomainError(f"potential is defined on [0, inf); got x={x}")
    for p in model.pieces:
        if p.x_lo <= x < p.x_hi:
            return complex(p.expr(x))
    if isinstance(model.tail, PeriodicTail) and x >= model.tail.start:
        t = model.tail
        x0 = t.start + math.fmod(x - t.start, t.period)
        return complex(t.expr(x0))
    return 0.0


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x_lo + self.x_hi), 0.5 * (self.y_lo + self.y_hi))

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        """Corners in counterclockwise order starting at the lower left."""
        return (
            complex(self.x_lo, self.y_lo),
            complex(self.x_hi, self.y_lo),
            complex(self.x_hi, self.y_hi),
            complex(self.x_lo, self.y_hi),
        )

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (
            self.x_lo + margin <= z.real <= self.x_hi - margin
            and self.y_lo + margin <= z.imag <= self.y_hi - margin
        )

    def scaled(self, factor: float) -> "Rectangle":
        """Rectangle inflated about its center by the given factor."""
        c = self.center
        hw = 0.5 * self.width * factor
        hh = 0.5 * self.height * factor
        return Rectangle(c.real - hw, c.real + hw, c.imag - hh, c.imag + hh)


@dataclass(frozen=True)
class BarrierProblem:
    """A potential model with dissipative barrier i*gamma on [0, R] attached."""

    model: PotentialModel
    gamma: complex
    R: float

    def __post_init__(self):
        if self.gamma == 0:
            raise ValueError("barrier strength gamma must be nonzero")
        if self.R <= 0:
            raise ValueError("barrier width R must be positive")


# ---------------------------------------------------------------------------
# Model file schema (JSON)
# ---------------------------------------------------------------------------

def _expr_to_dict(expr: Expression) -> dict:
    if isinstance(expr, ConstExpr):
        v = complex(expr.value)
        return {"kind": "const", "params": {"re": v.real, "im": v.imag}}
    return {
        "kind": "sin",
        "params": {
            "amplitude": expr.amplitude,
            "frequency": expr.frequency,
            "phase": expr.phase,
        },
    }


def _expr_from_dict(d: dict) -> Expression:
    kind = d.get("kind")
    params = d.get("params", {})
    if kind == "const":
        return ConstExpr(complex(params.get("re", 0.0), params.get("im", 0.0)))
    if kind == "sin":
        return SinExpr(
            amplitude=float(params["amplitude"]),
            frequency=float(params["frequency"]),
            phase=float(params.get("phase", 0.0)),
        )
    raise ValueError(f"unknown expression kind: {kind!r}")


def model_to_dict(model: PotentialModel) -> dict:
    pieces = [
        {"x_lo": p.x_lo, "x_hi": p.x_hi, **_expr_to_dict(p.expr)} for p in model.pieces
    ]
    if isinstance(model.tail, PeriodicTail):
        tail = {
            "kind": "periodic",
            "period": model.tail.period,
            "X": model.tail.start,
            "expr": _expr_to_dict(model.tail.expr),
        }
    else:
        tail = {"kind": "zero"}
    eta = complex(model.eta)
    return {"pieces": pieces, "tail": tail, "eta": [eta.real, eta.imag]}


def model_from_dict(d: dict) -> PotentialModel:
    pieces = tuple(
        Piece(float(p["x_lo"]), float(p["x_hi"]), _expr_from_dict(p))
        for p in d.get("pieces", [])
    )
    td = d.get("tail", {"kind": "zero"})
    if td.get("kind") == "periodic":
        tail: Tail = PeriodicTail(
            period=float(td["period"]),
            start=float(td.get("X", 0.0)),
            expr=_expr_from_dict(td["expr"]),
        )
    elif td.get("kind") == "zero":
        tail = ZeroTail()
    else:
        raise ValueError(f"unknown tail kind: {td.get('kind')!r}")
    eta = d.get("eta", [0.0, 0.0])
    return PotentialModel(pieces=pieces, tail=tail, eta=complex(eta[0], eta[1]))


def load_model(path) -> PotentialModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: PotentialModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
