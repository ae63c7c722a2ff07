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
    w = np.sqrt(np.asarray(z, dtype=complex))
    # np.sqrt cuts along (-inf, 0] with Re >= 0; negating the lower
    # half-plane values moves the cut to [0, inf) with Im >= 0.
    if w.ndim == 0:
        return complex(-w if w.imag < 0 else w)
    np.negative(w, out=w, where=w.imag < 0)
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


def eval_potential(model: PotentialModel, x):
    """Value of q at x >= 0, reducing periodic-tail coordinates mod the period.

    x is a scalar, which gives a complex scalar, or an array, which gives a
    complex array of its shape; each piece and the tail are evaluated once,
    on the points they cover.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise DomainError(f"potential is defined on [0, inf); got x={x}")
    q = np.zeros(xs.shape, dtype=complex)
    rest = np.ones(xs.shape, dtype=bool)
    for p in model.pieces:
        on = rest & (p.x_lo <= xs) & (xs < p.x_hi)
        q[on] = p.expr(xs[on])
        rest &= ~on
    if isinstance(model.tail, PeriodicTail):
        t = model.tail
        on = rest & (xs >= t.start)
        q[on] = t.expr(t.start + np.fmod(xs[on] - t.start, t.period))
    return complex(q) if _is_scalar(x) else q


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
    """A potential model with dissipative barrier i*gamma on [0, R].

    gamma and R must be positive and finite, or ValueError is raised.
    """

    model: PotentialModel
    gamma: float
    R: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"barrier strength gamma must be positive and finite, "
                             f"got {self.gamma}")
        if not 0 < self.R < math.inf:
            raise ValueError(f"barrier width R must be positive and finite, got {self.R}")


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


def _obj(d, where: str) -> dict:
    """d, which the model file must hold as a JSON object at where."""
    if not isinstance(d, dict):
        raise ValueError(f"model field {where} must be an object, got {d!r}")
    return d


def _number(v, where: str) -> float:
    """v, which the model file must hold as a number at where."""
    if v is None:
        raise ValueError(f"model field {where} is missing")
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ValueError(f"model field {where} must be a number, got {v!r}") from None


def _field(d: dict, key: str, where: str, default=None) -> float:
    return _number(d.get(key, default), f"{where}.{key}")


def _expr_from_dict(d, where: str) -> Expression:
    d = _obj(d, where)
    kind = d.get("kind")
    params = _obj(d.get("params", {}), f"{where}.params")
    if kind == "const":
        return ConstExpr(complex(_field(params, "re", f"{where}.params", 0.0),
                                 _field(params, "im", f"{where}.params", 0.0)))
    if kind == "sin":
        return SinExpr(
            amplitude=_field(params, "amplitude", f"{where}.params"),
            frequency=_field(params, "frequency", f"{where}.params"),
            phase=_field(params, "phase", f"{where}.params", 0.0),
        )
    raise ValueError(f"unknown expression kind at {where}: {kind!r}")


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
    """The model a model file holds; ValueError names a missing or
    malformed field."""
    if not isinstance(d, dict):
        raise ValueError(f"a model must be a JSON object, got {d!r}")
    raw = d.get("pieces", [])
    if not isinstance(raw, list):
        raise ValueError(f"model field pieces must be a list, got {raw!r}")
    pieces = []
    for i, p in enumerate(raw):
        where = f"pieces[{i}]"
        p = _obj(p, where)
        pieces.append(Piece(_field(p, "x_lo", where), _field(p, "x_hi", where),
                            _expr_from_dict(p, where)))
    td = _obj(d.get("tail", {"kind": "zero"}), "tail")
    if td.get("kind") == "periodic":
        tail: Tail = PeriodicTail(
            period=_field(td, "period", "tail"),
            start=_field(td, "X", "tail", 0.0),
            expr=_expr_from_dict(td.get("expr"), "tail.expr"),
        )
    elif td.get("kind") == "zero":
        tail = ZeroTail()
    else:
        raise ValueError(f"unknown tail kind: {td.get('kind')!r}")
    eta = d.get("eta", [0.0, 0.0])
    if not (isinstance(eta, list) and len(eta) == 2):
        raise ValueError(f"model field eta must be [re, im], got {eta!r}")
    return PotentialModel(pieces=tuple(pieces), tail=tail,
                          eta=complex(_number(eta[0], "eta[0]"), _number(eta[1], "eta[1]")))


def load_model(path) -> PotentialModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: PotentialModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
