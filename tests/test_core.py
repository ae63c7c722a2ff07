import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    ZeroTail,
    eval_potential,
    load_model,
    model_from_dict,
    model_to_dict,
    principal_sqrt,
    save_model,
    sheeted_sqrt,
)


def test_principal_sqrt_examples():
    assert principal_sqrt(-1) == 1j
    assert abs(principal_sqrt(2j) - (1 + 1j)) < 1e-15
    assert principal_sqrt(4) == 2.0


def test_sheeted_sqrt_examples():
    assert sheeted_sqrt(4, Sheet.SECOND) == -2.0
    assert sheeted_sqrt(-1, Sheet.SECOND) == -1j
    assert abs(sheeted_sqrt(2j, Sheet.PRINCIPAL) - (1 + 1j)) < 1e-15


def test_sqrt_branch_properties():
    rng = np.random.default_rng(42)
    z = rng.uniform(-10, 10, 10_000) + 1j * rng.uniform(-10, 10, 10_000)
    w = principal_sqrt(z)
    assert np.max(np.abs(w * w - z) / np.abs(z)) < 1e-14
    assert np.min(w.imag) >= 0.0
    w2 = sheeted_sqrt(z, Sheet.SECOND)
    assert np.max(w2.imag) <= 0.0


def test_sqrt_cut_sides():
    # upper edge of the cut is the continuous side
    assert abs(principal_sqrt(4 + 1e-15j) - 2.0) < 1e-15
    assert abs(principal_sqrt(4 - 1e-15j) + 2.0) < 1e-14


def test_eval_potential_pieces():
    m = PotentialModel(pieces=(Piece(0.0, 2.0, ConstExpr(1j)),))
    assert eval_potential(m, 1.0) == 1j
    assert eval_potential(m, 2.5) == 0.0  # beyond the pieces: zero tail


def test_eval_potential_periodic():
    m = PotentialModel(
        tail=PeriodicTail(period=2 * math.pi, start=0.0, expr=SinExpr(1.0, 1.0))
    )
    assert abs(eval_potential(m, math.pi / 2) - 1.0) < 1e-15
    assert abs(eval_potential(m, math.pi / 2 + 2 * math.pi) - 1.0) < 1e-15


def test_eval_potential_exact_periodicity():
    # the reduction to the fundamental cell adds no error of its own: on
    # points where the shift x -> x + a is exact in floating point, the
    # values agree exactly
    m = PotentialModel(
        tail=PeriodicTail(period=2.0, start=1.0, expr=SinExpr(1.0, 3.0, 0.2))
    )
    for k in range(1, 160):
        x = 1.0 + k / 8.0
        assert eval_potential(m, x) == eval_potential(m, x + 2.0)
        assert eval_potential(m, x) == eval_potential(m, x + 8.0)


def test_eval_potential_domain_error():
    with pytest.raises(DomainError):
        eval_potential(PotentialModel(), -0.5)
    with pytest.raises(DomainError):
        eval_potential(PotentialModel(), np.array([0.5, -0.5]))


@pytest.mark.parametrize("name", ["free", "stacked", "sin"])
def test_eval_potential_array_is_the_pointwise_rule(request, name):
    # the interior grid of the fd truncation [0, 120] at h = 0.05: one call
    # on the whole grid gives, bit for bit, the value of each point alone
    model = request.getfixturevalue(f"{name}_model")
    x = 0.05 * np.arange(1, 2400)
    got = eval_potential(model, x)
    assert got.dtype == complex and got.shape == x.shape
    want = [eval_potential(model, float(v)) for v in x]
    assert all(type(v) is complex for v in want)
    assert np.array_equal(got, want)


def test_model_validation():
    with pytest.raises(ValueError):
        PotentialModel(pieces=(Piece(1.0, 2.0, ConstExpr(0.0)),))  # gap at 0
    with pytest.raises(ValueError):
        PotentialModel(pieces=(
            Piece(0.0, 1.0, ConstExpr(0.0)), Piece(2.0, 3.0, ConstExpr(0.0)),
        ))
    with pytest.raises(ValueError):
        PeriodicTail(period=1.0, start=0.0, expr=ConstExpr(1j))  # complex tail
    with pytest.raises(ValueError):
        PotentialModel(
            pieces=(Piece(0.0, 2.0, ConstExpr(0.0)),),
            tail=PeriodicTail(period=1.0, start=1.0, expr=ConstExpr(0.0)),
        )  # tail starts inside the pieces


def test_barrier_problem_validation():
    # an infinite gamma or R overflowed the propagator, and an infinite R on
    # a periodic tail walked cells without end; NaN passed checks of <= 0
    model = PotentialModel()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            BarrierProblem(model, bad, 10.0)
        with pytest.raises(ValueError, match="R must be positive and finite"):
            BarrierProblem(model, 1.0, bad)
    assert BarrierProblem(model, 2, 10.0).gamma == 2.0


def test_rectangle_helpers():
    r = Rectangle(-1.0, 1.0, 0.0, 2.0)
    assert r.center == 1j
    assert r.contains(0.5 + 0.5j)
    assert not r.contains(1.5)
    assert r.scaled(2.0).contains(1.5 + 0.1j)
    with pytest.raises(ValueError):
        Rectangle(1.0, 1.0, 0.0, 2.0)


def test_model_json_round_trip(tmp_path):
    m = PotentialModel(
        pieces=(Piece(0.0, 4.7, ConstExpr(1j)),),
        tail=PeriodicTail(period=2.0, start=4.7, expr=SinExpr(0.5, 3.0, 0.25)),
        eta=0.3 + 0.1j,
    )
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    assert back == m
    # schema fields as documented
    raw = json.loads(path.read_text())
    assert set(raw) == {"pieces", "tail", "eta"}
    assert raw["pieces"][0]["kind"] == "const"
    assert raw["tail"]["kind"] == "periodic"
    assert raw["eta"] == [0.3, 0.1]


_REAL = st.floats(-1e3, 1e3)
_SIN = st.builds(SinExpr, _REAL, _REAL, _REAL)
_EXPR = st.builds(ConstExpr, st.complex_numbers(max_magnitude=1e3)) | _SIN
_REAL_EXPR = st.builds(ConstExpr, _REAL) | _SIN


@st.composite
def _models(draw):
    pieces, x = [], 0.0
    for expr, width in draw(st.lists(st.tuples(_EXPR, st.floats(1e-3, 10.0)),
                                     max_size=4)):
        pieces.append(Piece(x, x + width, expr))
        x += width
    tail = draw(st.just(ZeroTail()) | st.builds(
        PeriodicTail, period=st.floats(1e-2, 10.0),
        start=st.floats(0.0, 10.0).map(lambda gap: x + gap), expr=_REAL_EXPR))
    eta = draw(st.complex_numbers(max_magnitude=10.0))
    return PotentialModel(pieces=tuple(pieces), tail=tail, eta=eta)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_models())
def test_model_dict_round_trip_through_json(m):
    assert model_from_dict(json.loads(json.dumps(model_to_dict(m)))) == m


def test_model_from_dict_rejects_unknown():
    with pytest.raises(ValueError):
        model_from_dict({"pieces": [], "tail": {"kind": "sticky"}, "eta": [0, 0]})
    with pytest.raises(ValueError):
        model_from_dict({
            "pieces": [{"x_lo": 0, "x_hi": 1, "kind": "cubic", "params": {}}],
            "tail": {"kind": "zero"},
            "eta": [0, 0],
        })
    # malformed files raise ValueError naming the field, not KeyError,
    # AttributeError or TypeError
    sin = {"kind": "sin", "params": {"amplitude": 1, "frequency": 1}}
    for bad, field in [
        ({"tail": {"kind": "periodic"}}, "tail.period"),
        ({"tail": {"kind": "periodic", "period": 1}}, "tail.expr"),
        ({"pieces": [{"x_lo": 0, **sin}]}, "pieces[0].x_hi"),
        ({"pieces": [{"x_lo": 0, "x_hi": 1, "kind": "sin", "params": {}}]},
         "pieces[0].params.amplitude"),
        ({"pieces": [{"x_lo": "a", "x_hi": 1, **sin}]}, "pieces[0].x_lo"),
        ({"pieces": [1]}, "pieces[0]"),
        ({"pieces": {"x_lo": 0}}, "pieces"),
        ({"tail": 5}, "tail"),
        ([1, 2], "JSON object"),
        ({"eta": 5}, "eta"),
        ({"eta": [0, "a"]}, "eta[1]"),
    ]:
        with pytest.raises(ValueError, match=re.escape(field)):
            model_from_dict(bad)
