import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specbar
from specbar.cli import _build_parser, run
from specbar.core import (
    ConstExpr,
    PeriodicTail,
    Piece,
    PotentialModel,
    SinExpr,
    save_model,
)
from specbar.fdtrunc import eigenvalues_dense


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    save_model(PotentialModel(), d / "free.json")
    save_model(PotentialModel(pieces=(Piece(0.0, 4.7, ConstExpr(1j)),)),
               d / "stacked.json")
    save_model(
        PotentialModel(tail=PeriodicTail(period=2 * math.pi, start=0.0,
                                         expr=SinExpr(1.0, 1.0))),
        d / "sin.json",
    )
    return d


def test_spectrum_verb(model_paths, tmp_path):
    out = tmp_path / "eigs.csv"
    code = run([
        "spectrum", "--model", str(model_paths / "free.json"),
        "--gamma", "0,1", "--R", "40", "--rect", "0.1,6,0.05,0.95",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,multiplicity,residual,R,sheet"
    assert len(lines) - 1 >= 5


def test_csv_determinism(model_paths, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--model", str(model_paths / "free.json"),
            "--gamma", "0,1", "--R", "10", "--rect", "0.1,5,0.05,0.95"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bands_verb(model_paths, tmp_path):
    out = tmp_path / "bands.csv"
    code = run([
        "bands", "--model", str(model_paths / "sin.json"),
        "--range", "-1,0", "--out", str(out),
    ])
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header == "band_index,z_left,z_right"
    _, lo, hi = row.split(",")
    assert abs(float(lo) - (-0.3785)) < 1e-3
    assert abs(float(hi) - (-0.3477)) < 1e-3


def test_converge_verb(model_paths, tmp_path):
    out = tmp_path / "conv.json"
    csv_out = tmp_path / "conv.csv"
    code = run([
        "converge", "--model", str(model_paths / "stacked.json"),
        "--mode", "eigenvalue", "--R", "10:5:40",
        "--out", str(out), "--csv", str(csv_out),
    ])
    assert code == 0
    summary = json.loads(out.read_text())
    assert set(summary) == {"kind", "rate", "prefactor", "r2"}
    assert summary["kind"] == "exponential"
    assert summary["rate"] > 0
    rows = csv_out.read_text().splitlines()
    assert rows[0] == "R,re_matched,im_matched,error"
    assert len(rows) == 8


def test_resonances_verb(model_paths, tmp_path):
    out = tmp_path / "res.csv"
    code = run([
        "resonances", "--model", str(model_paths / "free.json"),
        "--gamma", "0,1", "--R", "10", "--rect", "8.5,14,-0.8,-0.02",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) - 1 >= 1
    assert all(line.endswith("second") for line in lines[1:])


def test_limit_verb(model_paths, tmp_path):
    out = tmp_path / "limit.csv"
    code = run([
        "limit", "--model", str(model_paths / "stacked.json"),
        "--gamma", "0,1", "--rect", "0.05,6,1.05,1.95", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) - 1 == 2


def test_sp_verb_zero_tail(model_paths, tmp_path):
    out = tmp_path / "sp.csv"
    code = run([
        "sp", "--model", str(model_paths / "stacked.json"),
        "--gamma", "0,1", "--rect", "-4,4,0.05,0.95", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1  # header only: empty set


def test_fd_verb_quick(model_paths, tmp_path):
    out = tmp_path / "fd.csv"
    code = run([
        "fd", "--model", str(model_paths / "free.json"), "--gamma", "0,1",
        "--R", "2", "--x-offset", "6", "--h", "0.25", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,X,h,re_lambda,im_lambda,class"
    assert len(lines) - 1 == 31  # n = round(8/0.25) - 1


def test_fd_defaults_fit_the_solver_cap():
    # the fd verb's default offset and step must admit R = 120 (n = 8399)
    args = _build_parser().parse_args(["fd", "--model", "m", "--R", "120",
                                       "--out", "o"])
    cap = inspect.signature(eigenvalues_dense).parameters["cap"].default
    assert round((max(args.R) + args.x_offset) / args.h) - 1 <= cap


def test_enclose_verb(model_paths, tmp_path):
    out = tmp_path / "enc.json"
    code = run([
        "enclose", "--model", str(model_paths / "free.json"),
        "--gamma", "0,1", "--lambda", "0.5,0.5", "--out", str(out),
    ])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["gamma_a"] is True
    assert verdict["gamma_b"] is True
    assert verdict["we_strip"] is True


def test_enclose_rejects_a_non_dissipative_coupling(model_paths, tmp_path, capsys):
    # --gamma is the complex coupling re,im for every verb: 1.0 is the
    # coupling 1 + 0i, i.e. gamma = -i, which is no dissipative barrier
    out = tmp_path / "enc.json"
    code = run([
        "enclose", "--model", str(model_paths / "free.json"),
        "--gamma", "1.0", "--lambda", "0.5,0.5", "--out", str(out),
    ])
    assert code == 1
    assert "dissipative barrier" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_on_usage_error(model_paths):
    assert run(["spectrum", "--model"]) == 2
    assert run([]) == 2


def test_exit_code_on_computation_error(model_paths, tmp_path):
    # rectangle overlapping the essential-spectrum ray: domain error
    code = run([
        "spectrum", "--model", str(model_paths / "free.json"),
        "--gamma", "0,1", "--R", "10", "--rect", "0.1,5,-0.5,0.5",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_exit_code_on_missing_model(tmp_path):
    code = run([
        "spectrum", "--model", str(tmp_path / "nope.json"),
        "--gamma", "0,1", "--R", "10", "--rect", "0.1,5,0.05,0.95",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_figure_preset_fig1(tmp_path):
    code = run(["figure", "--preset", "fig1", "--out-dir", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "fig1.csv"
    svg_path = tmp_path / "fig1.svg"
    assert csv_path.exists() and svg_path.exists()
    assert len(csv_path.read_text().splitlines()) > 10
    text = svg_path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize("module", ["specbar", "specbar.cli"])
def test_python_m_help(module):
    src = str(Path(specbar.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
