import csv
import json
import math
import os
import signal
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
from specbar import fdtrunc


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
        "--gamma", "1", "--R", "40", "--rect", "0.1,6,0.05,0.95",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,multiplicity,residual,R,sheet"
    assert len(lines) - 1 >= 5


def test_csv_determinism(model_paths, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["spectrum", "--model", str(model_paths / "free.json"),
            "--gamma", "1", "--R", "10", "--rect", "0.1,5,0.05,0.95"]
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
        "--gamma", "1", "--R", "10", "--rect", "8.5,14,-0.8,-0.02",
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
        "--gamma", "1", "--rect", "0.05,6,1.05,1.95", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) - 1 == 2


def test_sp_verb_zero_tail(model_paths, tmp_path):
    out = tmp_path / "sp.csv"
    code = run([
        "sp", "--model", str(model_paths / "stacked.json"),
        "--gamma", "1", "--rect", "-4,4,0.05,0.95", "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1  # header only: empty set


def test_fd_verb_quick(model_paths, tmp_path):
    out = tmp_path / "fd.csv"
    code = run([
        "fd", "--model", str(model_paths / "free.json"), "--gamma", "1",
        "--R", "2", "--x-offset", "6", "--h", "0.25", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "R,X,h,re_lambda,im_lambda,class"
    assert len(lines) - 1 == 31  # n = round(8/0.25) - 1


def test_fd_classifies_against_the_bands_over_its_whole_spectrum(model_paths,
                                                                  tmp_path):
    # fd reads the bands up past its largest Re lambda, so eigenvalues over
    # the bands above 1 are pollution or essential, not discrete
    out = tmp_path / "fd.csv"
    base = ["fd", "--model", str(model_paths / "sin.json"), "--gamma", "0.25",
            "--R", "10", "--x-offset", "30", "--h", "0.1", "--out", str(out)]
    assert run(base) == 0
    with open(out, newline="") as fh:
        high = [row["class"] for row in csv.DictReader(fh)
                if float(row["re_lambda"]) > 1.0]
    assert "pollution" in high and "essential" in high
    # the range is no longer an option
    assert run(base + ["--band-range", "-1,1"]) == 2


def test_fd_defaults_fit_the_solver_cap():
    # the fd verb's default offset and step must admit R = 120 (n = 8399)
    args = _build_parser().parse_args(["fd", "--model", "m", "--R", "120",
                                       "--out", "o"])
    assert round((max(args.R) + args.x_offset) / args.h) - 1 <= fdtrunc._MAX_N


def test_enclose_verb(model_paths, tmp_path):
    out = tmp_path / "enc.json"
    for model, extra, want in (
            ("free.json", ["--lambda", "0.5,0.5"], (True, True, True)),
            # 0.1 lies in the gap above the first band of the sin tail
            ("sin.json", ["--lambda", "0.1,0.5", "--ode-step", "1e-2"],
             (True, False, True)),
            ("sin.json", ["--lambda", "-0.35,0.5", "--ode-step", "1e-2"],
             (True, True, True)),
            # 6.27089 lies in the gap (6.270837, 6.270944), narrower than
            # 1e-4, which the bands up to Re lambda + gamma must show
            ("sin.json", ["--lambda", "6.27089,0.5"], (True, False, True))):
        code = run(["enclose", "--model", str(model_paths / model),
                    "--gamma", "1", "--out", str(out)] + extra)
        assert code == 0
        verdict = json.loads(out.read_text())
        assert (verdict["gamma_a"], verdict["gamma_b"], verdict["we_strip"]) == want


def test_enclose_rejects_a_non_dissipative_coupling(model_paths, tmp_path, capsys):
    # --gamma is the real barrier strength gamma > 0: the old complex
    # coupling form 0,1 and a gamma <= 0 are usage errors
    out = tmp_path / "enc.json"
    for gamma in ("0,1", "0", "-1"):
        code = run([
            "enclose", "--model", str(model_paths / "free.json"),
            "--gamma", gamma, "--lambda", "0.5,0.5", "--out", str(out),
        ])
        assert code == 2
        assert "--gamma" in capsys.readouterr().err
    assert not out.exists()


def test_enclose_finds_its_own_band_range(model_paths, tmp_path):
    # the bands run from the tail potential's minimum -1 to Re lambda + gamma,
    # so a point right of any fixed range gets a verdict, and a point below
    # every band lies outside all three sets
    out = tmp_path / "enc.json"
    base = ["enclose", "--model", str(model_paths / "sin.json"), "--gamma", "1",
            "--out", str(out)]
    for lam, want in (("12,0.5", True), ("-5,0.5", False)):
        assert run(base + ["--lambda", lam]) == 0
        verdict = json.loads(out.read_text())
        assert [verdict["gamma_a"], verdict["gamma_b"], verdict["we_strip"]] == [want] * 3
    # the range is no longer an option
    assert run(base + ["--lambda", "0.1,0.5", "--band-range", "-2,10"]) == 2


def test_exit_code_on_usage_error(model_paths):
    assert run(["spectrum", "--model"]) == 2
    assert run([]) == 2
    # band ends are polished to rounding: bands has no --tol
    assert run(["bands", "--model", str(model_paths / "sin.json"),
                "--range", "-1,0", "--tol", "1e-10", "--out", "x.csv"]) == 2


def test_exit_code_on_computation_error(model_paths, tmp_path):
    # rectangle overlapping the essential-spectrum ray: domain error
    code = run([
        "spectrum", "--model", str(model_paths / "free.json"),
        "--gamma", "1", "--R", "10", "--rect", "0.1,5,-0.5,0.5",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    # a step of 0 or below, or NaN, is refused with exit 1, not a traceback
    sin = str(model_paths / "sin.json")
    for argv in (
        ["bands", "--model", sin, "--range", "-1,3", "--ode-step", "0"],
        ["bands", "--model", sin, "--range", "-1,3", "--ode-step", "nan"],
        ["limit", "--model", sin, "--gamma", "1", "--rect", "0.05,0.55,0.3,1.2",
         "--ode-step", "0"],
        ["enclose", "--model", sin, "--gamma", "1", "--lambda", "0.1,0.5",
         "--ode-step", "0"],
        ["sp", "--model", sin, "--gamma", "1", "--rect", "-0.3,-0.05,0.9,1.1",
         "--ode-step", "-1"],
        *(["fd", "--model", sin, "--gamma", "0.25", "--R", "20", "--x-offset", "100",
           "--h", h] for h in ("0", "-0.05", "nan")),
        # a band tolerance that is not positive and finite, before any solve
        *(["fd", "--model", sin, "--gamma", "0.25", "--R", "20", "--x-offset", "100",
           "--tol-band", tol] for tol in ("nan", "inf", "0")),
    ):
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 1, argv
    # so is a standoff that is not positive and finite: NaN passed a check
    # of standoff <= 0 and searched across the excluded ray
    free, stacked = str(model_paths / "free.json"), str(model_paths / "stacked.json")
    for argv in (
        *(["spectrum", "--model", free, "--gamma", "1", "--R", "10",
           "--rect", "0.1,5,-0.5,0.5", "--standoff", s] for s in ("nan", "inf", "0")),
        *(["sp", "--model", stacked, "--rect", "-4,4,-0.2,0.95", "--standoff", s]
          for s in ("-1", "nan", "inf")),
        *(["limit", "--model", stacked, "--rect", "0.05,6,-0.5,1.95", "--standoff", s]
          for s in ("-1", "nan")),
    ):
        assert run([*argv, "--out", str(tmp_path / "x.out")]) == 1, argv
    # so is a malformed model file
    bad = tmp_path / "bad.json"
    bad.write_text('{"tail": {"kind": "periodic"}}')
    assert run(["limit", "--model", str(bad), "--rect", "0.05,6,1.05,1.95",
                "--out", str(tmp_path / "x.csv")]) == 1


def test_exit_code_on_missing_model(tmp_path):
    code = run([
        "spectrum", "--model", str(tmp_path / "nope.json"),
        "--gamma", "1", "--R", "10", "--rect", "0.1,5,0.05,0.95",
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


def _python(*args):
    """Run a fresh interpreter that imports specbar from this source tree."""
    src = str(Path(specbar.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("grid", ["10:5:inf", "nan:5:40", "10:inf:40",
                                  "10:1e-300:40", "10:1e-9:40", "1e20:1:1e20"])
def test_grid_that_never_ends_is_a_usage_error(grid, model_paths, tmp_path, capsys):
    # an infinite stop or step, or a step below the float spacing of the
    # running width, never reached stop, and a tiny step that advances asks
    # for 3e10 widths: the parser looped, its list growing, so an alarm ends
    # the test if parsing has not returned within 2 s; a NaN start gave no
    # widths at all
    def hung(*_):
        raise TimeoutError(f"--R {grid} still parsing after 2 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(2)
    try:
        code = run(["converge", "--model", str(model_paths / "free.json"),
                    "--mode", "eigenvalue", "--R", grid,
                    "--out", str(tmp_path / "x.json")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert "--R" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["specbar", "specbar.cli"])
def test_python_m_help(module):
    proc = _python("-m", module, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_cli_import_leaves_scipy_linalg_unloaded():
    # only the truncation solver needs scipy.linalg, and it imports it when
    # it runs, so no verb pays for it at start-up
    code = "import sys, specbar, specbar.cli; print('scipy.linalg' in sys.modules)"
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
