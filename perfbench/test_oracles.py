"""Tests of the benchmark's oracles; run with ``python3 -m pytest perfbench``."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

import oracles


def test_winding_count_polynomial():
    roots = [0.3 + 0.2j, -0.5 + 0.7j, 0.31 + 0.21j, 2.0 + 2.0j]
    f = lambda z: np.prod([z - r for r in roots], axis=0)
    assert oracles.winding_count(f, (-1.0, 1.0, 0.0, 1.0)) == 3
    assert oracles.winding_count(f, (1.5, 2.5, 1.5, 2.5)) == 1
    assert abs(oracles.newton(f, 0.29 + 0.19j) - roots[0]) < 1e-12


def test_stacked_limit_oracle_reproduces_known_roots():
    f = oracles.stacked_limit_secular
    assert oracles.winding_count(f, (0.05, 6.0, 1.05, 1.95)) == 2
    for z in (0.32251153580132 + 1.90785844318208j,
              1.34711180277728 + 1.57047346491850j):
        assert abs(oracles.newton(f, z + 1e-3) - z) < 1e-12


def _shot_wronskian(lam, R, gamma, bump_end, bump, sheet):
    """The barrier Wronskian by DOP853 through the constant stretches."""
    def rhs(x, y):
        q = (bump if x < bump_end else 0.0) + 1j * gamma
        return [y[1], (q - lam) * y[0]]

    y = np.array([0.0, 1.0], dtype=complex)
    for a, b in ((0.0, bump_end), (bump_end, R)):
        if b > a:
            y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-12,
                          atol=1e-14).y[:, -1]
    k = sheet * oracles.psqrt(lam)
    return 1j * k * y[0] - y[1]


@pytest.mark.parametrize("R,bump_end,bump", [(10.0, 0.0, 0.0), (12.0, 4.7, 1j)])
@pytest.mark.parametrize("sheet", [1, -1])
def test_barrier_closed_form_matches_shooting(R, bump_end, bump, sheet):
    for lam in (0.7 + 0.3j, 2.5 - 0.4j, 1.3 + 1.6j):
        want = _shot_wronskian(lam, R, 1.0, bump_end, bump, sheet)
        got = complex(oracles.barrier_characteristic(
            np.array([lam]), R, 1.0, bump_end=bump_end, bump=bump, sheet=sheet)[0])
        assert abs(got - want) <= 1e-8 * abs(want)


def test_barrier_closed_form_root_counts():
    free40 = lambda z: oracles.barrier_characteristic(z, 40.0)
    res10 = lambda z: oracles.barrier_characteristic(z, 10.0, sheet=-1)
    assert oracles.winding_count(free40, (0.1, 6.0, 0.05, 0.95)) == 17
    assert oracles.winding_count(res10, (8.5, 14.0, -0.8, -0.02)) == 3


def test_mathieu_band_ends_are_band_ends():
    ends = [e for m in range(3) for e in oracles.sin_band(m)]
    assert ends == sorted(ends)
    p1, p1p, p2, p2p = oracles.sin_monodromy(np.array(ends, dtype=complex))
    assert np.max(np.abs(np.abs(p1 + p2p) - 2.0)) < 1e-8
    assert np.max(np.abs(p1 * p2p - p1p * p2 - 1.0)) < 1e-10
    assert len(oracles.sin_bands_in(-1.0, 1.0)) == 2


def test_sin_barrier_characteristic_root():
    f = lambda z: oracles.sin_barrier_characteristic(z, 4.0 * math.pi)
    z = oracles.newton(f, -0.345 + 0.96j)
    assert abs(z - (-0.34501351764 + 0.96044427412j)) < 1e-10
    assert oracles.winding_count(f, (-0.37, -0.2, 0.5, 0.99), n=64) == 1


def test_sin_gap_dirichlet_point_is_not_a_limit_eigenvalue():
    # phi2(T) vanishes at z = -0.18339 in the gap, but the Dirichlet solution
    # there grows by |phi2'(T)| > 1 per period, so the half-line operator has
    # no eigenvalue; a truncation to [0, X] shows the state only when X is a
    # whole number of periods, where it sits at the far end.
    phi2 = lambda z: oracles.sin_monodromy(np.asarray(z))[2]
    z = oracles.newton(phi2, -0.18)
    assert abs(z - (-0.18339004866)) < 1e-9
    assert abs(oracles.sin_monodromy(np.array([z]))[3][0]) > 10.0
    found = []
    for X in (20 * math.pi, 20 * math.pi + 2.5):
        h = 0.01
        n = round(X / h) - 1
        d = 2.0 / h**2 + np.sin(h * np.arange(1, n + 1))
        found.append(eigh_tridiagonal(d, np.full(n - 1, -1.0 / h**2), select="v",
                                      select_range=(-0.34, 0.59), eigvals_only=True))
    assert len(found[0]) == 1 and len(found[1]) == 0


def test_free_laplacian_closed_form():
    n, h = 37, 0.1
    dense = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
             - np.diag(np.ones(n - 1), -1)) / h**2
    want = np.linalg.eigvalsh(dense)
    assert np.allclose(oracles.free_laplacian_eigenvalues(n, h), want, rtol=0, atol=1e-10)


def test_run_refuses_without_a_checkout(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "barrier_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
