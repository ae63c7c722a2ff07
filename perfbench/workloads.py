"""The benchmark's three workloads: inputs, operations and output checks.

A workload is built once per process (set-up), then runs its operations in
whole rounds.  Each operation is one call into a specbar verb through the
package's public names, looked up at call time so that a traced run sees
its patched attributes.  ``check`` compares the first round's outputs with
the oracles in ``oracles.py``; later rounds must reproduce the first.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

GAMMA = 1.0
ODE_STEP = 1e-2          # 1e-3 makes the periodic searches ~10x slower; roots move by ~3e-11
ROOT_TOL = 1e-9          # relative distance between a specbar root and the oracle's


def _rect(sb, r):
    return sb.Rectangle(*r)


def _confirm_all(f, roots, tol, what):
    out = []
    for z in roots:
        ok, z_ref = oracles.confirm_root(f, z, tol)
        if not ok:
            out.append(f"{what}: root {z} is not a zero of the oracle "
                       f"(Newton ends at {z_ref})")
    return out


def _same_roots(a, b, tol=1e-10):
    la, lb = np.array(a.locations), np.array(b.locations)
    return la.shape == lb.shape and bool(np.all(np.abs(la - lb) <= tol * (1 + np.abs(la))))


class BarrierSweep:
    """Integrable backgrounds: the contour root finder does nearly all the work."""

    name = "barrier_sweep"
    LIMIT_RECT = (0.05, 6.0, 1.05, 1.95)
    SWEEP_RECT = (0.8, 1.9, 1.2, 1.9)
    SWEEP_R = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    TARGET = 1.34711180277728 + 1.57047346491850j   # second stacked limit eigenvalue
    FREE_RECT = (0.1, 6.0, 0.05, 0.95)
    FREE_R = 40.0
    RES_RECT = (8.5, 14.0, -0.8, -0.02)
    RES_R = 10.0
    KNOWN_FAULTS: dict[str, str] = {}

    def __init__(self, sb, root: Path, rng, out_dir: Path):
        self.sb = sb
        models = root / "models"
        self.stacked_path = models / "stacked_barrier.json"
        self.free = sb.load_model(models / "free.json")
        self.stacked = sb.load_model(self.stacked_path)
        self.ctx_free = sb.CharacteristicContext(
            sb.BarrierProblem(self.free, GAMMA, self.FREE_R))
        self.ctx_res = sb.CharacteristicContext(
            sb.BarrierProblem(self.free, GAMMA, self.RES_R), sheet=sb.Sheet.SECOND)
        self.conv_json = out_dir / "converge.json"
        self.conv_csv = out_dir / "converge.csv"
        t = self.TARGET
        self.converge_argv = [
            "converge", "--model", str(self.stacked_path), "--mode", "eigenvalue",
            "--R", "10:5:40", "--target", f"{t.real!r},{t.imag!r}",
            "--rect", ",".join(repr(v) for v in self.SWEEP_RECT),
            "--skip-initial", "0", "--out", str(self.conv_json),
            "--csv", str(self.conv_csv),
        ]

    def ops(self):
        sb = self.sb
        return [
            ("limit_eigenvalues", lambda res: sb.limit_eigenvalues(
                self.stacked, GAMMA, _rect(sb, self.LIMIT_RECT))),
            ("converge", lambda res: sb.cli.run(self.converge_argv)),
            ("eigenvalues", lambda res: sb.eigenvalues(
                self.ctx_free, _rect(sb, self.FREE_RECT))),
            ("resonances", lambda res: sb.resonances(
                self.ctx_res, _rect(sb, self.RES_RECT))),
        ]

    def same(self, a, b):
        return (a["converge"] == b["converge"] and all(
            _same_roots(a[k], b[k]) for k in ("limit_eigenvalues", "eigenvalues", "resonances")))

    def check(self, res, rng):
        bad: dict[str, list[str]] = {}

        lim = res["limit_eigenvalues"]
        f = oracles.stacked_limit_secular
        msgs = _confirm_all(f, lim.locations, ROOT_TOL, "stacked limit")
        n_ref = oracles.winding_count(f, self.LIMIT_RECT)
        if lim.total_count != n_ref:
            msgs.append(f"stacked limit: {lim.total_count} roots, oracle counts {n_ref}")
        bad["limit_eigenvalues"] = msgs

        msgs = []
        if res["converge"] != 0:
            msgs.append(f"converge exited {res['converge']}")
        else:
            with open(self.conv_json, encoding="utf-8") as fh:
                fit = json.load(fh)
            with open(self.conv_csv, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if [float(r["R"]) for r in rows] != self.SWEEP_R:
                msgs.append(f"converge: widths {[r['R'] for r in rows]}")
            errors = [float(r["error"]) for r in rows]
            if not all(e1 < e0 for e0, e1 in zip(errors, errors[1:])):
                msgs.append(f"converge: errors do not fall strictly with R: {errors}")
            if not (fit["rate"] > 0 and fit["r2"] > 0.98):
                msgs.append(f"converge: fit rate {fit['rate']}, r2 {fit['r2']}")
            for r, err in zip(rows, errors):
                R = float(r["R"])
                z = complex(float(r["re_matched"]), float(r["im_matched"]))
                if abs(abs(z - self.TARGET) - err) > 1e-12:
                    msgs.append(f"converge: R={R} error {err} is not |matched - target|")
                msgs += _confirm_all(
                    lambda lam, R=R: oracles.barrier_characteristic(
                        lam, R, GAMMA, bump_end=4.7, bump=1j),
                    [z], ROOT_TOL, f"stacked R={R}")
        bad["converge"] = msgs

        eig = res["eigenvalues"]
        f = lambda lam: oracles.barrier_characteristic(lam, self.FREE_R, GAMMA)
        msgs = _confirm_all(f, eig.locations, ROOT_TOL, "free R=40")
        n_ref = oracles.winding_count(f, self.FREE_RECT)
        if eig.total_count != n_ref or n_ref != 17:
            msgs.append(f"free R=40: {eig.total_count} roots, oracle counts {n_ref}, expected 17")
        msgs += [f"free R=40: eigenvalue {z} outside 0 < Im < gamma"
                 for z in eig.locations if not 0.0 < z.imag < GAMMA]
        bad["eigenvalues"] = msgs

        rs = res["resonances"]
        f = lambda lam: oracles.barrier_characteristic(lam, self.RES_R, GAMMA, sheet=-1)
        msgs = _confirm_all(f, rs.locations, ROOT_TOL, "free resonances R=10")
        n_ref = oracles.winding_count(f, self.RES_RECT)
        if rs.total_count != n_ref or n_ref != 3:
            msgs.append(f"resonances: {rs.total_count} roots, oracle counts {n_ref}, expected 3")
        bad["resonances"] = msgs
        return bad


class PeriodicGap:
    """Sin tail: each contour point costs RK4 propagation through the tail."""

    name = "periodic_gap"
    BAND_RANGE = (-1.0, 1.0)
    N_POINTS = 1000
    POINT_BOX = (-1.0, 1.0, 0.01, 1.0)        # re_lo, re_hi, im_lo, im_hi
    N_CHECK = 8
    EIG_R = 4.0 * math.pi
    EIG_RECT = (-0.37, -0.2, 0.5, 0.99)
    LIMIT_RECT = (-0.3, 0.55, 0.8, 1.2)
    KNOWN_FAULTS = {
        "limit_eigenvalues":
            "the reported gap eigenvalue is a zero of the Floquet eigenvector "
            "(-phi2, phi1 - rho), not of a decaying Dirichlet solution",
    }

    def __init__(self, sb, root: Path, rng, out_dir: Path):
        self.sb = sb
        self.sin = sb.load_model(root / "models" / "sin_tail.json")
        re_lo, re_hi, im_lo, im_hi = self.POINT_BOX
        self.points = rng.uniform(re_lo, re_hi, self.N_POINTS) + 1j * rng.uniform(
            im_lo, im_hi, self.N_POINTS)
        self.ctx = sb.CharacteristicContext(
            sb.BarrierProblem(self.sin, GAMMA, self.EIG_R), ode_step=ODE_STEP)

    def ops(self):
        sb = self.sb
        return [
            ("bands", lambda res: sb.bands(self.sin, *self.BAND_RANGE, ode_step=ODE_STEP)),
            ("floquet_data", lambda res: sb.floquet_data(
                self.sin, self.points, ode_step=ODE_STEP)),
            ("eigenvalues", lambda res: sb.eigenvalues(self.ctx, _rect(sb, self.EIG_RECT))),
            ("limit_eigenvalues", lambda res: sb.limit_eigenvalues(
                self.sin, GAMMA, _rect(sb, self.LIMIT_RECT), ode_step=ODE_STEP)),
        ]

    def same(self, a, b):
        return (a["bands"].bands == b["bands"].bands
                and np.allclose(a["floquet_data"].D, b["floquet_data"].D, rtol=1e-12, atol=0)
                and _same_roots(a["eigenvalues"], b["eigenvalues"])
                and _same_roots(a["limit_eigenvalues"], b["limit_eigenvalues"]))

    def check(self, res, rng):
        sb = self.sb
        bad: dict[str, list[str]] = {}

        got = res["bands"].bands
        ref = oracles.sin_bands_in(*self.BAND_RANGE)
        msgs = []
        if len(got) != len(ref) or any(
                abs(g - r) > 1e-7 for gb, rb in zip(got, ref) for g, r in zip(gb, rb)):
            msgs.append(f"bands {got} differ from the Mathieu bands {ref}")
        bad["bands"] = msgs

        fd = res["floquet_data"]
        msgs = []
        rp, rm, D = fd.rho_plus, fd.rho_minus, fd.D
        if np.max(np.abs(rp * rm - 1.0)) > 1e-9:
            msgs.append(f"rho+ rho- - 1 reaches {np.max(np.abs(rp * rm - 1.0)):.3e}")
        if np.max(np.abs(rp + rm - D) / (1 + np.abs(D))) > 1e-9:
            msgs.append("rho+ + rho- differs from D")
        if np.any(np.abs(rp) >= 1.0):
            msgs.append("a principal multiplier off the bands has |rho+| >= 1")
        idx = rng.choice(self.N_POINTS, self.N_CHECK, replace=False)
        z = self.points[idx]
        mono = sb.monodromy(self.sin, z, ode_step=ODE_STEP)
        if np.max(np.abs(mono.det - 1.0)) > 1e-8:
            msgs.append(f"det M - 1 reaches {np.max(np.abs(mono.det - 1.0)):.3e}")
        p1, p1p, p2, p2p = oracles.sin_monodromy(z)
        if np.max(np.abs(p1 * p2p - p1p * p2 - 1.0)) > 1e-9:
            msgs.append("oracle monodromy lost det M = 1")
        rel = np.abs(D[idx] - (p1 + p2p)) / (1 + np.abs(p1 + p2p))
        if np.max(rel) > 1e-6:
            msgs.append(f"discriminant differs from DOP853 by {np.max(rel):.3e}")
        bad["floquet_data"] = msgs

        eig = res["eigenvalues"]
        f = lambda lam: oracles.sin_barrier_characteristic(lam, self.EIG_R, GAMMA)
        msgs = _confirm_all(f, eig.locations, 1e-8, "sin R=4pi")
        n_ref = oracles.winding_count(f, self.EIG_RECT, n=64)
        if eig.total_count != n_ref or n_ref != 1:
            msgs.append(f"sin R=4pi: {eig.total_count} roots, oracle counts {n_ref}, expected 1")
        bad["eigenvalues"] = msgs

        lim = res["limit_eigenvalues"]
        msgs = [f"limit eigenvalue {z} has Im != gamma"
                for z in lim.locations if abs(z.imag - GAMMA) > 1e-9]
        # A limit eigenvalue is a Dirichlet point of the shifted cell
        # (phi2(T) = 0) whose Dirichlet solution decays (|phi2'(T)| < 1).
        f = lambda lam: oracles.sin_monodromy(np.asarray(lam) - 1j * GAMMA)[2]
        msgs += _confirm_all(f, lim.locations, 1e-8, "sin limit")
        for z in lim.locations:
            growth = abs(complex(oracles.sin_monodromy(np.array([z - 1j * GAMMA]))[3][0]))
            if growth >= 1.0:
                msgs.append(f"sin limit: the Dirichlet solution at {z} grows by "
                            f"{growth:.4g} per period; not an eigenvalue")
        bad["limit_eigenvalues"] = msgs
        return bad


class FdTruncation:
    """Dense solve of the finite-difference truncation: fdtrunc and LAPACK only."""

    name = "fd_truncation"
    GAMMA = 0.25
    R = 20.0
    X = R + 100.0
    H = 0.05
    BAND_RANGE = (-1.0, 1.0)
    KNOWN_FAULTS: dict[str, str] = {}

    def __init__(self, sb, root: Path, rng, out_dir: Path):
        self.sb = sb
        self.sin = sb.load_model(root / "models" / "sin_tail.json")
        self.free = sb.load_model(root / "models" / "free.json")
        self.problem = sb.BarrierProblem(self.sin, self.GAMMA, self.R)
        self.band_structure = sb.BandStructure(tuple(oracles.sin_bands_in(*self.BAND_RANGE)))

    def ops(self):
        sb = self.sb
        return [
            ("build_matrix", lambda res: sb.build_matrix(self.problem, self.X, self.H)),
            ("eigenvalues_dense", lambda res: sb.eigenvalues_dense(res["build_matrix"])),
            ("classify_spectrum", lambda res: sb.classify_spectrum(
                res["eigenvalues_dense"], self.band_structure, self.GAMMA)),
        ]

    def same(self, a, b):
        ea, eb = np.array(a["eigenvalues_dense"]), np.array(b["eigenvalues_dense"])
        return (ea.shape == eb.shape and bool(np.max(np.abs(ea - eb)) < 1e-8)
                and len(a["classify_spectrum"].pollution_real)
                == len(b["classify_spectrum"].pollution_real))

    def check(self, res, rng):
        sb = self.sb
        bad: dict[str, list[str]] = {}
        t = res["build_matrix"]
        n = round(self.X / self.H) - 1
        x = self.H * np.arange(1, n + 1)
        diag = 2.0 / self.H**2 + np.sin(x) + 1j * self.GAMMA * (x <= self.R)
        msgs = []
        if t.n != n:
            msgs.append(f"matrix size {t.n}, expected {n}")
        bad["build_matrix"] = msgs

        eigs = np.array(res["eigenvalues_dense"])
        scale = np.max(np.abs(diag)) + 2.0 / self.H**2
        msgs = []
        if eigs.size != n:
            msgs.append(f"{eigs.size} eigenvalues for n = {n}")
        elif abs(eigs.sum() - diag.sum()) > 1e-12 * n * scale:
            msgs.append(f"sum of eigenvalues {eigs.sum()} differs from trace {diag.sum()}")
        eps = 1e-10 * scale
        if np.any(eigs.imag < -eps) or np.any(eigs.imag > self.GAMMA + eps):
            msgs.append("an eigenvalue leaves the numerical range 0 <= Im <= gamma")
        # A free Laplacian with the barrier over every grid point has the
        # closed-form spectrum (2/h^2)(1 - cos(k pi/(n+1))) + i gamma.
        m = int(rng.integers(40, 160))
        Xs = 8.0
        hs = Xs / (m + 1)
        gs = float(rng.uniform(0.1, 2.0))
        ts = sb.build_matrix(sb.BarrierProblem(self.free, gs, Xs - 0.5 * hs), Xs, hs)
        es = np.sort_complex(np.array(sb.eigenvalues_dense(ts)))
        ref = oracles.free_laplacian_eigenvalues(m, hs) + 1j * gs
        if np.max(np.abs(es - ref)) > 1e-9 * (4.0 / hs**2):
            msgs.append(f"free Laplacian n={m}: off the closed form by {np.max(np.abs(es - ref)):.3e}")
        bad["eigenvalues_dense"] = msgs

        cls = res["classify_spectrum"]
        msgs = []
        if cls.total != n:
            msgs.append(f"classification covers {cls.total} of {n} eigenvalues")
        if len(cls.pollution_real) == 0:
            msgs.append("no truncation pollution on the real bands")
        bad["classify_spectrum"] = msgs
        return bad


WORKLOADS = {w.name: w for w in (BarrierSweep, PeriodicGap, FdTruncation)}
