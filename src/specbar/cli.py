"""Command-line interface.

Verbs: spectrum, resonances, limit, bands, sp, converge, fd, enclose, and
figure (canned reproductions).  Complex scalars are written re,im; ranges
start:step:stop.  Numeric output goes to CSV/JSON files; figures are
static SVG scatter plots.  Identical invocations produce byte-identical
CSV files.  fd and enclose find the bands they compare with themselves,
from the tail potential's minimum past the largest real part they read;
figure fig3 is the fd verb at fixed arguments, plotted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import enclosures, fdtrunc, floquet, harness, sturm, svgplot
from .core import (
    BarrierProblem,
    ConstExpr,
    PeriodicTail,
    Piece,
    PotentialModel,
    Rectangle,
    Sheet,
    SinExpr,
    SpecbarError,
    load_model,
)

__all__ = ["run", "main"]


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected re or re,im, got {text!r}")


def _parse_gamma(text: str) -> float:
    try:
        gamma = float(text)
    except ValueError:
        gamma = math.nan
    if not gamma > 0:
        raise argparse.ArgumentTypeError(
            f"expected a real barrier strength gamma > 0, got {text!r}"
        )
    return gamma


def _parse_rect(text: str) -> Rectangle:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected x_lo,x_hi,y_lo,y_hi, got {text!r}"
        )
    return Rectangle(*parts)


def _parse_pair(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}")
    return parts[0], parts[1]


_MAX_WIDTHS = 10_000    # each width is a full root search or eigensolve


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) != 3 or not all(map(math.isfinite, parts)) or parts[1] <= 0:
            raise argparse.ArgumentTypeError(
                f"expected finite start:step:stop with step > 0, got {text!r}"
            )
        start, step, stop = parts
        # the loop below takes floor(count) + 1 widths
        count = (stop - start) / step + 1e-9
        if count >= _MAX_WIDTHS:
            raise argparse.ArgumentTypeError(
                f"{text!r} asks for {count + 1:.6g} widths, more than {_MAX_WIDTHS}")
        out = []
        v = start
        while v <= stop + 1e-9 * step:
            out.append(round(v, 12))
            if v + step == v:
                raise argparse.ArgumentTypeError(
                    f"step {step!r} does not advance past {v!r} in {text!r}")
            v += step
        return out
    return [float(p) for p in text.split(",")]


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _root_rows(rootset, R, sheet: Sheet) -> list[list]:
    rows = []
    r_field = float(R) if R is not None else ""
    for r in rootset.roots:
        rows.append([
            float(r.location.real), float(r.location.imag), r.multiplicity,
            float(r.residual), r_field, sheet.value,
        ])
    return rows


_ROOT_HEADER = ["re_lambda", "im_lambda", "multiplicity", "residual", "R", "sheet"]


_FD_HEADER = ["R", "X", "h", "re_lambda", "im_lambda", "class"]


def _scatter_roots(path, rootsets_by_label, title):
    series = []
    for i, (label, rootset, marker) in enumerate(rootsets_by_label):
        series.append(svgplot.Series(
            x=tuple(r.location.real for r in rootset.roots),
            y=tuple(r.location.imag for r in rootset.roots),
            label=label, marker=marker,
        ))
    svgplot.scatter_svg(path, series, title=title, xlabel="Re",
                        ylabel="Im")


# ---------------------------------------------------------------------------
# Verb implementations
# ---------------------------------------------------------------------------

def _cmd_roots(args) -> int:
    model = load_model(args.model)
    ctx = sturm.CharacteristicContext(
        BarrierProblem(model, args.gamma, args.R), sheet=args.sheet,
        ode_step=args.ode_step, standoff=args.standoff,
    )
    roots = args.search(ctx, args.rect)
    _write_csv(args.out, _ROOT_HEADER, _root_rows(roots, args.R, args.sheet))
    if args.svg:
        _scatter_roots(args.svg, [(args.label, roots, args.marker)],
                       f"{args.verb}, R={args.R:g}")
    return 0


def _cmd_limit(args) -> int:
    model = load_model(args.model)
    roots = sturm.limit_eigenvalues(model, args.gamma, args.rect,
                                    ode_step=args.ode_step,
                                    standoff=args.standoff)
    _write_csv(args.out, _ROOT_HEADER, _root_rows(roots, None, Sheet.PRINCIPAL))
    return 0


def _cmd_bands(args) -> int:
    model = load_model(args.model)
    lo, hi = args.range
    bs = floquet.bands(model, lo, hi, ode_step=args.ode_step)
    rows = [[i, float(b[0]), float(b[1])] for i, b in enumerate(bs.bands)]
    _write_csv(args.out, ["band_index", "z_left", "z_right"], rows)
    return 0


def _cmd_sp(args) -> int:
    model = load_model(args.model)
    x0 = args.x0
    if x0 is None:
        x0 = (model.tail.start if model.is_periodic
              else max(model.compact_end, 1.0))
    roots = floquet.sp_zeros(model, args.gamma, x0, args.rect,
                             standoff=args.standoff, ode_step=args.ode_step)
    _write_csv(args.out, _ROOT_HEADER, _root_rows(roots, None, Sheet.PRINCIPAL))
    return 0


def _auto_eigen_target(model, gamma, rect, ode_step, standoff):
    if rect is None:
        rect = Rectangle(-10.0, 10.0, gamma + 5 * standoff,
                         gamma + max(4.0, 4.0 * gamma))
    roots = sturm.limit_eigenvalues(model, gamma, rect, ode_step=ode_step,
                                    standoff=standoff)
    if not roots.roots:
        raise SpecbarError(
            "no limit-operator eigenvalue found automatically; pass --target"
        )
    # The eigenvalue nearest the shifted line Im z = gamma decays slowest
    # as R grows, so its sweep errors stay above the floating-point floor.
    return min(roots.locations, key=lambda z: (abs(z.imag - gamma), z.real))


def _cmd_converge(args) -> int:
    model = load_model(args.model)
    gamma = args.gamma
    grid = args.R
    if args.mode == "eigenvalue":
        target = args.target
        if target is None:
            target = _auto_eigen_target(model, gamma, args.rect,
                                        args.ode_step, args.standoff)
        rect = args.rect
        if rect is None:
            y_lo = max(gamma + 2 * args.standoff, target.imag - 0.5)
            rect = Rectangle(target.real - 1.0, target.real + 1.0,
                             y_lo, target.imag + 1.0)
        kind = "exponential"
    else:
        if args.mu is None:
            raise SpecbarError("--mode essential requires --mu")
        target = complex(args.mu, gamma)
        rect = args.rect
        if rect is None:
            rect = Rectangle(args.mu - 1.0, args.mu + 1.0, 0.2 * gamma,
                             gamma - 2 * args.standoff)
        kind = "power"
    records = harness.run_sweep(model, gamma, grid, target, rect,
                                ode_step=args.ode_step, standoff=args.standoff)
    fit = harness.fit_rate(records, kind, skip_initial=args.skip_initial)
    if args.csv:
        rows = [[float(r.R),
                 float(r.matched.real) if r.matched is not None else "",
                 float(r.matched.imag) if r.matched is not None else "",
                 float(r.error)] for r in records]
        _write_csv(args.csv, ["R", "re_matched", "im_matched", "error"], rows)
    summary = {"kind": fit.kind, "rate": fit.rate, "prefactor": fit.prefactor,
               "r2": fit.r_squared}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _bands_up_to(model, x, reach, ode_step):
    """The essential spectrum from the tail potential's minimum q_min, below
    which no band lies, to max(x, q_min) + reach (q_min = 0 on a zero tail)."""
    lo = floquet._tail_minimum(model) if model.is_periodic else 0.0
    return floquet.essential_spectrum(model, lo, max(x, lo) + reach, ode_step)


def _write_fd(model, gamma, widths, x_offset, h, tol_band, ode_step, out):
    """Write the classified truncation spectrum of every width to the CSV out.

    The bands reach tol_band past the largest Re lambda of all widths, so
    every eigenvalue is classified against all the bands near it.  Returns
    the bands and, per width, (R, eigenvalues).
    """
    if not 0 < tol_band < math.inf:      # refused before any eigensolve
        raise ValueError(f"--tol-band {tol_band} must be positive and finite")
    spectra = [(R, fdtrunc.eigenvalues_dense(fdtrunc.build_matrix(
        BarrierProblem(model, gamma, R), R + x_offset, h))) for R in widths]
    bs = _bands_up_to(model, max(z.real for _, eigs in spectra for z in eigs),
                      tol_band, ode_step)
    rows = []
    for R, eigs in spectra:
        # the barrier i*gamma shifts spectra upward by gamma
        cls = fdtrunc.classify_spectrum(eigs, bs, gamma, tol_band=tol_band)
        rows += [[R, R + x_offset, h, lam.real, lam.imag, tag]
                 for group, tag in ((cls.pollution_real, "pollution"),
                                    (cls.essential_approx, "essential"),
                                    (cls.discrete_candidates, "discrete"))
                 for lam in group]
    _write_csv(out, _FD_HEADER, rows)
    return bs, spectra


def _cmd_fd(args) -> int:
    _write_fd(load_model(args.model), args.gamma, args.R, args.x_offset,
              args.h, args.tol_band, args.ode_step, args.out)
    return 0


def _cmd_enclose(args) -> int:
    model = load_model(args.model)
    gamma, lam = args.gamma, args.lam
    # the verdicts need the bands to Re lambda + gamma, past the lens's
    # reach gamma/2
    sigma = _bands_up_to(model, lam.real, gamma, args.ode_step)
    strip = enclosures.StripParams(gamma, args.s_minus, args.s_plus)
    verdict = {
        "lambda": [lam.real, lam.imag],
        "gamma_a": enclosures.gamma_a_contains(lam, sigma, gamma),
        "gamma_b": enclosures.gamma_b_contains(lam, sigma, strip),
        "we_strip": enclosures.we_strip_contains(lam, sigma, strip),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _model_free() -> PotentialModel:
    return PotentialModel()


def _model_stacked() -> PotentialModel:
    return PotentialModel(pieces=(Piece(0.0, 4.7, ConstExpr(1j)),))


def _model_sin() -> PotentialModel:
    return PotentialModel(tail=PeriodicTail(period=2 * math.pi, start=0.0,
                                            expr=SinExpr(1.0, 1.0)))


def _preset_fig1(out_dir: Path) -> None:
    model = _model_free()
    rows, series = [], []
    for R in (4.0, 8.0, 12.0):
        ctx = sturm.CharacteristicContext(BarrierProblem(model, 1.0, R))
        eig = sturm.eigenvalues(ctx, Rectangle(0.02, 16.0, 0.015, 0.96))
        ctx2 = sturm.CharacteristicContext(BarrierProblem(model, 1.0, R),
                                           sheet=Sheet.SECOND)
        res = sturm.resonances(ctx2, Rectangle(0.5, 16.0, -2.0, -0.01))
        rows += _root_rows(eig, R, Sheet.PRINCIPAL)
        rows += _root_rows(res, R, Sheet.SECOND)
        series.append((f"eigenvalues R={R:g}", eig, "circle"))
        series.append((f"resonances R={R:g}", res, "cross"))
    _write_csv(out_dir / "fig1.csv", _ROOT_HEADER, rows)
    _scatter_roots(out_dir / "fig1.svg", series,
                   "free background, growing barrier")


def _preset_fig2(out_dir: Path) -> None:
    model = _model_stacked()
    rows, series = [], []
    for R in (10.0, 20.0, 30.0):
        ctx = sturm.CharacteristicContext(BarrierProblem(model, 1.0, R))
        low = sturm.eigenvalues(ctx, Rectangle(0.02, 8.0, 0.015, 0.96))
        high = sturm.eigenvalues(ctx, Rectangle(0.02, 8.0, 1.04, 1.96))
        ctx2 = sturm.CharacteristicContext(BarrierProblem(model, 1.0, R),
                                           sheet=Sheet.SECOND)
        res = sturm.resonances(ctx2, Rectangle(0.5, 8.0, -1.2, -0.01))
        rows += _root_rows(low, R, Sheet.PRINCIPAL)
        rows += _root_rows(high, R, Sheet.PRINCIPAL)
        rows += _root_rows(res, R, Sheet.SECOND)
        series.append((f"eigenvalues R={R:g}", low, "circle"))
        series.append(("", high, "circle"))
        series.append((f"resonances R={R:g}", res, "cross"))
    lim = sturm.limit_eigenvalues(model, 1.0, Rectangle(0.02, 8.0, 1.04, 1.96))
    rows += _root_rows(lim, None, Sheet.PRINCIPAL)
    series.append(("limit operator", lim, "square"))
    _write_csv(out_dir / "fig2.csv", _ROOT_HEADER, rows)
    _scatter_roots(out_dir / "fig2.svg", series,
                   "stacked barrier, eigenvalue convergence")


def _preset_fig3(out_dir: Path) -> None:
    gamma = 0.25
    # the fd verb at --R 20,40 --x-offset 100 --h 0.05 on sin_tail.json
    bs, spectra = _write_fd(_model_sin(), gamma, (20.0, 40.0), 100.0, 0.05,
                            5e-3, 1e-3, out_dir / "fig3.csv")
    series = []
    for R, eigs in spectra:
        keep = [z for z in eigs if -0.6 <= z.real <= 1.2 and
                -0.1 <= z.imag <= gamma + 0.1]
        series.append(svgplot.Series(
            x=tuple(z.real for z in keep), y=tuple(z.imag for z in keep),
            label=f"R={R:g}", marker="circle" if R == 20.0 else "cross",
        ))
    svgplot.scatter_svg(out_dir / "fig3.svg", series,
                        title="finite-difference truncation spectrum",
                        xlabel="Re", ylabel="Im",
                        xlim=(-0.6, 1.2), ylim=(-0.1, gamma + 0.1),
                        vbands=bs.bands)


def _cmd_figure(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    {"fig1": _preset_fig1, "fig2": _preset_fig2, "fig3": _preset_fig3}[
        args.preset
    ](out_dir)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--rect", type=_parse_rect, required=True,
                   help="search rectangle x_lo,x_hi,y_lo,y_hi")
    p.add_argument("--standoff", type=float, default=1e-3)


_NEGATIVE_VALUE = re.compile(r"^-\d+([.,:].*)?$|^-\.\d.*$")


def _allow_negative_values(parser: argparse.ArgumentParser) -> None:
    # let option values like "-1,0" or "-0.5" pass as arguments
    parser._negative_number_matcher = _NEGATIVE_VALUE


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specbar",
        description="Eigenvalues and resonances of dissipative-barrier "
                    "Schrodinger operators on the half-line",
    )
    _allow_negative_values(ap)
    sub = ap.add_subparsers(dest="verb", required=True)
    # every verb but figure reads a model and may propagate through it
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", required=True, help="model JSON file")
    shared.add_argument("--ode-step", type=float, default=1e-3,
                        dest="ode_step")
    # every verb that attaches the barrier i*gamma
    barrier = argparse.ArgumentParser(add_help=False)
    barrier.add_argument("--gamma", type=_parse_gamma, default=1.0,
                         help="barrier strength gamma > 0 (default 1)")

    for verb, help_, sheet, search, label, marker in (
            ("spectrum", "barrier eigenvalues in a rectangle", Sheet.PRINCIPAL,
             sturm.eigenvalues, "eigenvalues", "circle"),
            ("resonances", "second-sheet zeros in a rectangle", Sheet.SECOND,
             sturm.resonances, "resonances", "cross")):
        p = sub.add_parser(verb, help=help_, parents=[shared, barrier])
        _add_common(p)
        p.add_argument("--R", type=float, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--svg")
        p.set_defaults(fn=_cmd_roots, sheet=sheet, search=search, label=label,
                       marker=marker)

    p = sub.add_parser("limit", parents=[shared, barrier],
                       help="limit-operator eigenvalues")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("bands", parents=[shared],
                       help="real spectral bands of the periodic tail")
    p.add_argument("--range", type=_parse_pair, required=True,
                   help="interval lo,hi")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bands)

    p = sub.add_parser("sp", parents=[shared, barrier],
                       help="persistent-pollution zero set")
    _add_common(p)
    p.add_argument("--x0", type=float, default=None,
                   help="cell offset (defaults to the tail start; for a "
                        "zero tail, the end of the pieces but at least 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sp)

    p = sub.add_parser("converge", parents=[shared, barrier],
                       help="barrier-width convergence sweep")
    p.add_argument("--mode", choices=("eigenvalue", "essential"),
                   required=True)
    p.add_argument("--R", type=_parse_grid, required=True,
                   help="widths, start:step:stop or comma list")
    p.add_argument("--target", type=_parse_complex, default=None)
    p.add_argument("--mu", type=float, default=None,
                   help="essential-spectrum point (mode essential)")
    p.add_argument("--rect", type=_parse_rect, default=None)
    p.add_argument("--skip-initial", type=int, default=2, dest="skip_initial")
    p.add_argument("--standoff", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="JSON summary path")
    p.add_argument("--csv", default=None, help="per-width record CSV path")
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("fd", parents=[shared, barrier],
                       help="finite-difference truncation spectra")
    p.add_argument("--R", type=_parse_grid, required=True)
    p.add_argument("--x-offset", type=float, default=300.0, dest="x_offset",
                   help="truncation margin X - R")
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--tol-band", type=float, default=5e-3, dest="tol_band")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fd)

    p = sub.add_parser("enclose", parents=[shared, barrier],
                       help="enclosure membership of a point")
    p.add_argument("--lambda", type=_parse_complex, required=True, dest="lam")
    p.add_argument("--s-minus", type=float, default=0.0, dest="s_minus")
    p.add_argument("--s-plus", type=float, default=1.0, dest="s_plus")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_enclose)

    p = sub.add_parser("figure", help="reproduce a canned figure")
    p.add_argument("--preset", choices=("fig1", "fig2", "fig3"),
                   required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.set_defaults(fn=_cmd_figure)

    for action in sub.choices.values():
        _allow_negative_values(action)
    return ap


def run(argv: list[str]) -> int:
    """Entry point; returns 0 on success, 1 on computation errors, 2 on usage."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (SpecbarError, ValueError, OSError) as exc:
        print(f"specbar: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
