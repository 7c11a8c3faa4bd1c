"""Command-line front end: fit, density evaluation, and simulation.

Every invocation writes a run manifest (resolved options, input digest,
seed, version, timing) next to its outputs so results are traceable.  Exit
codes: 0 success, 2 invalid input (``CliError`` or ``ValueError``, which
includes ``DataValidationError`` and the samplers' ``SamplingError``), 3
optimizer or integral failure (``FitError``, ``QuadratureError``,
``EvaluationError``); :func:`main` is the only place that maps an error to
its code.  The library checks every input once; the commands only parse
text, call it and write files.  A failed run writes nothing: outputs are
written once every result they hold exists.

``--starts`` is the most optimizer starts a fit runs: the later ones run
only when the first start is not a known optimum or ``--par-start`` is
given.  ``fit.json`` lists every start that ran under ``starts`` (index,
status, Newton steps, log likelihood, null for an ``error`` start), and
``starts_tried`` counts them.  A start's status is one of ``success`` (it
ends on a known optimum), ``stalled`` (its steps end short of one),
``error`` (the likelihood could not be evaluated at its starting values) or
``duplicate`` (it ends on a known optimum inside the basin of one an earlier
start found).
"""

from __future__ import annotations

import os

# honor the thread cap before the numeric stack spins up its pools (0 = auto)
_cap = os.environ.get("FIBERFIT_THREADS")
if _cap and _cap.strip() != "0":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap.strip())

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .densities import FAMILIES, GGAMMA, LOGNORM, MixtureParams, _params_from_values
from .fitting import FitConfig, FitError, ModelSpec, fit
from .geometry import CoreGeometry
from .likelihood import Dataset, EvaluationError
from .quadrature import QuadratureError
from .scales import ScaleDensity
from .simulate import SimSpec, sample_v, sample_w, sample_x, sample_y
from .summary import SummaryStats, summary_stats

__all__ = ["main"]

_CONVERGENCE_TEXT = {
    "success": "Successful completion",
    "stalled": "Stopped short of a known optimum",
}

_MODEL_TEXT = {GGAMMA: "Generalized gamma", LOGNORM: "Log normal"}


class CliError(Exception):
    """Validation failure: message printed to stderr, exit code 2."""


def _write(path: Path, text: str):
    """Write ``text`` to ``path``, making its directory first, so that no directory is made without a file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_manifest(path: Path, args, clock, input_digest=None, seed=None):
    """Write the run's manifest: every parsed option but the handler, and the seconds since :func:`main` started."""
    started, t0 = clock
    manifest = {
        "command": args.command,
        "options": {k: v for k, v in vars(args).items() if k != "func"},
        "input_digest": input_digest,
        "seed": seed,
        "version": __version__,
        "started_utc": started,
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    _write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _digest(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_floats(text: str, name: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CliError(f"--{name} must be a comma-separated list of numbers: {exc}")


def _parse_bools(text: str, name: str) -> list:
    out = []
    for tok in text.split(","):
        t = tok.strip().lower()
        if t in ("t", "true", "1"):
            out.append(True)
        elif t in ("f", "false", "0"):
            out.append(False)
        else:
            raise CliError(f"--{name} entries must be true/false (got {tok!r})")
    return out


def _read_lengths(path: Path) -> np.ndarray:
    if not path.is_file():
        raise CliError(f"data file not found: {path}")
    values = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            values.append(float(stripped))
        except ValueError:
            raise CliError(f"{path}:{lineno}: not a number: {stripped!r}")
    if not values:
        raise CliError(f"{path}: no data values found")
    return np.array(values)


def _refuse_existing(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise CliError(f"output {path} exists; pass --force to overwrite")
    return path


def _write_csv(path: Path, xs, fs):
    lines = ["length,density"]
    lines += [f"{float(x)!r},{float(f)!r}" for x, f in zip(xs, fs)]
    _write(path, "\n".join(lines) + "\n")


def _fmt_table(header_cells, rows, digits=6, label_width=10) -> list:
    """Header line and one line per (label, cells) row; every column is at
    least one character wider than its widest entry, so no two cells touch."""
    text = [["" if c is None else c if isinstance(c, str) else f"{c:.{digits}f}" for c in cells] for _, cells in rows]
    widths = [max(10, 1 + max(len(h), *(len(t[j]) for t in text))) for j, h in enumerate(header_cells)]
    lines = [" " * label_width + "".join(h.rjust(w) for h, w in zip(header_cells, widths))]
    for (label, _), cells in zip(rows, text):
        lines.append(label.ljust(label_width) + "".join(c.rjust(w) for c, w in zip(cells, widths)))
    return lines


def _stats_table(title: str, stats) -> list:
    rows = [("Estimate", [stats.mean, stats.sd, stats.skewness, stats.kurtosis])]
    ses = [stats.se_mean, stats.se_sd, stats.se_skewness, stats.se_kurtosis]
    if all(s is not None for s in ses):
        rows.append(("Std. Error", ses))
    return [title] + _fmt_table(["Mean", "Std.dev.", "Skewness", "Kurtosis"], rows, digits=5)


def format_summary(result, stats: SummaryStats) -> str:
    """Fixed-width human summary mirroring the library's print conventions."""
    model = result.model
    is_micro = model.data_type == "microscopy"
    head = (
        "Microscopy data (uncut fibers in the core)"
        if is_micro
        else "Increment core data (all fiber and fine lengths in the core)"
    )
    lines = [head, "", f"Model: {_MODEL_TEXT[model.family]}   Method: ML", ""]

    names = list(model.param_names)
    est = list(result.theta_tilde)
    ses = [None] * len(est) if result.se_tilde is None else ["bound" if np.isnan(s) else s for s in result.se_tilde]
    # b1 -> b_fines, sigma2 -> sig_fibers; a microscopy component is the fibers
    suffix = {"1": "_fines", "2": "_fibers"}
    names = [n if n == "eps" else n.rstrip("12").replace("sigma", "sig") + suffix.get(n[-1], "_fibers") for n in names]
    if not is_micro:  # component parameters first, proportion last
        order = list(range(1, len(names))) + [0]
        names, est, ses = ([v[i] for i in order] for v in (names, est, ses))

    lines.append("Model parameters:")
    rows = [("Estimate", est)]
    if any(s is not None for s in ses):
        rows.append(("Std. Error", ses))
    lines += _fmt_table(names, rows)
    if result.on_bound:
        lines.append(f"On a bound (no Std. Error; the others are conditional on it): {', '.join(result.on_bound)}")
    lines.append("")

    lines += _stats_table("Summary statistics for FIBER lengths in the standing tree:", stats.fibers)
    lines.append("")
    if stats.fines is not None:
        lines += _stats_table("Summary statistics for FINE lengths in the standing tree:", stats.fines)
        lines.append("")
    if stats.eps_tilde is not None:
        se_txt = f" (Std.error = {stats.se_eps_tilde:.4f})" if stats.se_eps_tilde is not None else ""
        lines.append(f"Proportion of fines in the standing tree: {stats.eps_tilde:.4f}{se_txt}")
        lines.append("")

    lines.append(f"'-'Loglik = {-result.loglik:.3f}   Sample size: n = {result.n}")
    lines.append("")
    lines.append(f"Convergence: {_CONVERGENCE_TEXT.get(result.convergence, result.convergence)}")
    return "\n".join(lines) + "\n"


def _fit_json(result, stats: SummaryStats, seed) -> dict:
    def arr(a):
        return None if a is None else np.asarray(a).tolist()

    return {
        "model": result.model.family,
        "data_type": result.model.data_type,
        "r": result.model.geom.r,
        "n": result.n,
        "param_names": list(result.model.param_names),
        "estimates_original": arr(result.theta_tilde),
        "estimates_theta": list(result.theta_hat.values),
        "fixed": list(result.theta_hat.fixed_mask),
        "se_original": None if result.se_tilde is None else [None if np.isnan(s) else float(s) for s in result.se_tilde],
        "on_bound": list(result.on_bound),
        "cov_theta": arr(result.cov_theta),
        "cov_original": arr(result.cov_tilde),
        "loglik": result.loglik,
        "convergence": result.convergence,
        "starts_tried": result.starts_tried,
        "starts": [
            {
                "index": rec.index,
                "status": rec.status,
                "n_iter": rec.n_iter,
                "loglik": rec.loglik if np.isfinite(rec.loglik) else None,
            }
            for rec in result.trace
        ],
        "seed": seed,
        "summary": {k: v for k, v in asdict(stats).items() if k not in ("loglik", "n", "convergence")},
    }


def _density_curves(result) -> dict:
    """Density curves on every scale that applies to the fitted model."""
    model = result.model
    r = model.geom.r
    params = model.params_from_original(result.theta_tilde)
    eps_grid = 1e-3 * 2.0 * r
    inner = np.linspace(eps_grid, 2.0 * r - eps_grid, 200)
    outer = np.linspace(eps_grid, 1.6 * 2.0 * r, 200)
    curves = {}
    if model.data_type == "microscopy":
        curves["v"] = (inner, ScaleDensity("V", "fibers", params, model.geom).pdf(inner))
        curves["y"] = (outer, ScaleDensity("Y", "fibers", params, model.geom).pdf(outer))
        curves["w"] = (outer, ScaleDensity("W", "fibers", params, model.geom).pdf(outer))
    else:
        curves["x"] = (inner, ScaleDensity("X", "mixture", params, model.geom).pdf(inner))
        curves["y"] = (outer, ScaleDensity("Y", "mixture", params, model.geom).pdf(outer))
        curves["w"] = (outer, ScaleDensity("W", "mixture", params, model.geom).pdf(outer))
    return curves


# ---------------------------------------------------------------------------
# svg rendering: a deliberately thin polyline plot, no plotting dependency
# ---------------------------------------------------------------------------


def _render_svg(path: Path, xs, fs, data=None, width=640, height=420):
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    margin = 50.0
    x0, x1 = float(xs.min()), float(xs.max())
    top = float(fs.max()) if fs.size else 1.0
    bars = ""
    if data is not None and len(data):
        counts, edges = np.histogram(data, bins=30, density=True)
        top = max(top, float(counts.max()))
    span_x = (x1 - x0) or 1.0
    top = top or 1.0

    def px(x):
        return margin + (x - x0) / span_x * (width - 2 * margin)

    def py(f):
        return height - margin - f / top * (height - 2 * margin)

    if data is not None and len(data):
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            bars += (
                f'<rect x="{px(lo):.2f}" y="{py(c):.2f}" width="{px(hi) - px(lo):.2f}" '
                f'height="{py(0) - py(c):.2f}" fill="#c8d8e8" stroke="#8aa" stroke-width="0.5"/>'
            )
    pts = " ".join(f"{px(x):.2f},{py(f):.2f}" for x, f in zip(xs, fs))
    ticks = ""
    for i in range(6):
        tx = x0 + span_x * i / 5
        ticks += (
            f'<line x1="{px(tx):.2f}" y1="{py(0):.2f}" x2="{px(tx):.2f}" y2="{py(0) + 5:.2f}" stroke="#000"/>'
            f'<text x="{px(tx):.2f}" y="{py(0) + 18:.2f}" font-size="11" text-anchor="middle">{tx:.3g}</text>'
        )
        tf = top * i / 5
        ticks += (
            f'<line x1="{margin - 5:.2f}" y1="{py(tf):.2f}" x2="{margin:.2f}" y2="{py(tf):.2f}" stroke="#000"/>'
            f'<text x="{margin - 8:.2f}" y="{py(tf) + 4:.2f}" font-size="11" text-anchor="end">{tf:.3g}</text>'
        )
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="100%" height="100%" fill="white"/>'
        f"{bars}"
        f'<polyline points="{pts}" fill="none" stroke="#1f4e79" stroke-width="1.8"/>'
        f'<line x1="{margin}" y1="{py(0):.2f}" x2="{width - margin}" y2="{py(0):.2f}" stroke="#000"/>'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{py(0):.2f}" stroke="#000"/>'
        f"{ticks}"
        "</svg>"
    )
    _write(path, svg)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args, clock) -> int:
    data_path = Path(args.data)
    values = _read_lengths(data_path)
    model = ModelSpec(args.model, args.data_type, CoreGeometry(args.r))
    kwargs = {
        name: tuple(_parse_floats(getattr(args, name), name.replace("_", "-")))
        for name in ("lower", "upper", "par_start")
        if getattr(args, name) is not None
    }
    if args.fixed is not None:
        kwargs["fixed_mask"] = tuple(_parse_bools(args.fixed, "fixed"))
    cfg = FitConfig(n_starts=args.starts, seed=args.seed, **kwargs)
    data = Dataset(values, "X" if args.data_type == "ofa" else "V")
    out = _refuse_existing(Path(args.out), args.force)

    result = fit(data, model, cfg)
    stats = summary_stats(result)
    text = format_summary(result, stats)
    fit_json = json.dumps(_fit_json(result, stats, args.seed), indent=2) + "\n"
    curves = _density_curves(result)
    _write(out / "summary.txt", text)
    _write(out / "fit.json", fit_json)
    for scale_name, (xs, fs) in curves.items():
        _write_csv(out / f"density_{scale_name}.csv", xs, fs)
    _write_manifest(out / "manifest.json", args, clock, _digest(data_path), args.seed)
    sys.stdout.write(text)
    return 0


def _grid_from_args(args, support) -> np.ndarray:
    lo, hi = support
    if args.at is not None:
        pts = np.array(_parse_floats(args.at, "at"))
    else:
        try:
            a, b, n = args.grid.split(":")
            pts = np.linspace(float(a), float(b), int(n))
        except ValueError:
            raise CliError("--grid must look like a:b:n")
    if pts.size == 0:
        raise CliError("no evaluation points")
    if not np.all((pts > lo) & (pts < hi)):  # NaN too
        raise CliError(f"evaluation points must lie strictly inside ({lo:g}, {hi:g})")
    return pts


def _cmd_density(args, clock) -> int:
    params = _params_from_values(args.model, _parse_floats(args.par, "par"))
    component = args.component or ("mixture" if isinstance(params, MixtureParams) else "fibers")
    scale = args.scale.upper()
    if scale in ("W", "X", "V") and args.r is None:
        raise CliError(f"--r is required for scale {args.scale}")
    density = ScaleDensity(scale, component, params, CoreGeometry(args.r if args.r is not None else 1.0))
    pts = _grid_from_args(args, density.support)
    out = None if args.out is None else _refuse_existing(Path(args.out), args.force)
    svg_path = None if args.svg is None else _refuse_existing(Path(args.svg), args.force)
    overlay = _read_lengths(Path(args.data)) if svg_path is not None and args.data else None
    vals = np.atleast_1d(density.pdf(pts))

    if out is None:
        for v in vals:
            print(repr(float(v)))
    else:
        _write_csv(out, pts, vals)
        _write_manifest(out.with_name(out.name + ".manifest.json"), args, clock)
    if svg_path is not None:
        order = np.argsort(pts)
        _render_svg(svg_path, pts[order], vals[order], overlay)
    return 0


def _cmd_simulate(args, clock) -> int:
    params = _params_from_values(args.model, _parse_floats(args.par, "par"))
    spec = SimSpec(args.scale.upper(), params, CoreGeometry(args.r), args.n, args.seed)
    out = _refuse_existing(Path(args.out), args.force)
    values = {"Y": sample_y, "W": sample_w, "V": sample_v, "X": sample_x}[spec.scale](spec)
    _write(out, "\n".join(repr(float(v)) for v in values) + "\n")
    _write_manifest(out.with_name(out.name + ".manifest.json"), args, clock, seed=args.seed)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberfit",
        description="Estimate fiber and fine length distributions in standing trees "
        "from increment-core cell-length data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maximum likelihood fit of a length-distribution model")
    p_fit.add_argument("--data", required=True, help="text file, one length per line in the unit of --r, # comments")
    p_fit.add_argument("--data-type", choices=["ofa", "microscopy"], default="ofa")
    p_fit.add_argument("--model", choices=list(FAMILIES), default=GGAMMA)
    p_fit.add_argument("--r", type=float, required=True, help="increment core radius, in any length unit")
    p_fit.add_argument("--lower", help="original-scale lower bounds, CSV")
    p_fit.add_argument("--upper", help="original-scale upper bounds, CSV")
    p_fit.add_argument("--par-start", dest="par_start", help="original-scale starting values, CSV")
    p_fit.add_argument("--fixed", help="per-parameter fixed flags, CSV of true/false")
    p_fit.add_argument("--starts", type=int, default=5,
                       help="most optimizer starts; starts 2.. run only when the first is not a known optimum "
                            "or --par-start is given")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--force", action="store_true")
    p_fit.set_defaults(func=_cmd_fit)

    p_den = sub.add_parser("density", help="evaluate a length density on any population scale")
    p_den.add_argument("--model", choices=list(FAMILIES), default=GGAMMA)
    p_den.add_argument("--scale", choices=["w", "y", "x", "v"], required=True)
    p_den.add_argument("--component", choices=["fines", "fibers", "mixture"])
    p_den.add_argument("--par", required=True, help="parameters, CSV (mixtures: eps first, fines then fibers)")
    p_den.add_argument("--r", type=float, help="core radius (mm); required for scales w, x, v")
    p_den.add_argument("--grid", help="evaluation grid a:b:n")
    p_den.add_argument("--at", help="explicit evaluation points, CSV")
    p_den.add_argument("--out", help="CSV output path (omit to print values)")
    p_den.add_argument("--svg", help="optional plot path")
    p_den.add_argument("--data", help="lengths file to overlay as a histogram in the plot")
    p_den.add_argument("--force", action="store_true")
    p_den.set_defaults(func=_cmd_density)

    p_sim = sub.add_parser("simulate", help="draw a seeded sample from any population scale")
    p_sim.add_argument("--scale", choices=["w", "y", "x", "v"], required=True)
    p_sim.add_argument("--model", choices=list(FAMILIES), default=GGAMMA)
    p_sim.add_argument("--par", required=True)
    p_sim.add_argument("--r", type=float, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--force", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    """Run one command; the exit code is 0, or that of the error it raised (module docstring)."""
    clock = (time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), time.perf_counter())
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "density" and args.grid is None and args.at is None:
        parser.error("density needs --grid or --at")  # exits 2
    try:
        return args.func(args, clock)
    except (CliError, ValueError) as exc:  # DataValidationError is a ValueError
        message, code = str(exc), 2
    except (FitError, QuadratureError, EvaluationError) as exc:
        message, code = str(exc), 3
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
