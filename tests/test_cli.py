import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    EvaluationError,
    FitError,
    GgdParams,
    LognParams,
    MixtureParams,
    QuadratureError,
    ScaleDensity,
    SimSpec,
    sample_x,
    scales,
)
from fiberfit import cli
from fiberfit.cli import _stats_table, main
from fiberfit.summary import ComponentStats, SummaryStats


def run_cli(*args):
    return main(list(args))


def assert_error(capsys, rc, code, start="error: "):
    """The exit code of one error class from main's table, its message on stderr and no traceback; the captured output."""
    captured = capsys.readouterr()
    err = captured.err
    assert rc == code and err.startswith(start) and "Traceback" not in err, (rc, err)
    return captured


def test_density_golden_ggd(capsys):
    assert run_cli("density", "--scale", "y", "--par", "1.8,2.7,2.6", "--at", "2.5") == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.6689186996) < 1e-9


def test_density_golden_lognorm(capsys):
    assert run_cli(
        "density", "--scale", "y", "--model", "lognorm", "--par=-2,0.5", "--at", "0.1,0.45"
    ) == 0
    vals = [float(v) for v in capsys.readouterr().out.split()]
    assert abs(vals[0] - 6.643761) < 1e-6
    assert abs(vals[1] - 0.09882040) < 1e-6


def test_density_open_support_rejected(capsys):
    rc = run_cli("density", "--scale", "x", "--par", "1.8,2.7,2.6", "--r", "2.5", "--at", "0")
    assert rc == 2
    assert "strictly inside" in capsys.readouterr().err
    # a NaN point once passed the support check and printed nan with exit 0
    rc = run_cli("density", "--scale", "x", "--par", "1.8,2.7,2.6", "--r", "2.5", "--at", "1,nan")
    assert_error(capsys, rc, 2, "error: evaluation points must lie strictly inside")


def test_density_without_a_usable_answer_is_exit_2(capsys):
    # each of these once exited 0, printing nan or nothing
    base = ("density", "--scale", "x", "--par", "1.8,2.7,2.6")
    for args, message in [
        (("--par", "1,2", "--r", "2.5", "--at", "1"), "error: ggamma parameters need 3"),
        (("--r", "1e-300", "--at", "1e-301"), "error: core radius r = 1e-300"),
        (("--r", "1e200", "--at", "1"), "error: core radius r = 1e+200"),
        (("--r", "2.5", "--grid", "1:2:0"), "error: no evaluation points"),
        (("--r", "2.5", "--at", ","), "error: no evaluation points"),
    ]:
        assert_error(capsys, run_cli(*base, *args), 2, message)


def test_density_v_fines_rejected(capsys):
    rc = run_cli(
        "density", "--scale", "v", "--component", "fines", "--par", "1.8,2.7,2.6",
        "--r", "2.5", "--at", "1.0",
    )
    assert rc == 2


def test_density_needs_r_for_censored_scales():
    assert run_cli("density", "--scale", "x", "--par", "1.8,2.7,2.6", "--at", "1.0") == 2
    assert run_cli("density", "--scale", "w", "--par", "1.8,2.7,2.6", "--at", "1.0") == 2


W_MEAN_HEAVY = ("density", "--scale", "w", "--model", "ggamma", "--par", "0.5,0.3,0.2", "--r", "2.5", "--at", "1")


def test_integral_failure_is_exit_3(capsys, monkeypatch):
    # a W-moment integral that does not converge: a typed error and exit
    # code 3, not a traceback
    def fail(*args):
        raise QuadratureError("quadrature did not converge within max_subdivisions", 3.3e-5)

    monkeypatch.setattr(scales, "_weighted_moment_integrals", fail)
    assert_error(capsys, run_cli(*W_MEAN_HEAVY), 3)


@pytest.mark.parametrize("r, at", [("1e-60", "5e-61"), ("1.5e-154", "1e-154")])
def test_v_density_with_no_uncut_mass_is_exit_3(capsys, r, at):
    # the fibers' uncut mass underflows to 0 in so small a core; the density once printed nan
    captured = assert_error(capsys, run_cli("density", "--par", "1.8,2.7,2.6", "--scale", "v", "--r", r, "--at", at), 3)
    assert captured.out == "" and "nan" not in captured.err


def test_heavy_shape_w_density_exits_0(capsys):
    # f_Y ~ y^(dk - 1) is nearly singular at 0 here; its W mean converges in log length
    assert run_cli(*W_MEAN_HEAVY) == 0
    assert np.isfinite(float(capsys.readouterr().out))


def test_density_grid_and_csv(tmp_path):
    out = tmp_path / "curve.csv"
    rc = run_cli(
        "density", "--scale", "w", "--par", "1.8,2.7,2.6", "--r", "2.5",
        "--grid", "0.1:6.0:50", "--out", str(out),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "length,density"
    assert len(lines) == 51
    assert (tmp_path / "curve.csv.manifest.json").is_file()
    # overwrite requires --force
    assert run_cli(
        "density", "--scale", "w", "--par", "1.8,2.7,2.6", "--r", "2.5",
        "--grid", "0.1:6.0:50", "--out", str(out),
    ) == 2


def test_density_mixture_component_selection(capsys):
    par = "0.3,0.1,1.5,2.0,2.0,2.8,2.2"
    assert run_cli("density", "--scale", "y", "--par", par, "--at", "2.0") == 0
    mix_val = float(capsys.readouterr().out.strip())
    assert run_cli("density", "--scale", "y", "--par", par, "--component", "fibers", "--at", "2.0") == 0
    fib_val = float(capsys.readouterr().out.strip())
    mix = MixtureParams(0.3, GgdParams(0.1, 1.5, 2.0), GgdParams(2.0, 2.8, 2.2))
    geom = CoreGeometry(1.0)
    assert mix_val == pytest.approx(ScaleDensity("Y", "mixture", mix, geom).pdf(2.0), rel=1e-12)
    assert fib_val == pytest.approx(ScaleDensity("Y", "fibers", mix.fibers, geom).pdf(2.0), rel=1e-12)


def test_density_requires_points():
    with pytest.raises(SystemExit) as exc:
        run_cli("density", "--scale", "y", "--par", "1.8,2.7,2.6")
    assert exc.value.code == 2


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ("simulate", "--scale", "v", "--par", "2.4,3.3,1.5", "--r", "2.5",
            "--n", "300", "--seed", "7")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    vals = [float(line) for line in a.read_text().splitlines()]
    assert len(vals) == 300
    assert all(0.0 < v < 5.0 for v in vals)
    manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
    assert manifest["command"] == "simulate" and manifest["seed"] == 7


def test_simulate_rejects_bad_specs(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run_cli("simulate", "--scale", "v", "--par", "2.4,3.3,1.5", "--r", "2.5",
                   "--n", "0", "--out", str(out)) == 2
    assert run_cli("simulate", "--scale", "x", "--par", "2.4,3.3,1.5", "--r", "2.5",
                   "--n", "5", "--out", str(out)) == 2
    assert run_cli("simulate", "--scale", "v", "--par", "0.3,0.1,1.5,2,2,2.8,2.2",
                   "--r", "2.5", "--n", "5", "--out", str(out)) == 2
    capsys.readouterr()
    # a ValueError of the library: --par outside the family's domain
    rc = run_cli("simulate", "--scale", "v", "--par=-2.4,3.3,1.5", "--r", "2.5", "--n", "5", "--out", str(out))
    assert_error(capsys, rc, 2, "error: b, d, k must all be finite and strictly positive")
    assert not out.exists()


def test_simulate_with_a_hopeless_rejection_rate_exits_2(tmp_path, capsys):
    # lengths near 1e6 against r = 1 accept about 1e-5 of the W proposals:
    # an input problem, once a bare RuntimeError and a traceback with exit 1
    out = tmp_path / "w.txt"
    rc = run_cli("simulate", "--scale", "w", "--par", "1e6,1,1", "--r", "1", "--n", "10", "--out", str(out))
    assert_error(capsys, rc, 2, "error: rejection acceptance rate")
    assert not out.exists()


def test_fit_requires_r():
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--data", "nofile.txt", "--out", "nowhere")
    assert exc.value.code == 2


def test_fit_data_validation_exit(tmp_path, capsys):
    data, out = tmp_path / "bad.txt", tmp_path / "o"
    data.write_text("1.0\n2.0\n# comment\n13.5\n")
    rc = run_cli("fit", "--data", str(data), "--r", "6", "--out", str(out))
    # a DataValidationError: 13.5 outside (0, 12)
    assert_error(capsys, rc, 2, "error: observed lengths must lie strictly inside (0, 2r)")
    data.write_text("1.0\n2.0,\n")
    rc = run_cli("fit", "--data", str(data), "--r", "6", "--out", str(out))
    assert_error(capsys, rc, 2, f"error: {data}:2: not a number")  # a CliError
    assert not out.exists()


def test_fit_par_start_outside_the_domain_exits_2(tmp_path):
    # a negative b once reached a log before any check: a RuntimeWarning, and under
    # -W error::RuntimeWarning a traceback with exit 1; so did a bound of 0 or
    # below, and a NaN bound was rejected without naming the bound
    data, out = tmp_path / "v.txt", tmp_path / "fit"
    assert run_cli("simulate", "--scale", "v", "--par", "2.4,3.3,1.5", "--r", "2.5",
                   "--n", "100", "--seed", "9", "--out", str(data)) == 0
    for flag in ("--par-start=-2.4,3.3,1.5", "--lower=-1,0.1,0.1", "--lower=0,0.1,0.1",
                 "--lower=nan,0.1,0.1", "--upper=50,inf,50"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fiberfit.cli", "fit", "--data", str(data),
             "--data-type", "microscopy", "--model", "ggamma", "--r", "2.5", flag, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        name = flag[2:].split("=")[0].replace("-", "_")
        assert proc.stderr.startswith(f"error: {name}") and "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()  # a failed run writes nothing


@pytest.mark.parametrize("error", [FitError("all optimization starts failed", []),
                                   EvaluationError("censored-tail integral failed")])
def test_failed_fit_writes_nothing(tmp_path, capsys, monkeypatch, error):
    # --out was once made before the fit, so a failed run left an empty
    # directory that the corrected rerun could only replace with --force
    data, out = tmp_path / "v.txt", tmp_path / "fit"
    assert run_cli("simulate", "--scale", "v", "--par", "2.4,3.3,1.5", "--r", "2.5",
                   "--n", "100", "--seed", "9", "--out", str(data)) == 0
    args = ("fit", "--data", str(data), "--data-type", "microscopy", "--model", "ggamma", "--r", "2.5",
            "--starts", "1", "--out", str(out))

    def fail(*_):
        raise error

    monkeypatch.setattr(cli, "fit", fail)
    assert_error(capsys, run_cli(*args), 3, f"error: {error}")
    assert not out.exists()
    out.mkdir()
    assert_error(capsys, run_cli(*args), 2, "error: output")  # refused before the fit
    out.rmdir()
    monkeypatch.undo()
    assert run_cli(*args) == 0 and (out / "fit.json").is_file()


def test_fit_end_to_end_and_roundtrip(tmp_path):
    data = tmp_path / "v.txt"
    assert run_cli("simulate", "--scale", "v", "--par", "2.4,3.3,1.5", "--r", "2.5",
                   "--n", "200", "--seed", "9", "--out", str(data)) == 0
    out = tmp_path / "fit"
    rc = run_cli("fit", "--data", str(data), "--data-type", "microscopy", "--model", "ggamma",
                 "--r", "2.5", "--starts", "2", "--seed", "1", "--out", str(out))
    assert rc == 0
    names = {p.name for p in out.iterdir()}
    assert {"fit.json", "summary.txt", "manifest.json", "density_v.csv",
            "density_y.csv", "density_w.csv"} <= names

    blob = json.loads((out / "fit.json").read_text())
    assert blob["convergence"] == "success"
    assert blob["param_names"] == ["b", "d", "k"]

    # stored estimates reproduce the stored density curves exactly
    params = GgdParams(*blob["estimates_original"])
    geom = CoreGeometry(blob["r"])
    rows = (out / "density_v.csv").read_text().splitlines()[1:]
    xs = np.array([float(r.split(",")[0]) for r in rows])
    fs = np.array([float(r.split(",")[1]) for r in rows])
    again = ScaleDensity("V", "fibers", params, geom).pdf(xs)
    assert np.abs(again - fs).max() < 1e-12

    text = (out / "summary.txt").read_text()
    assert "Microscopy data (uncut fibers in the core)" in text
    assert "Model parameters:" in text
    assert "'-'Loglik" in text
    assert "Convergence:" in text

    # re-running without --force refuses to stomp the directory
    rc2 = run_cli("fit", "--data", str(data), "--data-type", "microscopy", "--model", "ggamma",
                  "--r", "2.5", "--starts", "2", "--seed", "1", "--out", str(out))
    assert rc2 == 2

    # full command-level round trip: feed fit.json estimates back through the
    # density command on the stored grid and compare to the stored curve
    curve2 = tmp_path / "again.csv"
    par_csv = ",".join(repr(v) for v in blob["estimates_original"])
    at_csv = ",".join(repr(float(x)) for x in xs[:40])
    rc3 = run_cli("density", "--scale", "v", "--model", "ggamma", "--par", par_csv,
                  "--r", repr(blob["r"]), "--at", at_csv, "--out", str(curve2))
    assert rc3 == 0
    rows2 = curve2.read_text().splitlines()[1:]
    fs2 = np.array([float(r.split(",")[1]) for r in rows2])
    assert np.abs(fs2 - fs[:40]).max() < 1e-12


def _stats_rows(lines):
    """The Estimate / Std. Error rows of every summary-statistics table, split on whitespace."""
    rows, in_stats = [], False
    for line in lines:
        in_stats = line.startswith("Summary statistics") or (in_stats and line != "")
        if in_stats and line.startswith(("Estimate", "Std. Error")):
            rows.append(line.split())
    return rows


def test_summary_cells_never_touch(tmp_path):
    # a lognormal OFA fit whose fibers W skewness and kurtosis, 13.32297 and
    # 1028.44519, once ran together as "13.322971028.44519"; its start leads to
    # an interior optimum with standard errors, where the fines sigma is 0.0044
    geom = CoreGeometry(6.0)
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data, out = tmp_path / "x.txt", tmp_path / "fit"
    x = sample_x(SimSpec("X", truth, geom, 500, seed=31))
    data.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    assert run_cli("fit", "--data", str(data), "--data-type", "ofa", "--model", "lognorm", "--r", "6",
                   "--starts", "1", "--par-start=0.02,-3.2,0.05,0.2,1.3", "--out", str(out)) == 0
    rows = _stats_rows((out / "summary.txt").read_text().splitlines())
    wide = ComponentStats(13.32297, 3.5, 13.32297, 1028.44519, 0.1, 0.4, 1.9, 1028.44519)
    rows += _stats_rows(_stats_table("Summary statistics for FIBER lengths in the standing tree:", wide))
    assert len(rows) == 6
    for row in rows:
        label = 2 if row[0] == "Std." else 1
        assert len(row) == label + 4
        [float(v) for v in row[label:]]


def test_fit_fixed_parameters_recorded(tmp_path):
    data = tmp_path / "x.txt"
    assert run_cli("simulate", "--scale", "x", "--par", "0.3,0.1,1.5,2.0,2.0,2.8,2.2",
                   "--r", "6", "--n", "300", "--seed", "5", "--out", str(data)) == 0
    out = tmp_path / "fit"
    rc = run_cli("fit", "--data", str(data), "--model", "ggamma", "--r", "6",
                 "--par-start", ".5,.01,1,1,2,1,1",
                 "--fixed", "false,false,true,false,false,true,false",
                 "--starts", "2", "--seed", "2", "--out", str(out))
    assert rc == 0
    blob = json.loads((out / "fit.json").read_text())
    assert blob["fixed"] == [False, False, True, False, False, True, False]
    assert blob["estimates_original"][2] == 1.0
    assert blob["estimates_original"][5] == 1.0


def test_fit_json_summary_lists_every_statistic(tmp_path):
    # the summary block holds every SummaryStats field but the fit-level
    # loglik, n and convergence, in field order
    data = tmp_path / "x.txt"
    assert run_cli("simulate", "--scale", "x", "--par", "0.3,0.1,1.5,2.0,2.0,2.8,2.2",
                   "--r", "6", "--n", "300", "--seed", "6", "--out", str(data)) == 0
    out = tmp_path / "fit"
    assert run_cli("fit", "--data", str(data), "--model", "ggamma", "--r", "6",
                   "--starts", "1", "--out", str(out)) == 0
    summary = json.loads((out / "fit.json").read_text())["summary"]
    names = [f.name for f in fields(SummaryStats) if f.name not in ("loglik", "n", "convergence")]
    assert list(summary) == names
    for component in ("fines", "fibers"):
        assert list(summary[component]) == [f.name for f in fields(ComponentStats)]
    assert summary["se_mean_w_overall"] > 0.0


def test_svg_rendering(tmp_path):
    svg = tmp_path / "plot.svg"
    rc = run_cli("density", "--scale", "y", "--par", "1.8,2.7,2.6",
                 "--grid", "0.1:5.0:64", "--svg", str(svg))
    assert rc == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberfit.cli", "density", "--scale", "y",
         "--par", "1.8,2.7,2.6", "--at", "2.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - 0.6689186996) < 1e-9
