"""Workloads, seeded inputs, the correctness gate and the timed phase.

Every workload turns ``--seed`` into its inputs (dataset ``j`` of seed ``s``
is drawn with sampler seed ``1000 s + j``), sets up once untimed, then calls
the package's public entry points: ``fitting.fit`` plus
``summary.summary_stats`` for the OFA workloads and ``cli.main(["fit", ...])``
for ``micro_cli``.  Each fit is checked right after it returns (outside its
timed interval) and a failed check counts against the fits attempted.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
from scipy.special import chdtri, ndtri

from fiberfit import cli, densities, fitting, likelihood, scales, simulate, summary
from fiberfit.densities import GGAMMA, LOGNORM, GgdParams, LognParams, MixtureParams
from fiberfit.geometry import CoreGeometry
from fiberfit.likelihood import Dataset
from fiberfit.simulate import SimSpec

from tracing import Tracer, layer_metrics, traced, write_spans

OFA_TRUTH = MixtureParams(0.3, GgdParams(0.1, 1.5, 2.0), GgdParams(2.0, 2.8, 2.2))
OFA_TRUTH_VECTOR = np.array([OFA_TRUTH.eps, *astuple(OFA_TRUTH.fines), *astuple(OFA_TRUTH.fibers)])
MICRO_TRUTH = GgdParams(2.4, 3.3, 1.5)
RESOLUTION = 0.01  # length resolution of an optical fiber analyzer, mm

WARMUP_INDEX = 999  # dataset index of the untimed warm-up input, outside every pool
SETUP_REPEATS = 3

# Chance that a correct fit fails a distance-to-truth check.  Over thousands
# of fits a 4 SE limit fails correct ones: 1 of 126 ofa_exact fits lies 4.19 SE
# from the truth, with 2 (loglik - loglik at truth) = 26.5 (p = 4e-4, 7 parameters).
FALSE_ALARM = 1e-6
TRUTH_SLACK = 1e-6  # order-0 and order-2 log likelihoods differ by quadrature noise
REF_TOL_ABS = 1e-3
REF_TOL_REL = 1e-7

REFERENCES_DIR = Path(__file__).resolve().parent / "references"


@functools.cache
def load_references(workload: str) -> dict:
    """Reference log likelihood per input key, recorded by make_references.py."""
    path = REFERENCES_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def dataset_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


@dataclass
class Case:
    """One fit request: the inputs the program receives and where its outputs go."""

    key: str  # reference key: "<seed>/<index>" or "<seed>/<index>/<family>"
    values: np.ndarray
    data: Dataset | None = None
    path: Path | None = None
    family: str = GGAMMA
    out: Path | None = None
    truth_loglik: float | None = None


@dataclass
class Attempt:
    outcome: object
    seconds: float
    failure: str | None


def gate(workload: str, case: Case, convergence, se, loglik) -> str | None:
    """Why a fit is wrong, or None: the checks every fit gets (see fit_ok_ratio)."""
    if convergence != "success":
        return f"convergence {convergence}"
    if se is None:
        return "no standard errors"
    if case.truth_loglik is not None and loglik < case.truth_loglik - TRUTH_SLACK:
        return f"log likelihood {loglik!r} below its value at the truth {case.truth_loglik!r}"
    ref = load_references(workload).get(case.key)
    if ref is not None and loglik < ref - (REF_TOL_ABS + REF_TOL_REL * abs(ref)):
        return f"log likelihood {loglik!r} below the reference {ref!r}"
    return None


def likelihood_ratio_distance(case: Case, loglik: float, n_params: int) -> str | None:
    if 2.0 * (loglik - case.truth_loglik) > chdtri(n_params, FALSE_ALARM):
        return "log likelihood implausibly far above its value at the truth"
    return None


def wald_distance(estimate, se, truth) -> str | None:
    limit = -ndtri(FALSE_ALARM / (2 * len(truth)))
    z = np.abs(np.asarray(estimate, dtype=float) - truth) / np.asarray(se, dtype=float)
    if not np.all(z <= limit):
        return f"an estimate lies {np.nanmax(z):.2f} SE from the truth (limit {limit:.2f})"
    return None


def median_time(fn) -> float:
    """Median seconds per call over at least 3 calls and 0.2 s (at most 200 calls)."""
    times = []
    while len(times) < 3 or (sum(times) < 0.2 and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class OfaWorkload:
    """Censored ggamma mixture fits of optical-fiber-analyzer data, in memory."""

    geom = CoreGeometry(6.0)
    model = fitting.ModelSpec(GGAMMA, "ofa", geom)
    density_family = GGAMMA
    config = fitting.FitConfig(n_starts=1)

    def __init__(self, name: str, n: int, binned: bool, pool: int, trace_pool: int):
        self.name, self.n, self.binned = name, n, binned
        self.pool, self.trace_pool = pool, trace_pool

    def sample(self, seed: int, index: int) -> np.ndarray:
        x = simulate.sample_x(SimSpec("X", OFA_TRUTH, self.geom, self.n, dataset_seed(seed, index)))
        if self.binned:
            x = np.clip(np.round(x, 2), RESOLUTION, 2.0 * self.geom.r - RESOLUTION)
        return x

    def generate(self, seed: int, workdir: Path):
        """(cases, warm-up case, sampler seconds) for one seed."""
        indices = (*range(self.pool), WARMUP_INDEX)
        t0 = time.perf_counter()
        samples = [self.sample(seed, j) for j in indices]
        sim_s = time.perf_counter() - t0
        cases = [Case(f"{seed}/{j}", x, data=Dataset(x, "X")) for j, x in zip(indices, samples)]
        return cases[:-1], cases[-1], sim_s

    def prepare(self, case: Case):
        if case.truth_loglik is None:
            case.truth_loglik = likelihood.ofa_loglik(OFA_TRUTH, case.data, self.geom).loglik

    def call(self, case: Case):
        result = fitting.fit(case.data, self.model, self.config)
        return result, summary.summary_stats(result)

    def check(self, case: Case, outcome) -> str | None:
        result, stats = outcome
        self.prepare(case)
        failure = gate(self.name, case, result.convergence, result.se_tilde, result.loglik)
        # Rounded lengths do not follow the continuous model, so a binned fit targets a
        # shifted parameter (k1 sits about 1.6 SE low on average at n = 30 000).
        if failure is None and not self.binned:
            failure = likelihood_ratio_distance(case, result.loglik, len(OFA_TRUTH_VECTOR)) or wald_distance(
                result.theta_tilde, result.se_tilde, OFA_TRUTH_VECTOR
            )
        tree = (stats.eps_tilde, stats.se_eps_tilde, stats.fines.mean, stats.fibers.mean)
        if failure is None and not all(v is not None and np.isfinite(v) for v in tree):
            failure = "summary statistics not finite"
        return failure

    def loglik_of(self, case: Case, outcome) -> float:
        return outcome[0].loglik

    def bytes_written(self, case: Case) -> int:
        return 0

    def density_timings(self, case: Case, outcome) -> dict:
        result = outcome[0]
        mix = result.model.params_from_original(result.theta_tilde)
        x, parts = case.values, (mix.fines, mix.fibers)
        return {
            "scales.density_x_s": median_time(lambda: scales.density_x_mixture(x, mix, self.geom)),
            "densities.pdf_s": median_time(lambda: [densities.ggd_pdf(x, p) for p in parts]),
            "densities.grad_s": median_time(lambda: [densities.ggd_grad_theta(x, p) for p in parts]),
            "densities.hess_s": median_time(lambda: [densities.ggd_hess_theta(x, p) for p in parts]),
        }


class CliWorkload:
    """In-process ``fiberfit fit`` runs on microscopy files, both families, default starts.

    A batch is 6 files times the two families.  A run goes through distinct
    batches, because the work of one batch varies with its data.
    """

    geom = CoreGeometry(2.5)
    density_family = LOGNORM
    files_per_batch = 6
    n = 300
    outputs = ("summary.txt", "fit.json", "manifest.json", "density_v.csv", "density_y.csv", "density_w.csv")

    def __init__(self, name: str, batches: int):
        self.name = name
        self.files = batches * self.files_per_batch
        self.trace_pool = 2 * self.files_per_batch

    def generate(self, seed: int, workdir: Path):
        indices = (*range(self.files), WARMUP_INDEX)
        t0 = time.perf_counter()
        samples = [
            simulate.sample_v(SimSpec("V", MICRO_TRUTH, self.geom, self.n, dataset_seed(seed, j)))
            for j in indices
        ]
        sim_s = time.perf_counter() - t0
        cases = []
        for j, v in zip(indices, samples):
            path = workdir / f"v{j}.txt"
            path.write_text("\n".join(repr(float(x)) for x in v) + "\n")
            for family in (GGAMMA, LOGNORM):
                out = workdir / f"fit{j}-{family}"
                cases.append(Case(f"{seed}/{j}/{family}", v, path=path, family=family, out=out))
        return cases[:-2], cases[-2], sim_s

    def prepare(self, case: Case):
        if case.family == GGAMMA and case.truth_loglik is None:
            data = Dataset(case.values, "V")
            case.truth_loglik = likelihood.micro_loglik(MICRO_TRUTH, data, self.geom).loglik

    def call(self, case: Case) -> int:
        argv = [
            "fit", "--data", str(case.path), "--data-type", "microscopy", "--model", case.family,
            "--r", repr(self.geom.r), "--out", str(case.out), "--force",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, case: Case, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        missing = [name for name in self.outputs if not (case.out / name).is_file()]
        if missing:
            return f"missing outputs {missing}"
        self.prepare(case)
        fit = json.loads((case.out / "fit.json").read_text())
        failure = gate(self.name, case, fit["convergence"], fit["se_original"], fit["loglik"])
        # At n = 300, b, d and k of the ggamma are so correlated that correct fits land
        # up to 6.3 Wald SE from the truth, so only the likelihood ratio judges the
        # distance; the lognormal fits have no true parameter.
        if failure is None and case.family == GGAMMA:
            failure = likelihood_ratio_distance(case, fit["loglik"], 3)
        return failure

    def loglik_of(self, case: Case, outcome) -> float:
        return json.loads((case.out / "fit.json").read_text())["loglik"]

    def bytes_written(self, case: Case) -> int:
        return sum(p.stat().st_size for p in case.out.iterdir())

    def density_timings(self, case: Case, outcome) -> dict:
        fit = json.loads((case.out / "fit.json").read_text())
        p = LognParams(*fit["estimates_original"])
        v = case.values
        return {
            "scales.density_x_s": median_time(lambda: scales.density_x_component(v, p, self.geom)),
            "densities.pdf_s": median_time(lambda: densities.logn_pdf(v, p)),
            "densities.grad_s": median_time(lambda: densities.logn_grad_theta(v, p)),
            "densities.hess_s": median_time(lambda: densities.logn_hess_theta(v, p)),
        }


WORKLOADS = {
    "ofa_exact": OfaWorkload("ofa_exact", n=20_000, binned=False, pool=6, trace_pool=1),
    "ofa_binned": OfaWorkload("ofa_binned", n=30_000, binned=True, pool=8, trace_pool=2),
    "micro_cli": CliWorkload("micro_cli", batches=16),
}


def clear_memo_caches():
    """Empty the package's functools caches, so a repeated input costs what a new one does."""
    for name, module in list(sys.modules.items()):
        if name == "fiberfit" or name.startswith("fiberfit."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def attempt(wl, case: Case) -> Attempt:
    """One timed fit request; an exception is a failed fit, not a crash of the run."""
    clear_memo_caches()
    t0 = time.perf_counter()
    try:
        outcome = wl.call(case)
    except Exception:
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Attempt(None, seconds, "raised " + traceback.format_exc(limit=1).splitlines()[-1])
    seconds = time.perf_counter() - t0
    return Attempt(outcome, seconds, wl.check(case, outcome))


def cold_import_s(root: Path) -> float:
    code = "import time; t = time.perf_counter(); import fiberfit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout)


def setup(wl, seed: int, root: Path, workdir: Path):
    """Cold import and input generation (medians of repeats) plus one warm-up fit."""
    import_s = statistics.median(cold_import_s(root) for _ in range(SETUP_REPEATS))
    gen_s, sim_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases, warm, sim = wl.generate(seed, workdir)
        gen_s.append(time.perf_counter() - t0)
        sim_s.append(sim)
    t0 = time.perf_counter()
    warm_up = wl.call(warm)
    warm_s = time.perf_counter() - t0
    failure = wl.check(warm, warm_up)
    if failure is not None:
        raise RuntimeError(f"warm-up fit failed: {failure}")
    return cases, import_s + statistics.median(gen_s) + warm_s, statistics.median(sim_s)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run(name: str, seed: int, seconds: float, trace: bool, root: Path):
    """Returns (metrics, attempts, inputs line); metrics hold end-to-end or per-layer values."""
    wl = WORKLOADS[name]
    workdir = root / ".bench_run" / f"{name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases, setup_s, sim_s = setup(wl, seed, root, workdir)
        if trace:
            metrics, attempts, used = _traced_run(wl, cases, root / ".bench_run" / f"spans-{name}-{seed}.json")
            metrics["simulate.s"] = sim_s
        else:
            attempts, used = _timed_run(wl, cases, seconds)
            ok = sum(a.failure is None for a in attempts)
            metrics = {
                "fit_s": sum(a.seconds for a in attempts) / len(attempts),
                "fit_ok_ratio": ok / len(attempts),
                "peak_rss_mb": _peak_rss_mb(),
                "setup_s": setup_s,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    distinct = {id(c.values): c.values for c in used}  # both CLI families share one file
    shares = [np.unique(v).size / v.size for v in distinct.values()]
    if trace:
        metrics["likelihood.unique_share"] = float(np.mean(shares))
    inputs = (
        f"{name} seed {seed}: {len(distinct)} datasets, n = {wl.n}, "
        f"unique share {np.mean(shares):.4f}, fits {len(attempts)}"
    )
    return metrics, attempts, inputs


def _timed_run(wl, cases, seconds):
    attempts, used = [], []
    deadline = time.perf_counter() + seconds
    for case in itertools.cycle(cases):
        attempts.append(attempt(wl, case))
        used.append(case)
        if time.perf_counter() >= deadline:
            return attempts, used


def _traced_run(wl, cases, spans_path: Path):
    """Untraced then traced pass over the same inputs; per-fit layer metrics."""
    cases = cases[: wl.trace_pool]
    for case in cases:  # keep the gate's own likelihood calls out of the spans
        wl.prepare(case)
    untraced = [attempt(wl, case) for case in cases]
    tracer = Tracer()
    traced_attempts, written = [], 0
    with traced(tracer):
        for case in cases:
            tracer.next_fit()
            traced_attempts.append(attempt(wl, case))
            written += wl.bytes_written(case)
    write_spans(tracer.spans, spans_path)

    fits = len(cases)
    metrics = layer_metrics(tracer.spans, fits)
    metrics["cli.bytes_written"] = written / fits
    metrics["trace.overhead_ratio"] = sum(a.seconds for a in traced_attempts) / sum(
        a.seconds for a in untraced
    )
    # standalone density timings at the first good estimate of the workload's density family
    case, att = next(
        (c, a) for c, a in zip(cases, traced_attempts) if a.failure is None and c.family == wl.density_family
    )
    metrics.update(wl.density_timings(case, att.outcome))
    return metrics, untraced + traced_attempts, cases
