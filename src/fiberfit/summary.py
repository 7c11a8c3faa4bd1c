"""Tree-scale summary statistics and delta-method standard errors.

For each component the W-scale mean, standard deviation, skewness and
kurtosis are plug-in functionals of the fitted parameters, built from raw
moments

    E(W^m) = int y^m (pi r + 2 mu) / (pi r + 2 y) f_Y(y) dy,

with mu solving the m = 0 normalization.  Skewness and kurtosis use the
central-moment definitions

    skew = E(W - mu)^3 / sd^3,    kurt = E(W - mu)^4 / sd^4.

Standard errors propagate the theta-scale covariance through the analytic
gradients of each statistic: component statistics depend only on their own
component's coordinates (their gradient is zero elsewhere, including the
mixing proportion), while the tree-scale fines proportion eps_tilde and the
overall mean cell length E(W) depend on every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import ComponentParams, MixtureParams, _n_coords
from .geometry import CoreGeometry
from .fitting import FitResult, MICROSCOPY
from .scales import _w_moments

__all__ = [
    "ComponentStats",
    "SummaryStats",
    "summary_stats",
    "summary_ses",
    "component_stat_gradients",
    "tree_stat_gradients",
]


@dataclass
class ComponentStats:
    mean: float
    sd: float
    skewness: float
    kurtosis: float
    se_mean: float | None = None
    se_sd: float | None = None
    se_skewness: float | None = None
    se_kurtosis: float | None = None


@dataclass
class SummaryStats:
    """W-scale statistics of a fit; fines and tree fields are None for microscopy."""

    fibers: ComponentStats
    fines: ComponentStats | None
    eps_tilde: float | None
    se_eps_tilde: float | None
    mean_w_overall: float | None
    se_mean_w_overall: float | None
    loglik: float
    n: int
    convergence: str


def component_stat_gradients(p: ComponentParams, geom: CoreGeometry):
    """Values and theta-gradients of the component's W-scale statistics.

    Returns a dict mapping ``mean``/``sd``/``skewness``/``kurtosis`` to
    (value, gradient over the component's own theta coordinates).  Raises
    QuadratureError when a moment overflows double range.
    """
    pir = np.pi * geom.r
    J, Jg = _w_moments(p, geom, 4)

    i0 = J[0]
    mu = 0.5 / i0 - 0.5 * pir
    dmu = -0.5 / i0**2 * Jg[0]

    scale = pir + 2.0 * mu
    E = {m: scale * J[m] for m in (1, 2, 3, 4)}
    dE = {m: 2.0 * J[m] * dmu + scale * Jg[m] for m in (1, 2, 3, 4)}

    var = E[2] - mu * mu
    dvar = dE[2] - 2.0 * mu * dmu
    sd = np.sqrt(var)
    dsd = dvar / (2.0 * sd)

    m3 = E[3] - 3.0 * mu * E[2] + 2.0 * mu**3
    dm3 = dE[3] - 3.0 * mu * dE[2] + (-3.0 * E[2] + 6.0 * mu * mu) * dmu
    skew = m3 / sd**3
    dskew = dm3 / sd**3 - 1.5 * m3 / sd**5 * dvar

    m4 = E[4] - 4.0 * mu * E[3] + 6.0 * mu * mu * E[2] - 3.0 * mu**4
    dm4 = dE[4] - 4.0 * mu * dE[3] + 6.0 * mu * mu * dE[2] + (
        -4.0 * E[3] + 12.0 * mu * E[2] - 12.0 * mu**3
    ) * dmu
    kurt = m4 / var**2
    dkurt = dm4 / var**2 - 2.0 * m4 / var**3 * dvar

    return {
        "mean": (float(mu), dmu),
        "sd": (float(sd), dsd),
        "skewness": (float(skew), dskew),
        "kurtosis": (float(kurt), dkurt),
    }


def tree_stat_gradients(mix: MixtureParams, geom: CoreGeometry):
    """eps_tilde and E(W) with full-theta gradients for a mixture.

    Gradient layout matches the likelihood: (eps coordinate, fines block,
    fibers block).  Also returns the per-component statistics embedded into
    full-length gradient vectors under ``fines`` and ``fibers``.
    """
    pir = np.pi * geom.r
    eps = mix.eps
    cn = _n_coords(mix.fines)
    n_par = 1 + 2 * cn

    stats_n = component_stat_gradients(mix.fines, geom)
    stats_b = component_stat_gradients(mix.fibers, geom)
    mn, dmn = stats_n["mean"]
    mb, dmb = stats_b["mean"]

    den = 2.0 * (eps * mb + (1.0 - eps) * mn) + pir
    num = 2.0 * mn * mb + eps * pir * mn + (1.0 - eps) * pir * mb
    ew = num / den

    de = eps - eps * eps
    g_ew = np.zeros(n_par)
    g_ew[0] = de * (mn - mb) * (pir + 2.0 * ew) / den
    dew_dmn = (2.0 * mb + eps * pir) / den - 2.0 * (1.0 - eps) * num / den**2
    dew_dmb = (2.0 * mn + (1.0 - eps) * pir) / den - 2.0 * eps * num / den**2
    g_ew[1 : 1 + cn] = dew_dmn * dmn
    g_ew[1 + cn :] = dew_dmb * dmb

    w = pir + 2.0 * mn
    eps_tilde = eps * (pir + 2.0 * ew) / w
    g_et = np.zeros(n_par)
    g_et[0] = de * (pir + 2.0 * ew) / w + 2.0 * eps / w * g_ew[0]
    g_et[1 : 1 + cn] = 2.0 * eps / w * g_ew[1 : 1 + cn] - eps * (pir + 2.0 * ew) * 2.0 / w**2 * dmn
    g_et[1 + cn :] = 2.0 * eps / w * g_ew[1 + cn :]

    def embed(stats, offset):
        out = {}
        for name, (val, grad) in stats.items():
            g = np.zeros(n_par)
            g[offset : offset + cn] = grad
            out[name] = (val, g)
        return out

    return {
        "eps_tilde": (float(eps_tilde), g_et),
        "mean_w": (float(ew), g_ew),
        "fines": embed(stats_n, 1),
        "fibers": embed(stats_b, 1 + cn),
    }


def _se(grad, cov) -> float | None:
    if cov is None:
        return None
    return float(np.sqrt(max(float(grad @ cov @ grad), 0.0)))


def _component_stats(stats, cov) -> ComponentStats:
    values = {name: value for name, (value, _) in stats.items()}
    return ComponentStats(**values, **{f"se_{name}": _se(grad, cov) for name, (_, grad) in stats.items()})


def summary_stats(fit: FitResult) -> SummaryStats:
    """W-scale summary of a fit: per-component statistics with SEs,
    and for mixture fits the tree-scale fines proportion and mean length.

    The statistics are those of the fit's own core radius, since Y is W
    length-biased by pi r + 2 w.  The SEs are conditional on the
    coordinates that the fit holds on a bound (``FitResult.on_bound``).
    """
    geom, cov = fit.model.geom, fit.cov_theta
    params = fit.model.params_from_original(fit.theta_tilde)

    if fit.model.data_type == MICROSCOPY:  # no fines and no tree-scale fields
        fibers = _component_stats(component_stat_gradients(params, geom), cov)
        return SummaryStats(fibers, *(None,) * 5, loglik=fit.loglik, n=fit.n, convergence=fit.convergence)

    tree = tree_stat_gradients(params, geom)
    return SummaryStats(
        fibers=_component_stats(tree["fibers"], cov),
        fines=_component_stats(tree["fines"], cov),
        eps_tilde=tree["eps_tilde"][0],
        se_eps_tilde=_se(tree["eps_tilde"][1], cov),
        mean_w_overall=tree["mean_w"][0],
        se_mean_w_overall=_se(tree["mean_w"][1], cov),
        loglik=fit.loglik,
        n=fit.n,
        convergence=fit.convergence,
    )


def summary_ses(fit: FitResult) -> dict:
    """Delta-method standard errors of every summary statistic.

    Keys are ``fines.mean``, ``fibers.kurtosis``, ..., plus ``eps_tilde``
    and ``mean_w`` for mixture fits.  Raises when the fit carries no usable
    covariance.
    """
    if fit.cov_theta is None:
        raise ValueError("no covariance available: fit did not produce a usable Hessian")
    stats = summary_stats(fit)
    out = {}
    for comp in ("fines", "fibers"):
        if (cs := getattr(stats, comp)) is not None:
            for name in ("mean", "sd", "skewness", "kurtosis"):
                out[f"{comp}.{name}"] = getattr(cs, f"se_{name}")
    if stats.eps_tilde is not None:
        out["eps_tilde"] = stats.se_eps_tilde
        out["mean_w"] = stats.se_mean_w_overall
    return out
