"""Transforms between the four cell-length populations.

Populations (see the package README for the sampling picture):

* W - true cell lengths in the standing tree (inference target),
* Y - true lengths of cells at least partially inside the core; a
      length-biased version of W with weight proportional to pi*r + 2*w,
* X - lengths observed in the core by an optical fiber analyzer; cut-censored
      Y with support (0, 2r),
* V - lengths of uncut fibers in the core (microscopy), support (0, 2r).

Parametric assumptions live on the Y scale; everything here maps a Y-scale
component or mixture to the other three scales:

    f_W(w) = (pi r + 2 E(W)) / (pi r + 2 w) * f_Y(w)
    f_V(v) = f_Y(v) p_uc(v) / k_theta,   k_theta = int_0^2r f_Y p_uc
    f_X(x) = p_uc(x) f_Y(x) + int_x^inf k(x|y) f_Y(y) dy

E(W) of a component solves 1 / (pi r + 2 E(W)) = int f_Y(y) / (pi r + 2 y) dy.

Expensive per-parameter constants (component W-means, k_theta, tail
truncation points) are memoized on the frozen parameter dataclasses, so a
likelihood evaluation computes each once regardless of the number of data
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densities import (
    ComponentParams,
    GgdParams,
    MixtureParams,
    component_pdf,
)
from .geometry import CoreGeometry, _prob_uncut_unchecked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _geometric_edges, integrate, segment_integrals

__all__ = [
    "ScaleDensity",
    "component_tail",
    "mean_w_component",
    "moment_w",
    "density_w_component",
    "density_v",
    "density_x_component",
    "density_x_mixture",
    "density_y_mixture",
    "density_w_mixture",
    "tree_composition",
    "k_theta",
]

_SCALES = ("W", "Y", "X", "V")
_COMPONENTS = ("fines", "fibers", "mixture")


_TAIL_CAP = 1e15  # beyond this the neglected mass is accepted; such shapes
# only arise transiently at extreme optimizer iterates


@lru_cache(maxsize=512)
def component_tail(p: ComponentParams, tail_cutoff: float = DEFAULT_CONFIG.tail_cutoff) -> float:
    """Upper truncation point U with survival mass past U below tail_cutoff.

    Seeded from a crude high quantile of the component (b (k + 10/d)^(1/d)
    for the generalized gamma, exp(mu + 8 sigma) for the lognormal) and
    doubled until pdf(U) * U drops below the cutoff.
    """
    if isinstance(p, GgdParams):
        log_start = np.log(p.b) + np.log(p.k + 10.0 / p.d) / p.d
    else:
        log_start = p.mu + 8.0 * p.sigma
    u = float(np.exp(min(log_start, np.log(_TAIL_CAP))))
    u = max(u, 1e-6)
    while u < _TAIL_CAP:
        if component_pdf(u, p) * max(u, 1.0) < tail_cutoff:
            return u
        u = min(u * 2.0, _TAIL_CAP)
    return _TAIL_CAP


@lru_cache(maxsize=512)
def _harmonic_weight_integral(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig) -> float:
    """int_0^inf f_Y(y) / (pi r + 2 y) dy."""
    pir = np.pi * geom.r
    u = component_tail(p, cfg.tail_cutoff)
    return integrate(lambda y: component_pdf(y, p) / (pir + 2.0 * y), 0.0, np.inf, cfg, tail_start=u)


def mean_w_component(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Expected cell length on the W (standing tree) scale for one component."""
    i0 = _harmonic_weight_integral(p, geom, cfg)
    return 0.5 / i0 - 0.5 * np.pi * geom.r


def moment_w(m: int, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m-th raw moment of the component's W-scale distribution, m in 1..4."""
    if m not in (1, 2, 3, 4):
        raise ValueError("moment order m must be one of 1, 2, 3, 4")
    pir = np.pi * geom.r
    ew = mean_w_component(p, geom, cfg)
    u = component_tail(p, cfg.tail_cutoff)
    val = integrate(
        lambda y: y**m * component_pdf(y, p) / (pir + 2.0 * y),
        0.0,
        np.inf,
        cfg,
        tail_start=u,
    )
    return (pir + 2.0 * ew) * val


def density_w_component(w, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Tree-scale density of one component at w >= 0."""
    arr = np.asarray(w, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("w must be nonnegative")
    ew = mean_w_component(p, geom, cfg)
    pir = np.pi * geom.r
    out = (pir + 2.0 * ew) / (pir + 2.0 * arr) * component_pdf(arr, p)
    return float(out) if np.ndim(w) == 0 else out


@lru_cache(maxsize=512)
def k_theta(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Probability that a core cell from f_Y is uncut: int_0^2r f_Y p_uc."""
    hi = min(2.0 * geom.r, component_tail(p, cfg.tail_cutoff))
    edges = np.linspace(0.0, hi, 17)
    vals = segment_integrals(
        lambda y: component_pdf(y, p) * _prob_uncut_unchecked(y, geom.r), edges, cfg
    )
    return float(vals.sum())


def density_v(v, p_fibers: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of uncut-fiber lengths in the core (microscopy scale)."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 2.0 * geom.r):
        raise ValueError("v must lie strictly inside (0, 2r)")
    norm = k_theta(p_fibers, geom, cfg)
    out = component_pdf(arr, p_fibers) * _prob_uncut_unchecked(arr, geom.r) / norm
    return float(out) if np.ndim(v) == 0 else out


def _censored_tail_terms(x_sorted, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig, stack_fn, n_stack: int):
    """Suffix integrals of the cut-length kernel against a density stack.

    For each ascending point x_i returns

        T_q(x_i) = int_{x_i}^U  g_q(y) / t(y) dy
        S_q(x_i) = int_{x_i}^U  y g_q(y) / t(y) dy

    where g_q are the n_stack rows produced by stack_fn(y).  Points at or
    beyond the component's truncation point U get zeros.  One quadrature tree
    is shared by all rows.  Density-row segments are clamped at zero (an
    interpolant readout can dip below), so T_0 and S_0 never increase in x.
    """
    r = geom.r
    u = component_tail(p, cfg.tail_cutoff)
    T = np.zeros((n_stack, x_sorted.size))
    S = np.zeros((n_stack, x_sorted.size))
    inside = x_sorted < u
    if not np.any(inside):
        return T, S
    xs = x_sorted[inside]
    # tail panels past the largest data point, geometric toward U
    top = xs[-1]
    if u / max(top, 1e-300) > 1.0 + 1e-12:
        edges = np.concatenate([xs, _geometric_edges(top, u, 24)])
    else:
        edges = np.concatenate([xs, [u]])

    def integrand(y):
        g = stack_fn(y)
        w = 1.0 / (np.pi * r * r + 2.0 * r * y)
        return np.concatenate([g * w, g * (y * w)], axis=0)

    seg = segment_integrals(integrand, edges, cfg)
    seg[[0, n_stack]] = np.maximum(seg[[0, n_stack]], 0.0)
    suffix = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    T[:, inside] = suffix[:n_stack, : xs.size]
    S[:, inside] = suffix[n_stack:, : xs.size]
    return T, S


def _censored_component_stack(xu, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig, stack_fn, n_stack: int):
    """Observed-scale (X) values of a density stack at sorted unique points.

    Evaluates p_uc(x) g_q(x) + int_x^inf k(x|y) g_q(y) dy for each stack row,
    vectorized over xu (strictly ascending) through one shared
    suffix-quadrature pass.
    """
    r = geom.r
    T, S = _censored_tail_terms(xu, p, geom, cfg, stack_fn, n_stack)
    direct = stack_fn(xu) * _prob_uncut_unchecked(xu, r)
    root = np.sqrt(np.clip(4.0 * r * r - xu * xu, 0.0, None))
    direct += ((8.0 * r * r - 3.0 * xu * xu) * T + xu * S) / root
    return direct


def density_x_component(x, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of the observed (cut or uncut) lengths of one component."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr <= 0.0) or np.any(arr >= 2.0 * geom.r):
        raise ValueError("x must lie strictly inside (0, 2r)")
    stack_fn = lambda y: np.atleast_2d(component_pdf(y, p))
    xu, inv = np.unique(arr, return_inverse=True)
    out = _censored_component_stack(xu, p, geom, cfg, stack_fn, 1)[0][inv]
    return float(out[0]) if np.ndim(x) == 0 else out


def density_x_mixture(x, mix: MixtureParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Observed-scale mixture density eps f_X_fines + (1 - eps) f_X_fibers."""
    fines = density_x_component(x, mix.fines, geom, cfg) if mix.eps > 0.0 else 0.0
    fibers = density_x_component(x, mix.fibers, geom, cfg) if mix.eps < 1.0 else 0.0
    return mix.eps * fines + (1.0 - mix.eps) * fibers


def density_y_mixture(y, mix: MixtureParams):
    """Core-scale mixture density (no censoring)."""
    fines = component_pdf(y, mix.fines) if mix.eps > 0.0 else 0.0
    fibers = component_pdf(y, mix.fibers) if mix.eps < 1.0 else 0.0
    return mix.eps * fines + (1.0 - mix.eps) * fibers


def density_w_mixture(w, mix: MixtureParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Tree-scale mixture density with the tree-scale fines proportion."""
    eps_tilde, _ = tree_composition(mix, geom, cfg)
    fines = density_w_component(w, mix.fines, geom, cfg) if mix.eps > 0.0 else 0.0
    fibers = density_w_component(w, mix.fibers, geom, cfg) if mix.eps < 1.0 else 0.0
    return eps_tilde * fines + (1.0 - eps_tilde) * fibers


def tree_composition(mix: MixtureParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Tree-scale fines proportion and expected cell length, (eps_tilde, E(W)).

    E(W) combines the component W-means with the core proportion eps:

        E(W) = (2 mn mb + eps pi r mn + (1 - eps) pi r mb)
               / (2 (eps mb + (1 - eps) mn) + pi r)

    and eps_tilde = eps (pi r + 2 E(W)) / (pi r + 2 mn), where mn and mb are
    the fines and fibers W-means.
    """
    pir = np.pi * geom.r
    eps = mix.eps
    mn = mean_w_component(mix.fines, geom, cfg)
    mb = mean_w_component(mix.fibers, geom, cfg)
    ew = (2.0 * mn * mb + eps * pir * mn + (1.0 - eps) * pir * mb) / (
        2.0 * (eps * mb + (1.0 - eps) * mn) + pir
    )
    eps_tilde = eps * (pir + 2.0 * ew) / (pir + 2.0 * mn)
    return float(eps_tilde), float(ew)


@dataclass(frozen=True)
class ScaleDensity:
    """A population-scale density bound to parameters and core geometry.

    ``scale`` is one of W/Y/X/V, ``component`` fines/fibers/mixture.  The V
    scale observes uncut fibers only, so it accepts a single fiber component;
    X and V have support (0, 2r), W and Y have support (0, inf).
    """

    scale: str
    component: str
    params: MixtureParams | ComponentParams
    geom: CoreGeometry
    cfg: QuadratureConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.scale not in _SCALES:
            raise ValueError(f"scale must be one of {_SCALES}")
        if self.component not in _COMPONENTS:
            raise ValueError(f"component must be one of {_COMPONENTS}")
        is_mix = isinstance(self.params, MixtureParams)
        if self.component == "mixture" and not is_mix:
            raise ValueError("mixture density requires MixtureParams")
        if self.scale == "V" and self.component != "fibers":
            raise ValueError("the V scale observes uncut fibers only")

    @property
    def support(self) -> tuple:
        if self.scale in ("X", "V"):
            return (0.0, 2.0 * self.geom.r)
        return (0.0, np.inf)

    def _component_params(self) -> ComponentParams:
        if isinstance(self.params, MixtureParams):
            return getattr(self.params, self.component)
        return self.params

    def pdf(self, x):
        """Evaluate the density at x (scalar or array)."""
        if self.component == "mixture":
            mix = self.params
            if self.scale == "Y":
                return density_y_mixture(x, mix)
            if self.scale == "W":
                return density_w_mixture(x, mix, self.geom, self.cfg)
            if self.scale == "X":
                return density_x_mixture(x, mix, self.geom, self.cfg)
            raise ValueError("the V scale observes uncut fibers only")
        p = self._component_params()
        if self.scale == "Y":
            return component_pdf(x, p)
        if self.scale == "W":
            return density_w_component(x, p, self.geom, self.cfg)
        if self.scale == "X":
            return density_x_component(x, p, self.geom, self.cfg)
        return density_v(x, p, self.geom, self.cfg)
