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

E(W) of a component solves 1 / (pi r + 2 E(W)) = int f_Y(y) / (pi r + 2 y) dy;
its W moments and their theta-gradients share one memoized quadrature pass.

k_theta and its theta-derivatives (the microscopy normalizer) are one
integral in log length, shared by :func:`k_theta` and the microscopy
likelihood: with t = log y standardized to s = d (t - log b) (generalized
gamma) or (t - mu) / sigma (lognormal), int_{s_lo}^{s(hi)} g(s) p_uc(e^t) ds
over the density g of s and its derivative rows, hi = min(2r, U).  Panels end
at the quantiles of s at fixed probabilities times F(hi), the component's
mass below hi, and at the images of the 16 equal y-panel ends hi j / 16;
s_lo is the quantile at tail_cutoff F(hi) with y halved, and the absolute
tolerance is abs_tol F(hi).

The censored part of f_X is a pair of suffix integrals of the density over
t(y) = pi r^2 + 2 r y and y / t(y).  One quadrature tree per evaluation
serves every stack row of both mixture components (a component with zero
weight is left out), with the data points as edges; the likelihood reads
the value rows at the points and sums the derivative rows against its
weights inside the tree (``_CensoredStacks``).

Expensive per-parameter constants (the W-moment integrals, k_theta, tail
truncation points) are memoized on the frozen parameter dataclasses, so a
likelihood evaluation computes each once regardless of the number of data
points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .densities import (
    _LOG_UNDERFLOW,
    FAMILIES,
    ComponentParams,
    MixtureParams,
    _n_coords,
    _stack_height,
    _stack_rows,
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
    log_start = FAMILIES[p.family].tail_seed(p)
    u = float(np.exp(min(log_start, np.log(_TAIL_CAP))))
    u = max(u, 1e-6)
    while u < _TAIL_CAP:
        if component_pdf(u, p) * max(u, 1.0) < tail_cutoff:
            return u
        u = min(u * 2.0, _TAIL_CAP)
    return _TAIL_CAP


@lru_cache(maxsize=512)
def _weighted_moment_integrals(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig):
    """J[m] = int y^m f / (pi r + 2 y) and the same with f's theta-gradient.

    Returns read-only (J, Jg) with J of shape (5,) for m = 0..4 and Jg of
    shape (5, n_coords); one quadrature tree serves all rows.
    """
    cn = _n_coords(p)
    stack = _stack_rows(p, 1)  # rows: f, then df/dtheta_j
    pir = np.pi * geom.r
    u = component_tail(p, cfg.tail_cutoff)

    def integrand(y):
        base = stack(y) / (pir + 2.0 * y)
        return np.concatenate([base * y**m for m in range(5)], axis=0)

    flat = integrate(integrand, 0.0, np.inf, cfg, tail_start=u)
    flat = flat.reshape(5, 1 + cn)
    flat.flags.writeable = False
    return flat[:, 0], flat[:, 1:]


def mean_w_component(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Expected cell length on the W (standing tree) scale for one component."""
    return float(0.5 / _weighted_moment_integrals(p, geom, cfg)[0][0] - 0.5 * (np.pi * geom.r))


def moment_w(m: int, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m-th raw moment of the component's W-scale distribution, m in 1..4."""
    if m not in (1, 2, 3, 4):
        raise ValueError("moment order m must be one of 1, 2, 3, 4")
    J = _weighted_moment_integrals(p, geom, cfg)[0]
    return float(J[m] / J[0])  # (pi r + 2 E(W)) J[m], since pi r J[0] + 2 J[1] = 1


def density_w_component(w, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Tree-scale density of one component at w >= 0."""
    arr = np.asarray(w, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("w must be nonnegative")
    ew = mean_w_component(p, geom, cfg)
    pir = np.pi * geom.r
    out = (pir + 2.0 * ew) / (pir + 2.0 * arr) * component_pdf(arr, p)
    return float(out) if np.ndim(w) == 0 else out


# probabilities, as shares of the mass below the upper limit, whose quantiles
# end the normalizer's panels: geometric toward both tails, where the
# log-length densities decay exponentially
_EDGE_LOG_PROBS = np.log([1e-8, 1e-5, 1e-3, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.999, 1 - 1e-5, 1 - 1e-8])
_LOW_SHIFT = np.log(2.0)  # the lower limit is the tail quantile of y halved


def _uncut_mass_stack(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig, order: int, quad):
    """int_0^hi g_q(y) p_uc(y) dy for the density stack rows g_q, hi = min(2r, U).

    Integrated in log length, standardized to s = d (log y - log b)
    (generalized gamma) or (log y - mu) / sigma (lognormal): the rows are
    those of the density of s (see ``_ggd_stack``), which are smooth with
    exponential tails where f_Y itself can be nearly singular at y = 0.
    Panels end at the quantiles of s at the probabilities _EDGE_LOG_PROBS
    scaled by F(hi), the component's mass below hi, and at the images of the
    16 equal y-panel ends hi j / 16, which resolve p_uc.  The lower limit is
    the quantile at tail_cutoff F(hi) with y halved.  The absolute tolerance
    is abs_tol F(hi), so the normalizer is resolved relative to its own size
    even when that is below abs_tol; a mass below hi that underflows gives
    zeros.  ``quad`` is the segment integrator (``segment_integrals``),
    passed by each caller under the name it imported so that the two call
    sites can be instrumented apart.
    """
    hi = min(2.0 * geom.r, component_tail(p, cfg.tail_cutoff))
    a, c, log_cdf, quantile = FAMILIES[p.family].standard_form(p)
    ends = c * (np.log(hi * np.arange(1, 17) / 16.0) - a)
    log_mass = float(log_cdf(ends[-1]))
    if not log_mass > _LOG_UNDERFLOW:
        return np.zeros(_stack_height(_n_coords(p), order))
    s_lo = float(quantile(np.log(cfg.tail_cutoff) + log_mass)) - c * _LOW_SHIFT
    s = np.concatenate([quantile(_EDGE_LOG_PROBS + log_mass), ends])
    edges = np.unique(np.concatenate([[s_lo], np.clip(s, s_lo, ends[-1])]))
    stack, r = _stack_rows(p, order, standardized=True), geom.r

    def integrand(s):
        return stack(s) * _prob_uncut_unchecked(np.exp(a + s / c), r)

    tol = replace(cfg, abs_tol=cfg.abs_tol * np.exp(log_mass))
    return quad(integrand, edges, tol).total()


@lru_cache(maxsize=512)
def k_theta(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Probability that a core cell from f_Y is uncut: int_0^2r f_Y p_uc.

    The value row of the microscopy likelihood's normalizer: integrated in
    standardized log length up to hi = min(2r, U), on panels ending at
    quantiles scaled by F(hi) and at the images of 16 equal y-panel ends,
    from the quantile at tail_cutoff F(hi) (y halved), to an absolute
    tolerance of abs_tol F(hi) (see :func:`_uncut_mass_stack`).
    """
    return float(_uncut_mass_stack(p, geom, cfg, 0, segment_integrals)[0])


def density_v(v, p_fibers: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of uncut-fiber lengths in the core (microscopy scale)."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 2.0 * geom.r):
        raise ValueError("v must lie strictly inside (0, 2r)")
    norm = k_theta(p_fibers, geom, cfg)
    out = component_pdf(arr, p_fibers) * _prob_uncut_unchecked(arr, geom.r) / norm
    return float(out) if np.ndim(v) == 0 else out


class _CensoredStacks:
    """Observed-scale (X) density stacks of live mixture components at sorted unique points.

    For each component's density stack rows g_q (``_stack_rows`` at ``order``)

        f_q(x) = p_uc(x) g_q(x) + c1(x) T_q(x) + c2(x) S_q(x),
        T_q(x) = int_x^U g_q(y) / t(y) dy,   S_q(x) = int_x^U y g_q(y) / t(y) dy,

    with t(y) = pi r^2 + 2 r y, c1 = (8 r^2 - 3 x^2) / root, c2 = x / root and
    root = sqrt(4 r^2 - x^2).  U is the largest truncation point of the
    components, and one quadrature tree serves every row of every component:
    its edges are the points below U plus geometric edges from the largest of
    them to U; points at or beyond U get T = S = 0.  The value rows T_0 and S_0
    are clamped nonnegative and nonincreasing in x (an interpolant readout can
    dip below).  Sums of the derivative rows against weights (:meth:`dots`)
    take the adjoint of the readout, so no derivative row is read per point.
    """

    def __init__(self, x, parts, geom: CoreGeometry, cfg: QuadratureConfig, order: int):
        r = geom.r
        self.x = x
        self.stacks = [_stack_rows(p, order) for p in parts]
        self.height = _stack_height(_n_coords(parts[0]), order)
        self.puc = _prob_uncut_unchecked(x, r)
        root = np.sqrt(np.clip(4.0 * r * r - x * x, 0.0, None))
        self.kernel = np.stack([8.0 * r * r - 3.0 * x * x, x]) / root  # c1 and c2
        self._g = None
        u = max(component_tail(p, cfg.tail_cutoff) for p in parts)
        self.n_in = int(np.searchsorted(x, u))
        self.tree = None
        if self.n_in == 0:
            return
        top = x[self.n_in - 1]
        if u / max(top, 1e-300) > 1.0 + 1e-12:
            edges = np.concatenate([x[: self.n_in], _geometric_edges(top, u, 24)])
        else:
            edges = np.concatenate([x[: self.n_in], [u]])

        def integrand(y):
            w = 1.0 / (np.pi * r * r + 2.0 * r * y)
            g = np.concatenate([stack(y) for stack in self.stacks], axis=0).reshape(len(parts), 1, -1, y.size)
            return np.concatenate([g * w, g * (y * w)], axis=1).reshape(-1, y.size)

        self.tree = segment_integrals(integrand, edges, cfg)

    def suffix(self, n_rows: int, comps=None):
        """(T, S) of the first n_rows stack rows of components comps (all by default) at every point.

        Each is (components, n_rows, points); tree row 2 h i + h j + q holds
        integral j (T, S) of stack row q of component i, h the stack height.
        """
        comps = np.arange(len(self.stacks)) if comps is None else np.asarray(comps)
        k, h, n = comps.size, self.height, self.x.size
        rows = (2 * h * comps[:, None, None] + h * np.arange(2)[:, None] + np.arange(n_rows)).ravel()
        TS = self.tree.suffix(rows, self.n_in) if self.tree is not None else np.empty((rows.size, 0))
        if self.n_in < n:
            TS = np.concatenate([TS, np.zeros((rows.size, n - self.n_in))], axis=1)
        TS = TS.reshape(k, 2, n_rows, n)
        # an interpolant readout can dip below: keep the value rows >= 0 and nonincreasing
        val = np.maximum(TS[:, :, 0], 0.0)
        if np.any(val[..., :-1] < val[..., 1:]):
            val = np.maximum.accumulate(val[..., ::-1], axis=-1)[..., ::-1]
        TS[:, :, 0] = val
        return TS[:, 0], TS[:, 1]

    def _direct(self):
        """Density stack rows of each component at the points, computed once."""
        if self._g is None:
            self._g = [stack(self.x) for stack in self.stacks]
        return self._g

    def values(self):
        """The X-scale density of each component at the points."""
        T, S = self.suffix(1)
        c1, c2 = self.kernel
        return [g[0] * self.puc + c1 * t[0] + c2 * s[0] for g, t, s in zip(self._direct(), T, S)]

    def rows(self):
        """Every X-scale stack row of each component at the points, value row first."""
        c1, c2 = self.kernel
        out = []
        for i, stack in enumerate(self.stacks):  # in place, one component at a time: order-2 stacks are large
            f = stack(self.x)
            f *= self.puc
            (t,), (s,) = self.suffix(self.height, [i])
            f += np.multiply(t, c1, out=t)
            f += np.multiply(s, c2, out=s)
            out.append(f)
        return out

    def dots(self, v):
        """sum_k v_k f_q(x_k) over the derivative rows q >= 1 of each component.

        The adjoint of the readout: the weights v c1 and v c2 are summed
        against the suffix rows inside the tree (``PanelTree.suffix_dot``).
        """
        out = [g[1:] @ (v * self.puc) for g in self._direct()]
        if self.tree is None:
            return out
        a = np.zeros((2, self.tree.edges.size))
        a[:, : self.n_in] = v[: self.n_in] * self.kernel[:, : self.n_in]
        TS = self.tree.suffix_dot(a).reshape(2, len(out), 2, self.height)
        return [o + TS[0, i, 0, 1:] + TS[1, i, 1, 1:] for i, o in enumerate(out)]


def _x_points(x, geom: CoreGeometry):
    """Sorted unique observed lengths and the inverse map, checked against (0, 2r)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr <= 0.0) or np.any(arr >= 2.0 * geom.r):
        raise ValueError("x must lie strictly inside (0, 2r)")
    return np.unique(arr, return_inverse=True)


def density_x_component(x, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of the observed (cut or uncut) lengths of one component."""
    xu, inv = _x_points(x, geom)
    out = _CensoredStacks(xu, [p], geom, cfg, 0).values()[0][inv]
    return float(out[0]) if np.ndim(x) == 0 else out


def density_x_mixture(x, mix: MixtureParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Observed-scale mixture density eps f_X_fines + (1 - eps) f_X_fibers.

    Both components share one quadrature tree; a component with zero weight
    is not evaluated.
    """
    xu, inv = _x_points(x, geom)
    live = [(wt, p) for wt, p in ((mix.eps, mix.fines), (1.0 - mix.eps, mix.fibers)) if wt > 0.0]
    stacks = _CensoredStacks(xu, [p for _, p in live], geom, cfg, 0)
    out = sum(wt * f for (wt, _), f in zip(live, stacks.values()))[inv]
    return float(out[0]) if np.ndim(x) == 0 else out


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
