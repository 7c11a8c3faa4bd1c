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

Every integral of the density stack rows (f_Y and its theta-derivatives)
that reaches a tail runs in standardized log length between closed-form
quantiles (:func:`_log_length_integrals`): the W moments, the microscopy
normalizer k_theta = int_0^2r f_Y p_uc and its derivative rows, and the
censored tail past the largest data point.

The censored part of f_X is a pair of suffix integrals of the density over
t(y) = pi r^2 + 2 r y and y / t(y).  One quadrature tree in y per
evaluation serves every stack row of both mixture components (a component
with zero weight is left out) between the data points, which are its only
edges; past the largest point each row adds a constant, one log-length
integral per component (``_CensoredStacks``).  Everything per point is
then one streamed pass over blocks of at most _BLOCK points, top block
first: each block reads the rows it needs off the tree over its own edge
range, evaluates the direct stack rows at its own points, and sums the
derivative rows against the likelihood's weights inside the tree.  The same
pass gives :func:`density_x_component`, :func:`density_x_mixture` and the
likelihoods.

What a block needs of the points and r alone (p_uc and the kernel weights,
and its Chebyshev readout basis for the tree's panels) comes from a
``_CensoredPoints`` object.  ``fitting.fit`` keeps one for all the
evaluations of a fit, whose trees mostly share one set of panels; every
other caller gets a fresh one, which holds one block's basis at a time.

Expensive per-parameter constants (the W-moment integrals, k_theta) are
memoized on the frozen parameter dataclasses, so a likelihood evaluation
computes each once regardless of the number of data points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .densities import (
    _LOG_UNDERFLOW,
    _TINY,
    FAMILIES,
    ComponentParams,
    MixtureParams,
    _n_coords,
    _stack_height,
    _stack_rows,
    component_pdf,
)
from .geometry import CoreGeometry, _prob_uncut_unchecked
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureError, segment_integrals

__all__ = [
    "ScaleDensity",
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

# probabilities whose quantiles end the panels in log length: geometric
# toward both tails, where the log-length densities decay exponentially
_EDGE_LOG_PROBS = np.log([1e-8, 1e-5, 1e-3, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.999, 1 - 1e-5, 1 - 1e-8])


def _log_length_integrals(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig, order: int, weights, quad,
                          lo: float = 0.0, hi: float = np.inf):
    """int_lo^hi w_i(y) g_q(y) dy for weight rows w_i and density stack rows g_q, (weights, stack height).

    ``weights(ly)`` gives the weight rows at ly = log y.  The integral runs
    in the standardized log length s = c (log y - a) (``_Family.standard_form``),
    where the rows, those of the density of s (see ``_ggd_stack``), are
    smooth with exponential tails.  Every weight varies on the scale of the
    core, so with F(2r) the mass below 2r, panels end at the quantiles at
    the probabilities _EDGE_LOG_PROBS times F(2r), at the images of the 16
    equal y-panel ends 2r j / 16, and at the quantiles at _EDGE_LOG_PROBS
    above 2r.  The limits are the larger of lo and the quantile at
    tail_cutoff F(2r), and the smaller of hi and ``_Family.tail_quantile``
    at tail_cutoff.  The absolute tolerance is abs_tol F(hi), so a normalizer
    far below abs_tol is resolved relative to itself; a range that holds no
    mass gives zeros.  ``quad`` is ``segment_integrals`` under the name the
    caller imported, so that the call sites can be instrumented apart.
    """
    fam, r = FAMILIES[p.family], geom.r
    a, c, log_cdf, quantile = fam.standard_form(p)
    ends = c * (np.log(2.0 * r * np.arange(1, 17) / 16.0) - a)
    s_top = c * (np.log(hi) - a)
    log_mass, log_top = log_cdf(np.array([ends[-1], s_top]))
    log_mass = max(log_mass, _LOG_UNDERFLOW)
    s_lo = float(quantile(np.log(cfg.tail_cutoff) + log_mass))
    if lo > 0.0:
        s_lo = max(s_lo, c * (np.log(lo) - a))
    s_hi = min(s_top, float(fam.tail_quantile(p, cfg.tail_cutoff)))
    n_rows = _stack_height(_n_coords(p), order)
    if not (s_lo < s_hi and log_top > _LOG_UNDERFLOW):
        return np.zeros((len(weights(np.zeros(1))), n_rows))
    probs = _EDGE_LOG_PROBS
    s = np.concatenate([quantile(probs + log_mass), ends, quantile(probs[probs > log_mass]), [s_lo, s_hi]])
    edges = np.unique(np.clip(s, s_lo, s_hi))
    stack = _stack_rows(p, order, standardized=True)

    def integrand(s):
        return (weights(a + s / c)[:, None] * stack(s)).reshape(-1, s.size)

    tol = replace(cfg, abs_tol=cfg.abs_tol * np.exp(log_top))
    return quad(integrand, edges, tol).total().reshape(-1, n_rows)


@lru_cache(maxsize=512)
def _weighted_moment_integrals(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig):
    """J[m] = int y^m f / (pi r + 2 y) and the same with f's theta-gradient.

    Returns read-only (J, Jg) with J of shape (5,) for m = 0..4 and Jg of
    shape (5, n_coords); one quadrature tree in log length serves all rows
    (:func:`_log_length_integrals`).  Row m >= 1 is integrated with its
    weight divided by E(Y^(m - 1)), which makes the integrand at most 1/2
    times the density of the law y^(m - 1) f_Y, and multiplied back
    afterwards; a row that overflows double range reads inf or nan, which
    :func:`_w_moments` rejects.  Past the cap e^700 on a scaled weight the
    density has underflowed, unless the moment itself overflows.
    """
    log_pir, m = np.log(np.pi * geom.r), np.arange(5)
    log_scale = FAMILIES[p.family].log_moment(p, np.maximum(m - 1, 0))

    def weights(ly):  # y^m / (pi r + 2 y) / E(Y^(m - 1))
        return np.exp(np.minimum(m[:, None] * ly - np.logaddexp(log_pir, np.log(2.0) + ly) - log_scale[:, None], 700.0))

    flat = _log_length_integrals(p, geom, cfg, 1, weights, segment_integrals)
    with np.errstate(over="ignore", invalid="ignore"):
        flat *= np.exp(log_scale)[:, None]
    flat.flags.writeable = False
    return flat[:, 0], flat[:, 1:]


def _w_moments(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig, m: int):
    """Rows 0..m of (J, Jg) (see :func:`_weighted_moment_integrals`), checked finite."""
    J, Jg = (arr[: m + 1] for arr in _weighted_moment_integrals(p, geom, cfg))
    if not (J[0] > 0.0 and np.all(np.isfinite(J)) and np.all(np.isfinite(Jg))):
        raise QuadratureError(f"W moments up to order {m} overflow double range", np.inf)
    return J, Jg


def mean_w_component(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Expected cell length on the W (standing tree) scale for one component."""
    return float(0.5 / _w_moments(p, geom, cfg, 0)[0][0] - 0.5 * (np.pi * geom.r))


def moment_w(m: int, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """m-th raw moment of the component's W-scale distribution, m in 1..4.

    Raises QuadratureError when the moment overflows double range.
    """
    if m not in (1, 2, 3, 4):
        raise ValueError("moment order m must be one of 1, 2, 3, 4")
    J = _w_moments(p, geom, cfg, m)[0]
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


def _uncut_mass_stack(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig, order: int, quad):
    """int_0^2r g_q(y) p_uc(y) dy for the density stack rows g_q: the microscopy normalizer and its derivatives."""
    r = geom.r
    return _log_length_integrals(p, geom, cfg, order, lambda ly: _prob_uncut_unchecked(np.exp(ly), r)[None], quad,
                                 hi=2.0 * r)[0]


@lru_cache(maxsize=512)
def k_theta(p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Probability that a core cell from f_Y is uncut: int_0^2r f_Y p_uc (see :func:`_uncut_mass_stack`)."""
    return float(_uncut_mass_stack(p, geom, cfg, 0, segment_integrals)[0])


def density_v(v, p_fibers: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of uncut-fiber lengths in the core (microscopy scale).

    Raises QuadratureError when k_theta is not positive and finite, as when
    the uncut mass of a tiny core underflows.
    """
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 2.0 * geom.r):
        raise ValueError("v must lie strictly inside (0, 2r)")
    norm = k_theta(p_fibers, geom, cfg)
    if not (np.isfinite(norm) and norm > 0.0):
        raise QuadratureError(f"the uncut mass k_theta = {norm:g} is not positive and finite", np.inf)
    out = component_pdf(arr, p_fibers) * _prob_uncut_unchecked(arr, geom.r) / norm
    return float(out) if np.ndim(v) == 0 else out


_BLOCK = 8192  # points per block of the streamed pass over the data


class _CensoredPoints:
    """What the censored pass computes from the sorted unique points x and r alone, kept across evaluations.

    It holds, each computed when first asked for:

    * per block [start, stop) of the streamed pass, the kernel constants
      p_uc, c1 and c2 at the block's points (:meth:`kernel`);
    * log p_uc at every point, the microscopy likelihood's constant term
      (:attr:`log_puc`);
    * the panels (lo, hi) of the last suffix tree and the Chebyshev readout
      bases of every block for those panels (:meth:`share`).

    ``fitting.fit`` attaches one to the unitless dataset it builds
    (``Dataset._points``), so the evaluations of one fit share it and it dies
    with the fit; every other evaluation makes a fresh one.
    """

    def __init__(self, x, r: float):
        self.x, self.r = x, r
        self._kernel, self._log_puc, self._layout, self._bases = {}, None, None, {}

    def kernel(self, start: int, stop: int):
        """(p_uc, c1, c2) at the points [start, stop), see :class:`_CensoredStacks`; read-only."""
        got = self._kernel.get((start, stop))
        if got is None:
            x, r = self.x[start:stop], self.r
            root = np.sqrt(np.clip(4.0 * r * r - x * x, 0.0, None))
            got = (_prob_uncut_unchecked(x, r), (8.0 * r * r - 3.0 * x * x) / root, x / root)
            for arr in got:
                arr.flags.writeable = False
            self._kernel[start, stop] = got
        return got

    @property
    def log_puc(self):
        """log max(p_uc, _TINY) at every point, read-only."""
        if self._log_puc is None:
            self._log_puc = np.log(np.maximum(_prob_uncut_unchecked(self.x, self.r), _TINY))
            self._log_puc.flags.writeable = False
        return self._log_puc

    def share(self, tree):
        """Let a suffix tree over the points read through the bases held for its panels.

        A tree whose lo and hi equal the held layout exactly reads through the
        held bases and keeps there every block it builds
        (``PanelTree.keep_bases``).  Any other tree, after a split, replaces
        the held layout and its bases, and reads one block at a time as a
        lone tree does.  A layout's bases are so kept from its second tree on,
        and an evaluation that makes a fresh object holds no more than one
        block's basis.
        """
        held = self._layout
        if held is not None and np.array_equal(tree.lo, held[0]) and np.array_equal(tree.hi, held[1]):
            tree.keep_bases(self._bases)
        else:
            self._layout, self._bases = (tree.lo, tree.hi), {}


class _CensoredStacks:
    """Observed-scale (X) density stacks of live mixture components, streamed over sorted unique points.

    For each component's density stack rows g_q (``_stack_rows`` at ``order``)

        f_q(x) = p_uc(x) g_q(x) + c1(x) T_q(x) + c2(x) S_q(x),
        T_q(x) = int_x^inf g_q(y) / t(y) dy,   S_q(x) = int_x^inf y g_q(y) / t(y) dy,

    with t(y) = pi r^2 + 2 r y, c1 = (8 r^2 - 3 x^2) / root, c2 = x / root and
    root = sqrt(4 r^2 - x^2).  One quadrature tree in y serves every row of
    every component between the points, which are its only edges; the rest
    of each integral, from the largest point to y = inf, is a constant per
    row (``tail``), one log-length integral per component
    (:func:`_log_length_integrals`).  With ``geom`` None there is no
    censoring: every cell counts as uncut, f_q = g_q, and no tree is built
    (the initialization problem, and the data part of the microscopy
    likelihood).

    Everything per point that depends on the parameters is computed one
    block of at most _BLOCK points at a time (:meth:`stream`).  What depends
    on the points and r alone, the kernel constants p_uc, c1 and c2 and the
    tree's readout bases, comes from ``points`` (:class:`_CensoredPoints`; a
    fresh one by default), which a fit keeps for all its evaluations.
    """

    def __init__(self, x, parts, geom: CoreGeometry | None, cfg: QuadratureConfig, order: int,
                 points: _CensoredPoints | None = None):
        self.x = x
        self.stacks = [_stack_rows(p, order) for p in parts]
        self.height = _stack_height(_n_coords(parts[0]), order)
        self.tail = self.tree = self.points = None
        if geom is None:
            return
        r = geom.r
        self.points = _CensoredPoints(x, r) if points is None else points
        log_pir2, log_2r = np.log(np.pi * r * r), np.log(2.0 * r)

        def weights(ly):  # 1 / t(y) and y / t(y)
            lw = -np.logaddexp(log_pir2, log_2r + ly)
            return np.exp(np.stack([lw, ly + lw]))

        # tree row 2 h i + h j + q: integral j (T, S) of stack row q of component i
        self.tail = np.concatenate(
            [_log_length_integrals(p, geom, cfg, order, weights, segment_integrals, lo=x[-1]).ravel() for p in parts]
        )
        if x.size < 2:
            return

        def integrand(y):
            w = 1.0 / (np.pi * r * r + 2.0 * r * y)
            yw = y * w
            out = np.empty((len(parts), 2, self.height, y.size))
            for (t, s), stack in zip(out, self.stacks):
                g = stack(y)
                np.multiply(g, w, out=t)
                np.multiply(g, yw, out=s)
            return out.reshape(-1, y.size)

        self.tree = segment_integrals(integrand, x, cfg)
        self.points.share(self.tree)

    def suffix(self, n_rows: int, start: int = 0, stop: int | None = None, top=None):
        """(T, S) of the first n_rows stack rows at the points [start, stop) (all by default).

        Each is (components, n_rows, points); tree row 2 h i + h j + q holds
        integral j (T, S) of stack row q of component i, h the stack height.
        An interpolant readout can dip below, so the value rows are kept
        nonnegative and nonincreasing in x: each is the running maximum from
        the top, with ``top`` (components, 2, 1) the largest value rows above
        the range (zero by default), updated in place, so that blocks read top
        block first carry it from one to the next.
        """
        k, h = len(self.stacks), self.height
        stop = self.x.size if stop is None else stop
        top = np.zeros((k, 2, 1)) if top is None else top
        rows = (2 * h * np.arange(k)[:, None, None] + h * np.arange(2)[:, None] + np.arange(n_rows)).ravel()
        TS = np.zeros((rows.size, stop - start)) if self.tree is None else self.tree.suffix(rows, start, stop)
        TS += self.tail[rows, None]
        TS = TS.reshape(k, 2, n_rows, stop - start)
        val = np.maximum(TS[:, :, 0], top)
        if np.any(val[..., :-1] < val[..., 1:]):
            val = np.maximum.accumulate(val[..., ::-1], axis=-1)[..., ::-1]
        TS[:, :, 0], top[...] = val, val[..., :1]
        return TS[:, 0], TS[:, 1]

    def _block(self, start: int, stop: int, n_rows: int, top):
        """(rows, dot) of the points [start, stop); see :meth:`stream`."""
        g = [stack(self.x[start:stop]) for stack in self.stacks]
        if self.points is None:
            return [gi[:n_rows] for gi in g], lambda v: [gi[1:] @ v for gi in g]
        puc, c1, c2 = self.points.kernel(start, stop)
        rows = []
        for gi, t, s in zip(g, *self.suffix(n_rows, start, stop, top)):
            f = gi[:n_rows] * puc
            f += np.multiply(t, c1, out=t)
            f += np.multiply(s, c2, out=s)
            rows.append(f)

        def dot(v):
            a = np.stack([v * c1, v * c2])
            TS = a.sum(axis=1)[:, None] * self.tail
            if self.tree is not None:
                TS += self.tree.suffix_dot(a, start, stop)
            TS = TS.reshape(2, len(g), 2, self.height)
            return [gi[1:] @ (v * puc) + TS[0, i, 0, 1:] + TS[1, i, 1, 1:] for i, gi in enumerate(g)]

        return rows, dot

    def stream(self, n_rows: int, visit):
        """Call visit(block, rows, dot) for every block of at most _BLOCK points, top block first.

        ``block`` is the slice of the points, ``rows`` the first n_rows
        X-scale stack rows of each component there (value row first), and
        ``dot(v)``, for weights v on the block, gives the sums sum_k v_k
        f_q(x_k) over the derivative rows q >= 1 of each component.  ``dot``
        takes the adjoint of the readout: the weights v c1 and v c2 are summed
        against the suffix rows inside the tree (``PanelTree.suffix_dot``), so
        no derivative row past n_rows is read per point.  A block's arrays are
        released when ``visit`` returns, before the next block is built.
        """
        n = self.x.size
        top = np.zeros((len(self.stacks), 2, 1))
        for start in range((n - 1) // _BLOCK * _BLOCK, -1, -_BLOCK):
            stop = min(start + _BLOCK, n)
            visit(slice(start, stop), *self._block(start, stop, n_rows, top))

    def mixture_density(self, weights):
        """sum_i weights_i f_i at every point, f_i the X-scale density of live component i."""
        out = np.empty(self.x.size)

        def visit(block, rows, dot):
            out[block] = sum(wt * f[0] for wt, f in zip(weights, rows))

        self.stream(1, visit)
        return out


def _x_points(x, geom: CoreGeometry):
    """Sorted unique observed lengths and the inverse map, each checked to be finite and inside (0, 2r)."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((arr > 0.0) & (arr < 2.0 * geom.r)):  # a NaN fails both comparisons
        raise ValueError("x must be finite and lie strictly inside (0, 2r)")
    return np.unique(arr, return_inverse=True)


def density_x_component(x, p: ComponentParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of the observed (cut or uncut) lengths of one component."""
    xu, inv = _x_points(x, geom)
    out = _CensoredStacks(xu, [p], geom, cfg, 0).mixture_density([1.0])[inv]
    return float(out[0]) if np.ndim(x) == 0 else out


def density_x_mixture(x, mix: MixtureParams, geom: CoreGeometry, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Observed-scale mixture density eps f_X_fines + (1 - eps) f_X_fibers.

    Both components share one quadrature tree; a component with zero weight
    is not evaluated.
    """
    xu, inv = _x_points(x, geom)
    live = [(wt, p) for wt, p in ((mix.eps, mix.fines), (1.0 - mix.eps, mix.fibers)) if wt > 0.0]
    stacks = _CensoredStacks(xu, [p for _, p in live], geom, cfg, 0)
    out = stacks.mixture_density([wt for wt, _ in live])[inv]
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
