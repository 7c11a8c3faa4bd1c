"""Generalized-gamma and lognormal cell-length densities with derivatives.

Two parameterizations are used throughout the package:

* the *original* scale, carried by :class:`GgdParams` (b, d, k),
  :class:`LognParams` (mu, sigma) and :class:`MixtureParams` (eps plus two
  components), and
* the unconstrained *optimizer* scale theta, carried by :class:`ParamVector`:
  eps maps through the logit, every positive parameter through the log, and
  lognormal means stay as-is.

Each family is described once, by its ``FAMILIES`` entry (see
:class:`_Family`), which the other modules read instead of testing parameter
types; every theta transform (``encode``, ``decode``, ``ModelSpec``) goes
through one table of forward, inverse and chain functions, ``_TRANSFORMS``.

All densities are evaluated in log space internally so that extreme shapes
(e.g. scale 1e-3 combined with large d*k) neither overflow nor produce
0 * inf in the derivative chain.  Gradients and Hessians are taken with
respect to theta, i.e. they already include the chain factors of the
transform.  ``*_grad_theta`` returns shape (3,)/(2,) for scalar input and
(n, 3)/(n, 2) for vector input; ``*_hess_theta`` returns (3, 3)/(2, 2) or
(n, 3, 3)/(n, 2, 2).

Each family has one stack kernel (``_Family.stack``) that writes every row
it is asked for into a single (height, n) array: row 0 the density, then
the c theta-gradient rows (order >= 1), then the c (c + 1) / 2 packed
Hessian rows (order 2) in row-major upper-triangle order, the order of
``np.triu_indices``.  The value row is one exp(log f); the score rows of
log f are formed in place, the Hessian rows built from them, and both
scaled by f last.  The underflow and overflow masks run only when some lane
has log f <= -700 or > 700.  The quadrature integrands read these rows as
they are, and the public functions slice them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammainccinv, gammaincinv, gammaln, log_ndtr, ndtri, ndtri_exp, psi

from .special import _trigamma

__all__ = [
    "GgdParams",
    "LognParams",
    "MixtureParams",
    "ParamVector",
    "encode",
    "decode",
    "ggd_pdf",
    "logn_pdf",
    "ggd_grad_theta",
    "logn_grad_theta",
    "ggd_hess_theta",
    "logn_hess_theta",
]

GGAMMA = "ggamma"
LOGNORM = "lognorm"

_LOG_UNDERFLOW = -700.0  # below this, exp() is 0.0 and so are all derivatives
_TINY = 1e-300  # floor of a density or probability before its log is taken
_triu = lru_cache(np.triu_indices)  # (i, j) of the packed Hessian rows, row-major upper triangle


@dataclass(frozen=True)
class GgdParams:
    """Generalized gamma on (0, inf): scale b, shape exponent d, shape k."""

    b: float
    d: float
    k: float

    def __post_init__(self):
        vals = (self.b, self.d, self.k)
        if not all(np.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError("b, d, k must all be finite and strictly positive")

    @property
    def family(self) -> str:
        return GGAMMA

    def mean(self) -> float:
        """E(Y) = b * Gamma(k + 1/d) / Gamma(k)."""
        return self.b * np.exp(gammaln(self.k + 1.0 / self.d) - gammaln(self.k))


@dataclass(frozen=True)
class LognParams:
    """Lognormal on (0, inf): log-mean mu, log-sd sigma."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ValueError("sigma must be finite and strictly positive")

    @property
    def family(self) -> str:
        return LOGNORM

    def mean(self) -> float:
        return float(np.exp(self.mu + 0.5 * self.sigma**2))


ComponentParams = GgdParams | LognParams


@dataclass(frozen=True)
class MixtureParams:
    """Two-component mixture: fines proportion eps, fines and fibers params."""

    eps: float
    fines: ComponentParams
    fibers: ComponentParams

    def __post_init__(self):
        if not (np.isfinite(self.eps) and 0.0 <= self.eps <= 1.0):
            raise ValueError("eps must lie in [0, 1]")
        if self.fines.family != self.fibers.family:
            raise ValueError("fines and fibers must belong to the same family")

    @property
    def family(self) -> str:
        return self.fines.family


@dataclass(frozen=True)
class ParamVector:
    """Optimizer-scale coordinates theta with a per-coordinate fixed mask.

    Coordinate order:

    * ggamma mixture (7):   (logit eps, log b1, log d1, log k1, log b2, log d2, log k2)
    * lognorm mixture (5):  (logit eps, mu1, log sigma1, mu2, log sigma2)
    * ggamma component (3): (log b, log d, log k)
    * lognorm component (2): (mu, log sigma)

    Index 1 = fines, 2 = fibers.  Free coordinates must be finite; a fixed
    coordinate may hold +-inf so that a fixed-at-boundary eps (0 or 1) remains
    representable.
    """

    family: str
    values: tuple
    fixed_mask: tuple = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        n, size = len(vals), FAMILIES[self.family].size
        expected = (size, 1 + 2 * size)
        if n not in expected:
            raise ValueError(f"{self.family} expects {expected} coordinates, got {n}")
        if self.fixed_mask is None:
            object.__setattr__(self, "fixed_mask", (False,) * n)
        else:
            mask = tuple(bool(m) for m in self.fixed_mask)
            if len(mask) != n:
                raise ValueError("fixed_mask length must match values")
            object.__setattr__(self, "fixed_mask", mask)
        for v, fixed in zip(vals, self.fixed_mask):
            if not fixed and not np.isfinite(v):
                raise ValueError("free coordinates must be finite")

    @property
    def is_mixture(self) -> bool:
        return len(self.values) != FAMILIES[self.family].size

    def __len__(self) -> int:
        return len(self.values)


def _logit(p):
    # boundary proportions map to -inf/+inf
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def _expit(x):
    # stable logistic; maps -inf/+inf to exactly 0/1
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


# transform kind -> (original to theta, theta to original, d original / d theta)
_TRANSFORMS = {
    "logit": (_logit, _expit, lambda x: (e := _expit(x)) - e * e),
    "log": (np.log, np.exp, np.exp),
    "id": (float, float, lambda x: 1.0),
}


def _transform(kinds, values, which: int) -> list:
    """Apply one column of _TRANSFORMS (0 forward, 1 inverse, 2 chain) per coordinate."""
    return [float(_TRANSFORMS[kind][which](v)) for kind, v in zip(kinds, values)]


def _kinds(family: str, mixture: bool) -> tuple:
    """Transform kinds of a component or mixture coordinate vector."""
    kinds = FAMILIES[family].kinds
    return ("logit",) + kinds + kinds if mixture else kinds


def _original_values(params) -> tuple:
    """Original-scale coordinates in ParamVector order."""
    if isinstance(params, MixtureParams):
        return (params.eps, *_original_values(params.fines), *_original_values(params.fibers))
    return tuple(getattr(params, name) for name in FAMILIES[params.family].names)


def _params_from_values(family: str, v):
    """Component or mixture parameters from original-scale coordinates, by the length of ``v``."""
    fam = FAMILIES[family]
    if len(v) == fam.size:
        return fam.params(*v)
    if len(v) != 1 + 2 * fam.size:
        raise ValueError(
            f"{family} parameters need {fam.size} (component) or {1 + 2 * fam.size} (mixture) values, got {len(v)}"
        )
    return MixtureParams(v[0], fam.params(*v[1 : 1 + fam.size]), fam.params(*v[1 + fam.size :]))


def encode(params) -> ParamVector:
    """Map original-scale parameters to the optimizer scale.

    Raises ValueError for eps in {0, 1}: boundary proportions are not
    representable on the logit scale; fit with eps fixed instead.
    """
    if isinstance(params, MixtureParams) and (params.eps <= 0.0 or params.eps >= 1.0):
        raise ValueError(
            "eps in {0, 1} has no finite logit; "
            "use a fixed-parameter fit to pin the proportion at a boundary"
        )
    if not isinstance(params, MixtureParams | ComponentParams):
        raise TypeError(f"cannot encode {type(params).__name__}")
    kinds = _kinds(params.family, isinstance(params, MixtureParams))
    return ParamVector(params.family, _transform(kinds, _original_values(params), 0))


def decode(theta: ParamVector):
    """Inverse of :func:`encode`; total on finite theta."""
    return _params_from_values(theta.family, _transform(_kinds(theta.family, theta.is_mixture), theta.values, 1))


# ---------------------------------------------------------------------------
# density stacks: value, theta-gradient and packed theta-Hessian rows in one array
# ---------------------------------------------------------------------------


def _stack_height(cn: int, order: int) -> int:
    return 1 + (cn if order >= 1 else 0) + (cn * (cn + 1) // 2 if order >= 2 else 0)


def _exp_row(f, cap: float):
    """f <- exp(f) in place for log densities f; the live lanes (f > 0), or None when all are.

    Only when some lane is at or below _LOG_UNDERFLOW, above 700 or nan do
    the masks run: such a lane reads 0 below the underflow limit and
    exp(min(logf, cap)) above it.
    """
    if f.size == 0 or (f.min() > _LOG_UNDERFLOW and f.max() <= 700.0):
        np.exp(f, out=f)
        return None
    f[...] = np.where(f > _LOG_UNDERFLOW, np.exp(np.minimum(f, cap)), 0.0)
    return f > 0.0


def _scale_rows(out, cn: int, order: int):
    """Turn the log-derivative rows of a stack with f in row 0 into derivative rows of f.

    Rows 1..cn hold the scores g_i = d log f / d theta_i and, at order 2,
    the rows after them the packed second derivatives h_ij of log f; they
    become f (g_i g_j) + f h_ij, from the unscaled scores, and then f g_i.
    """
    f, g = out[0], out[1 : 1 + cn]
    if order >= 2:
        h = out[1 + cn :]
        h *= f
        gg = np.empty_like(f)
        for row, i, j in zip(h, *_triu(cn)):
            np.multiply(g[i], g[j], out=gg)
            gg *= f
            row += gg
    g *= f


def _ggd_stack(y, p: GgdParams, order: int, standardized: bool = False):
    """Rows of the GGD density and its theta-derivatives at strictly positive y.

    Returns one array of shape (height,) + y.shape, height
    ``_stack_height(3, order)``: row 0 the density, rows 1-3 (order >= 1)
    its theta-gradient, rows 4-9 (order 2) its packed theta-Hessian in
    row-major upper-triangle order.

    With ``standardized`` the input is the standardized log length
    s = d (log y - log b) = log u, u = (y/b)^d gamma(k)-distributed, and the
    stack is that of its density exp(k s - e^s) / Gamma(k) = y f(y) / d:
    the rows are theta-derivatives at fixed y, the same formulas in s, and y
    itself is never formed.
    """
    y = np.asarray(y, dtype=float)
    shape, y = y.shape, y.ravel()
    b, d, k = p.b, p.d, p.k
    out = np.empty((_stack_height(3, order), y.size))
    if standardized:
        L = y
    else:
        ly = np.log(y)
        L = d * (ly - np.log(b))  # log (y/b)^d
    with np.errstate(over="ignore"):
        c1 = np.exp(L)
    head = k * L if standardized else np.log(d) - d * k * np.log(b) + (d * k - 1.0) * ly
    f = np.subtract(head, c1, out=out[0])
    f -= gammaln(k)
    live = _exp_row(f, 700.0)
    if order >= 1:
        if live is not None:  # keeps 0 * inf out of dead lanes
            c1, L = np.where(live, c1, 0.0), np.where(live, L, 0.0)
        psi_k = psi(k)
        gb, gd, gk = out[1:4]
        np.subtract(c1, k, out=gb)
        gb *= d                                  # d (c1 - k)
        np.subtract(k, c1, out=gd)
        gd *= L                                  # L (k - c1), 1 added below
        np.subtract(L, psi_k, out=gk)
        gk *= k                                  # k (L - psi(k))
        if order >= 2:
            h = out[4:]
            np.multiply(c1, -d * d, out=h[0])    # (b, b)
            np.multiply(c1, d, out=h[1])
            h[1] *= L
            h[1] += gb                           # (b, d): d (c1 - k) + d c1 L
            h[2] = -d * k                        # (b, k)
            np.multiply(c1, L, out=h[3])
            h[3] *= L
            np.subtract(gd, h[3], out=h[3])      # (d, d): L (k - c1) - c1 L L
            np.multiply(L, k, out=h[4])          # (d, k)
            np.subtract(h[4], k * psi_k, out=h[5])
            h[5] -= k * k * _trigamma(k)         # (k, k)
        gd += 1.0
    _scale_rows(out, 3, order)
    return out.reshape(out.shape[:1] + shape)


def _logn_stack(y, p: LognParams, order: int, standardized: bool = False):
    """Lognormal analogue of :func:`_ggd_stack` with theta = (mu, log sigma).

    The standardized log length is z = (log y - mu) / sigma, with density
    phi(z) = sigma y f(y).
    """
    y = np.asarray(y, dtype=float)
    shape, y = y.shape, y.ravel()
    mu, sig = p.mu, p.sigma
    if standardized:
        z, head = y, 0.0
    else:
        ly = np.log(y)
        z, head = (ly - mu) / sig, -ly - np.log(sig)
    out = np.empty((_stack_height(2, order), y.size))
    f = np.multiply(0.5, z, out=out[0])
    f *= z
    np.subtract(head - 0.5 * np.log(2.0 * np.pi), f, out=f)
    _exp_row(f, np.inf)
    if order >= 1:
        np.divide(z, sig, out=out[1])            # mu
        np.multiply(z, z, out=out[2])
        out[2] -= 1.0                            # log sigma
        if order >= 2:
            h = out[3:]
            h[0] = -1.0 / sig**2                 # (mu, mu)
            np.multiply(-2.0, z, out=h[1])
            np.multiply(h[1], z, out=h[2])       # (th, th): -2 z z
            h[1] /= sig                          # (mu, th): -2 z / sigma
    _scale_rows(out, 2, order)
    return out.reshape(out.shape[:1] + shape)


def _stack_rows(p: ComponentParams, order: int, standardized: bool = False):
    """y -> the (height, n) stack rows of p: density, then grad rows, then packed Hessian rows."""
    stack = FAMILIES[p.family].stack
    return lambda y: stack(y, p, order, standardized)


def _n_coords(p: ComponentParams) -> int:
    return FAMILIES[p.family].size


def _packed_to_full(packed, ncoord: int):
    """Expand packed upper-triangle rows (m, ...) to a full symmetric matrix."""
    i, j = _triu(ncoord)
    full = np.zeros((ncoord, ncoord) + packed.shape[1:], dtype=float)
    full[i, j] = packed
    full[j, i] = packed
    return full


# ---------------------------------------------------------------------------
# public density API
# ---------------------------------------------------------------------------


def ggd_pdf(y, p: GgdParams):
    """Generalized gamma density d b^{-dk} y^{dk-1} exp(-(y/b)^d) / Gamma(k)."""
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and nonnegative")
    pos = arr > 0.0
    f = np.empty(arr.shape, dtype=float)
    if np.any(pos):
        f[pos] = _ggd_stack(arr[pos], p, 0)[0]
    if not np.all(pos):
        dk = p.d * p.k
        # limit of y^(dk-1) as y -> 0
        if dk > 1.0:
            at_zero = 0.0
        elif dk == 1.0:
            at_zero = float(np.exp(np.log(p.d) - p.d * p.k * np.log(p.b) - gammaln(p.k)))
        else:
            at_zero = np.inf
        f[~pos] = at_zero
    return float(f[0]) if np.ndim(y) == 0 else f


def _checked(y, p: ComponentParams, order: int):
    """Stack entry ``order`` at finite, strictly positive y, in the public layout."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and strictly positive")
    rows, cn = FAMILIES[p.family].stack(arr, p, order), _n_coords(p)
    if order == 0:
        return float(rows[0]) if np.ndim(y) == 0 else rows[0]
    if order == 1:
        return rows[1:].T
    return np.moveaxis(_packed_to_full(rows[1 + cn :], cn), -1, 0)


def logn_pdf(y, p: LognParams):
    """Lognormal density exp(-(log y - mu)^2 / (2 sigma^2)) / (y sigma sqrt(2 pi))."""
    return _checked(y, p, 0)


def ggd_grad_theta(y, p: GgdParams):
    """Gradient of ggd_pdf with respect to (log b, log d, log k)."""
    return _checked(y, p, 1)


def logn_grad_theta(y, p: LognParams):
    """Gradient of logn_pdf with respect to (mu, log sigma)."""
    return _checked(y, p, 1)


def ggd_hess_theta(y, p: GgdParams):
    """Symmetric matrix of second derivatives of ggd_pdf on the theta scale."""
    return _checked(y, p, 2)


def logn_hess_theta(y, p: LognParams):
    """Symmetric matrix of second derivatives of logn_pdf on the theta scale."""
    return _checked(y, p, 2)


def component_pdf(y, p: ComponentParams):
    """Density of either family, dispatched through ``FAMILIES``."""
    return FAMILIES[p.family].pdf(y, p)


def _ggd_standard_form(p: GgdParams):
    """(a, c, log CDF, quantile) of s = d (log y - log b) = log u, u ~ gamma(k).

    The quantile maps log probabilities to s.  Since P(k, u) <= u^k /
    Gamma(k + 1), where the inverse leaves the normal range the root of the
    bound, in log form, is used: it lies below the quantile.  Where P(k, u)
    underflows to 0 (tiny k, large d), the log CDF is the bound's, exact as u -> 0.
    """
    k = p.k

    def log_cdf(s):
        with np.errstate(over="ignore", divide="ignore"):
            cdf = gammainc(k, np.exp(s))
            return np.where(cdf > 0.0, np.log(cdf), k * s - gammaln(k + 1.0))

    def quantile(log_prob):
        u = gammaincinv(k, np.exp(log_prob))
        bound = (log_prob + gammaln(k + 1.0)) / k
        return np.where(u > _TINY, np.log(np.maximum(u, _TINY)), bound)

    return np.log(p.b), p.d, log_cdf, quantile


def _ggd_seed(m, v):
    """k = 2, with b and d matching E log Y = log b + psi(k) / d and sd log Y = sqrt(psi'(k)) / d."""
    d = np.sqrt(_trigamma(2.0)) / v
    return (m - psi(2.0) / d, np.log(d), np.log(2.0))


@dataclass(frozen=True)
class _Family:
    """One Y-scale length family: parameter class, coordinate names, theta
    transform kinds ('log'/'id'), density stack kernel (stack(y, p, order,
    standardized): one array of value, gradient and packed Hessian rows) and
    public pdf, standard_form(p) ((a, c, log CDF, quantile) of the
    standardized log length s = c (log y - a)), tail_quantile(p, q) (s at
    survival q of the law y^3 f_Y / E(Y^3), the heaviest of the laws y^j f_Y,
    j = 0..3, integrated to y = inf; each stays in its family: generalized
    gamma k -> k + j / d, lognormal mu -> mu + j sigma^2), log_moment(p, j)
    (log E(Y^j)), sample(rng, p, n), default ``bounds`` ((lo, hi) per
    coordinate on the original scale, for lengths in units of the data scale),
    seed(m, v) (theta of the member whose log length has mean m and sd v) and
    the generalized gamma's ``step_bounds``, the default box of the (m, s, k)
    of an all-free component (m and s the mean and sd of log Y), in which its
    Newton step is taken; the (m, s) box is the lognormal's (mu, sigma) box.

    The first coordinate is the location of log Y (log b, or mu) and the only
    one that carries the length unit: lengths in units c times smaller shift
    its theta by log c and leave every other coordinate unchanged."""

    params: type
    names: tuple
    kinds: tuple
    stack: Callable
    pdf: Callable
    standard_form: Callable
    tail_quantile: Callable
    log_moment: Callable
    sample: Callable
    bounds: tuple
    seed: Callable
    step_bounds: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.names)


_LOC_SCALE_BOUNDS = ((-10.0, 10.0), (1e-3, 10.0))  # of the mean and sd of log Y, in units of the median

FAMILIES = {
    GGAMMA: _Family(
        GgdParams, ("b", "d", "k"), ("log", "log", "log"), _ggd_stack, ggd_pdf,
        standard_form=_ggd_standard_form,
        tail_quantile=lambda p, q: np.log(gammainccinv(p.k + 3.0 / p.d, q)),
        log_moment=lambda p, j: j * np.log(p.b) + gammaln(p.k + j / p.d) - gammaln(p.k),
        sample=lambda rng, p, n: p.b * rng.gamma(shape=p.k, scale=1.0, size=n) ** (1.0 / p.d),
        bounds=((1e-4, 50.0),) * 3,
        seed=_ggd_seed,
        step_bounds=_LOC_SCALE_BOUNDS + ((1e-4, 50.0),),
    ),
    LOGNORM: _Family(
        LognParams, ("mu", "sigma"), ("id", "log"), _logn_stack, logn_pdf,
        standard_form=lambda p: (p.mu, 1.0 / p.sigma, log_ndtr, ndtri_exp),
        tail_quantile=lambda p, q: 3.0 * p.sigma - ndtri(q),
        log_moment=lambda p, j: j * p.mu + 0.5 * (j * p.sigma) ** 2,
        sample=lambda rng, p, n: np.exp(p.mu + p.sigma * rng.standard_normal(n)),
        bounds=_LOC_SCALE_BOUNDS,
        seed=lambda m, v: (m, np.log(v)),
    ),
}
