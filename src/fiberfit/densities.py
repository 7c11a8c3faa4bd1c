"""Generalized-gamma and lognormal cell-length densities with derivatives.

Two parameterizations are used throughout the package:

* the *original* scale, carried by :class:`GgdParams` (b, d, k),
  :class:`LognParams` (mu, sigma) and :class:`MixtureParams` (eps plus two
  components), and
* the unconstrained *optimizer* scale theta, carried by :class:`ParamVector`:
  eps maps through the logit, every positive parameter through the log, and
  lognormal means stay as-is.

All densities are evaluated in log space internally so that extreme shapes
(e.g. scale 1e-3 combined with large d*k) neither overflow nor produce
0 * inf in the derivative chain.  Gradients and Hessians are taken with
respect to theta, i.e. they already include the chain factors of the
transform.  ``*_grad_theta`` returns shape (3,)/(2,) for scalar input and
(n, 3)/(n, 2) for vector input; ``*_hess_theta`` returns (3, 3)/(2, 2) or
(n, 3, 3)/(n, 2, 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .special import digamma, log_gamma, trigamma

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

# index pairs of the packed symmetric Hessian, in row-major upper-triangle order
_PAIRS3 = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_PAIRS2 = ((0, 0), (0, 1), (1, 1))

_LOG_UNDERFLOW = -700.0  # below this, exp() is 0.0 and so are all derivatives


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
        return self.b * np.exp(log_gamma(self.k + 1.0 / self.d) - log_gamma(self.k))


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
        if self.family not in (GGAMMA, LOGNORM):
            raise ValueError(f"unknown family {self.family!r}")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        n = len(vals)
        expected = {GGAMMA: (3, 7), LOGNORM: (2, 5)}[self.family]
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
        return len(self.values) in (5, 7)

    def __len__(self) -> int:
        return len(self.values)


def _logit(p: float) -> float:
    return float(np.log(p) - np.log1p(-p))


def _expit(x: float) -> float:
    # stable logistic; maps -inf/+inf to exactly 0/1
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def encode(params) -> ParamVector:
    """Map original-scale parameters to the optimizer scale.

    Raises ValueError for eps in {0, 1}: boundary proportions are not
    representable on the logit scale; fit with eps fixed instead.
    """
    if isinstance(params, MixtureParams):
        if params.eps <= 0.0 or params.eps >= 1.0:
            raise ValueError(
                "eps in {0, 1} has no finite logit; "
                "use a fixed-parameter fit to pin the proportion at a boundary"
            )
        head = (_logit(params.eps),)
        return ParamVector(
            params.family,
            head + encode(params.fines).values + encode(params.fibers).values,
        )
    if isinstance(params, GgdParams):
        return ParamVector(GGAMMA, (np.log(params.b), np.log(params.d), np.log(params.k)))
    if isinstance(params, LognParams):
        return ParamVector(LOGNORM, (params.mu, np.log(params.sigma)))
    raise TypeError(f"cannot encode {type(params).__name__}")


def decode(theta: ParamVector):
    """Inverse of :func:`encode`; total on finite theta."""
    v = theta.values
    ex = lambda x: float(np.exp(x))
    if theta.family == GGAMMA:
        if len(v) == 3:
            return GgdParams(ex(v[0]), ex(v[1]), ex(v[2]))
        return MixtureParams(
            float(_expit(v[0])),
            GgdParams(ex(v[1]), ex(v[2]), ex(v[3])),
            GgdParams(ex(v[4]), ex(v[5]), ex(v[6])),
        )
    if len(v) == 2:
        return LognParams(v[0], ex(v[1]))
    return MixtureParams(
        float(_expit(v[0])),
        LognParams(v[1], ex(v[2])),
        LognParams(v[3], ex(v[4])),
    )


# ---------------------------------------------------------------------------
# density stacks: value, theta-gradient and packed theta-Hessian in one pass
# ---------------------------------------------------------------------------


def _ggd_stack(y, p: GgdParams, order: int, standardized: bool = False):
    """Evaluate the GGD density and its theta-derivatives at strictly positive y.

    Returns (f, grad, hess_packed); grad has shape (3, n), hess (6, n) in
    _PAIRS3 order.  Entries are None beyond the requested order.

    With ``standardized`` the input is the standardized log length
    s = d (log y - log b) = log u, u = (y/b)^d gamma(k)-distributed, and the
    stack is that of its density exp(k s - e^s) / Gamma(k) = y f(y) / d:
    the rows are theta-derivatives at fixed y, the same formulas in s, and y
    itself is never formed.
    """
    y = np.asarray(y, dtype=float)
    b, d, k = p.b, p.d, p.k
    if standardized:
        L = y
    else:
        ly = np.log(y)
        L = d * (ly - np.log(b))  # log (y/b)^d
    with np.errstate(over="ignore"):
        c1 = np.exp(L)
    head = k * L if standardized else np.log(d) - d * k * np.log(b) + (d * k - 1.0) * ly
    logf = head - c1 - log_gamma(k)
    f = np.where(logf > _LOG_UNDERFLOW, np.exp(np.minimum(logf, 700.0)), 0.0)
    if order < 1:
        return f, None, None

    psi_k = digamma(k)
    live = f > 0.0
    c1s = np.where(live, c1, 0.0)  # keeps 0 * inf out of masked lanes
    Ls = np.where(live, L, 0.0)
    gb = d * (c1s - k)
    gd = 1.0 + Ls * (k - c1s)
    gk = k * (Ls - psi_k)
    grad = f * np.stack([gb, gd, gk])
    if order < 2:
        return f, grad, None

    psi1_k = trigamma(k)
    hlog = np.stack(
        [
            -d * d * c1s,                             # (b, b)
            d * (c1s - k) + d * c1s * Ls,             # (b, d)
            np.full_like(Ls, -d * k),                 # (b, k)
            Ls * (k - c1s) - c1s * Ls * Ls,           # (d, d)
            k * Ls,                                   # (d, k)
            k * Ls - k * psi_k - k * k * psi1_k,      # (k, k)
        ]
    )
    g = np.stack([gb, gd, gk])
    hess = f * np.stack([g[i] * g[j] for i, j in _PAIRS3]) + f * hlog
    return f, grad, hess


def _logn_stack(y, p: LognParams, order: int, standardized: bool = False):
    """Lognormal analogue of :func:`_ggd_stack` with theta = (mu, log sigma).

    The standardized log length is z = (log y - mu) / sigma, with density
    phi(z) = sigma y f(y).
    """
    y = np.asarray(y, dtype=float)
    mu, sig = p.mu, p.sigma
    if standardized:
        z, head = y, 0.0
    else:
        if np.any(y <= 0.0):
            raise ValueError("lognormal support is (0, inf)")
        ly = np.log(y)
        z, head = (ly - mu) / sig, -ly - np.log(sig)
    logf = head - 0.5 * np.log(2.0 * np.pi) - 0.5 * z * z
    f = np.where(logf > _LOG_UNDERFLOW, np.exp(logf), 0.0)
    if order < 1:
        return f, None, None

    gmu = z / sig
    gth = z * z - 1.0
    grad = f * np.stack([gmu, gth])
    if order < 2:
        return f, grad, None

    hlog = np.stack(
        [
            np.broadcast_to(-1.0 / sig**2, y.shape),  # (mu, mu)
            -2.0 * z / sig,                           # (mu, th)
            -2.0 * z * z,                             # (th, th)
        ]
    )
    g = np.stack([gmu, gth])
    hess = f * np.stack([g[i] * g[j] for i, j in _PAIRS2]) + f * hlog
    return f, grad, hess


def _component_stack(y, p: ComponentParams, order: int, standardized: bool = False):
    if isinstance(p, GgdParams):
        return _ggd_stack(y, p, order, standardized)
    return _logn_stack(y, p, order, standardized)


def _stack_height(cn: int, order: int) -> int:
    hp = len(_PAIRS3 if cn == 3 else _PAIRS2)
    return 1 + (cn if order >= 1 else 0) + (hp if order >= 2 else 0)


def _stack_rows(p: ComponentParams, order: int, standardized: bool = False):
    """y -> (stack, n) rows: density, then grad rows, then packed Hessian rows."""

    def fn(y):
        f, grad, hess = _component_stack(y, p, order, standardized)
        rows = [np.atleast_2d(f)]
        if order >= 1:
            rows.append(np.atleast_2d(grad))
        if order >= 2:
            rows.append(np.atleast_2d(hess))
        return np.concatenate(rows, axis=0)

    return fn


def _n_coords(p: ComponentParams) -> int:
    return 3 if isinstance(p, GgdParams) else 2


def _packed_to_full(packed, ncoord: int):
    """Expand packed upper-triangle rows (m, ...) to a full symmetric matrix."""
    pairs = _PAIRS3 if ncoord == 3 else _PAIRS2
    shape = (ncoord, ncoord) + packed.shape[1:]
    full = np.zeros(shape, dtype=float)
    for row, (i, j) in enumerate(pairs):
        full[i, j] = packed[row]
        full[j, i] = packed[row]
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
            at_zero = float(np.exp(np.log(p.d) - p.d * p.k * np.log(p.b) - log_gamma(p.k)))
        else:
            at_zero = np.inf
        f[~pos] = at_zero
    return float(f[0]) if np.ndim(y) == 0 else f


def logn_pdf(y, p: LognParams):
    """Lognormal density exp(-(log y - mu)^2 / (2 sigma^2)) / (y sigma sqrt(2 pi))."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and strictly positive")
    f, _, _ = _logn_stack(arr, p, 0)
    return float(f) if np.ndim(y) == 0 else f


def ggd_grad_theta(y, p: GgdParams):
    """Gradient of ggd_pdf with respect to (log b, log d, log k)."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and strictly positive")
    _, grad, _ = _ggd_stack(arr, p, 1)
    return grad if np.ndim(y) == 0 else grad.T


def logn_grad_theta(y, p: LognParams):
    """Gradient of logn_pdf with respect to (mu, log sigma)."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and strictly positive")
    _, grad, _ = _logn_stack(arr, p, 1)
    return grad if np.ndim(y) == 0 else grad.T


def ggd_hess_theta(y, p: GgdParams):
    """Symmetric matrix of second derivatives of ggd_pdf on the theta scale."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and strictly positive")
    _, _, packed = _ggd_stack(arr, p, 2)
    full = _packed_to_full(packed, 3)
    return full if np.ndim(y) == 0 else np.moveaxis(full, -1, 0)


def logn_hess_theta(y, p: LognParams):
    """Symmetric matrix of second derivatives of logn_pdf on the theta scale."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("y must be finite and strictly positive")
    _, _, packed = _logn_stack(arr, p, 2)
    full = _packed_to_full(packed, 2)
    return full if np.ndim(y) == 0 else np.moveaxis(full, -1, 0)


def component_pdf(y, p: ComponentParams):
    """Density of either family, dispatched on the parameter type."""
    if isinstance(p, GgdParams):
        return ggd_pdf(y, p)
    return logn_pdf(y, p)


def mixture_pdf_y(y, mp: MixtureParams):
    """Core-population mixture density eps * f_fines + (1 - eps) * f_fibers."""
    return mp.eps * component_pdf(y, mp.fines) + (1.0 - mp.eps) * component_pdf(y, mp.fibers)
