"""Adaptive Gauss-Kronrod quadrature shared by all density transforms.

The engine integrates a *stack* of integrands in one pass: ``f`` may return
either a vector of values (one integrand) or an array of shape
``(m, n_points)`` (m integrands evaluated at common nodes).  Panels are
refined where the 15-point Kronrod / 7-point Gauss discrepancy of any stack
component is too large, so value, gradient and Hessian integrals of a
likelihood share one subdivision tree.  ``segment_integrals`` grows its tree
from a few panels however many edges it is given, and reads each edge inside
a panel off the exact antiderivative of the degree-14 interpolant through
the panel's 15 Kronrod node values.

Endpoint behaviour: panels never evaluate their endpoints (Kronrod nodes are
interior), so integrable inverse-square-root singularities converge under
plain bisection; callers integrating against the cut-length kernel in the
observed variable should still substitute x = 2r sin(phi) for efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

__all__ = ["QuadratureConfig", "QuadratureError", "integrate", "segment_integrals"]

# 15-point Kronrod nodes on (-1, 1) and weights, with the embedded 7-point
# Gauss weights on the odd-indexed nodes (QUADPACK dqk15 constants).
_XK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the adaptive engine.

    tail_cutoff bounds the survival mass neglected when a semi-infinite
    integral is truncated.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    tail_cutoff: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0 or self.tail_cutoff <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


DEFAULT_CONFIG = QuadratureConfig()


class QuadratureError(RuntimeError):
    """Raised when the error target is not met within max_subdivisions."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


_KG_WEIGHTS = np.stack([_WK, _WK - np.bincount(_GAUSS_IDX, _WG, minlength=15)], axis=1)  # K and K - G
# chebvander(t, 15) @ _ANTIDERIVATIVE @ v integrates from -1 to t the degree-14
# interpolant through values v at the Kronrod nodes (to K at t = 1)
_ANTIDERIVATIVE = chebint(np.eye(15), lbnd=-1) @ np.linalg.inv(chebvander(_XK, 14))


def _eval_panels(f, lo, hi):
    """Kronrod estimates, |K - G| and node values, (m, n_panels[, 15]), per panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    m = vals.shape[0]
    vals = vals.reshape(m, lo.size, _XK.size)
    KG = vals @ _KG_WEIGHTS
    return KG[..., 0] * half, np.abs(KG[..., 1]) * half, vals


def _geometric_edges(start: float, stop: float, min_panels: int):
    """Edges from start (excluded) to stop, geometric, at least 4 per decade."""
    n = max(min_panels, int(np.ceil(4.0 * np.log10(stop / start))))
    return start * (stop / start) ** (np.arange(1, n + 1) / n)


def segment_integrals(f, edges, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Integrate a stack over each [edges[i], edges[i+1]] segment adaptively.

    Returns an array of shape (m, len(edges) - 1).  With step = ceil(number
    of segments / 16), initial panels end at every step-th edge, at edges 1,
    2, 4, ... up to step (graded toward the first edge, where the censored
    integrands are steepest), at the first edge in each band of width step *
    median(segment width) and at both ends of any wider segment (at every
    edge for up to 16 segments).  The budget and tolerances apply to the
    whole edge range at once: panels are bisected until, for every stack
    component, the summed |K - G| is within max(abs_tol, rel_tol * |integral|).
    The segment from e_i in panel a to e_{i+1} in panel b is (R[a] - R[b]) +
    A(e_{i+1}) - A(e_i), where R sums panels from the top, so small suffixes
    are not differences of large numbers, and A integrates the panel's
    interpolant from its left end.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    width = np.diff(edges)
    if np.any(width <= 0.0):
        raise ValueError("edges must be strictly increasing")

    step = -(-width.size // 16)
    band = step * np.partition(width, width.size // 2)[width.size // 2]
    keep = np.zeros(edges.size, dtype=bool)
    keep[::step] = keep[-1] = keep[2 ** np.arange(step.bit_length())] = True
    keep[1:] |= np.diff(np.floor((edges - edges[0]) / band)) > 0.0
    keep[:-1] |= width > band
    lo, hi = edges[keep][:-1], edges[keep][1:]
    K, err, vals = _eval_panels(f, lo, hi)
    # node values stay in their evaluation blocks; row[i] locates panel i
    blocks, row, splits = [vals], np.arange(lo.size), 0
    while True:
        total = np.abs(K.sum(axis=1))
        tol_m = np.maximum(cfg.abs_tol, cfg.rel_tol * total)
        err_m = err.sum(axis=1)
        bad_m = err_m > tol_m
        if not bad_m.any():
            break
        # split every panel that carries more than its per-panel share of a
        # failing component's budget; always include the worst offender
        bad = err[bad_m]
        mask = (bad > tol_m[bad_m, None] / (2.0 * lo.size)).any(axis=0)
        mask[np.argmax(bad.max(axis=0))] = True
        # panels too narrow to bisect in float cannot improve further
        mask &= (hi - lo) > 1e-14 * (np.abs(lo) + np.abs(hi) + 1e-300)
        if not mask.any():
            break
        n_split = int(mask.sum())
        if splits + n_split > cfg.max_subdivisions:
            raise QuadratureError(
                "quadrature did not converge within max_subdivisions",
                float(err_m.max()),
            )
        rest, left, right = ~mask, lo[mask], hi[mask]
        mid = 0.5 * (left + right)
        Kl, el, vl = _eval_panels(f, np.concatenate([left, mid]), np.concatenate([mid, right]))
        lo = np.concatenate([lo[rest], left, mid])
        hi = np.concatenate([hi[rest], mid, right])
        K = np.concatenate([K[:, rest], Kl], axis=1)
        err = np.concatenate([err[:, rest], el], axis=1)
        row = np.concatenate([row[rest], row.size + splits + np.arange(2 * n_split)])
        blocks.append(vl)
        splits += n_split

    order = np.argsort(lo)
    lo, hi, K, row = lo[order], hi[order], K[:, order], row[order]
    R = np.zeros((K.shape[0], lo.size + 1))
    R[:, :-1] = np.cumsum(K[:, ::-1], axis=1)[:, ::-1]
    bounds = np.append(lo, hi[-1])
    pan = np.searchsorted(bounds, edges, side="right") - 1
    # A is zero at panel ends; the edges inside a panel are consecutive
    A = np.zeros((K.shape[0], edges.size))
    inside = np.flatnonzero(edges > bounds[pan])
    if inside.size:
        j, half = pan[inside], 0.5 * (hi - lo)
        cheb = chebvander((edges[inside] - lo[j] - half[j]) / half[j], 15).T
        cuts = [0, *(np.flatnonzero(np.diff(j)) + 1).tolist(), j.size]
        used = j[cuts[:-1]]
        vals = np.concatenate(blocks, axis=1)[:, row[used]]
        coef = (vals @ _ANTIDERIVATIVE.T) * half[used, None]
        for k, (s, e, a) in enumerate(zip(cuts[:-1], cuts[1:], inside[cuts[:-1]].tolist())):
            np.matmul(coef[:, k], cheb[:, s:e], out=A[:, a : a + e - s])
    seg, c = A[:, 1:] - A[:, :-1], np.flatnonzero(pan[1:] != pan[:-1])
    seg[:, c] += R[:, pan[c]] - R[:, pan[c + 1]]
    return seg


def _truncation_point(f, a: float, tail_start: float, cfg: QuadratureConfig) -> float:
    """Double an upper limit until the integrand is negligible past it."""
    u = max(tail_start, a + 1e-6, 1e-6)
    for _ in range(80):
        val = np.max(np.abs(np.asarray(f(np.array([u])), dtype=float)))
        if val * max(u, 1.0) < cfg.tail_cutoff:
            return u
        u *= 2.0
    raise QuadratureError("could not find an integrable tail truncation point", np.inf)


def integrate(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG, *, tail_start=None):
    """Adaptive integral of f over (a, b); b may be +inf.

    ``f`` must accept an ndarray of points and return values (or an (m, n)
    stack, in which case an (m,) array is returned).  For b = inf the range
    is truncated where the integrand's magnitude, scaled by the abscissa,
    falls below cfg.tail_cutoff; ``tail_start`` seeds the doubling search
    (use a scale comparable to the integrand's mean).
    """
    if not np.isfinite(a):
        raise ValueError("lower limit must be finite")
    if b <= a:
        raise ValueError("upper limit must exceed lower limit")

    if np.isinf(b):
        seed = tail_start if tail_start is not None else 2.0 * abs(a) + 1.0
        u = _truncation_point(f, a, seed, cfg)
        # quadratic clustering toward a over the bulk, then geometric panels
        # out to the truncation point when the tail spans many decades
        head_end = min(u, max(2.0 * seed, 2.0 * abs(a) + 1.0))
        t = np.linspace(0.0, 1.0, 17)
        edges = a + (head_end - a) * t * t
        if u > head_end * (1.0 + 1e-12):
            edges = np.concatenate([edges, _geometric_edges(head_end, u, 8)])
    else:
        edges = np.linspace(a, b, 9)
    vals = segment_integrals(f, edges, cfg).sum(axis=1)
    return float(vals[0]) if vals.size == 1 else vals
