"""Adaptive Gauss-Kronrod quadrature shared by all density transforms.

The engine integrates a *stack* of integrands in one pass: ``f`` may return
either a vector of values (one integrand) or an array of shape
``(m, n_points)`` (m integrands evaluated at common nodes).  Panels are
refined where the 15-point Kronrod / 7-point Gauss discrepancy of any stack
component is too large, so value, gradient and Hessian integrals of a
likelihood share one subdivision tree.  ``segment_integrals`` grows its tree
from a few panels however many edges it is given and returns it as a
:class:`PanelTree`, which reads only what its caller asks for: the whole
integral (``total``, no per-edge work), the suffix integral from each edge
of a range (``suffix``, the sums of the panels above plus the exact
antiderivative of the degree-14 interpolant through the panel's 15 Kronrod
node values, anchored at the panel top), or weighted sums of the suffixes
over a range of edges (``suffix_dot``, the adjoint of that readout:
per-panel Chebyshev moments of the weights against the antiderivative
coefficients, so a gradient of a sum over the data needs no per-edge
derivative rows).  Both readouts take an edge range [start, stop), the
whole range by default, through the Chebyshev basis of that range.  The
basis depends only on the edges and the panels: a tree keeps the last range
it read, or, once told to (``PanelTree.keep_bases``), every range in a dict
that trees with the same edges and panels can share.

Endpoint behaviour: panels never evaluate their endpoints (Kronrod nodes are
interior), so integrable inverse-square-root singularities converge under
plain bisection; callers integrating against the cut-length kernel in the
observed variable should still substitute x = 2r sin(phi) for efficiency.
Densities that are nearly singular at y = 0 (y^(dk-1) with small d k, a
lognormal with large sigma) or spread over many decades of y are not
integrated in y: every package integral of them that reaches a tail runs in
standardized log length, where they are smooth with exponential tails,
between closed-form quantiles of the component, on panels ending at
quantiles of the component and at the logs of 16 equal y-panel ends of
(0, 2r] (``scales._log_length_integrals``).

Tolerances: one set serves every integral of the package.  A call bisects
panels until, for every stack component, the summed |K - G| is within
max(abs_tol, 1e-8 |integral|), with abs_tol = 1e-10 unless the caller
scales it, and raises :class:`QuadratureError` when that takes more than
200 bisections (``_ABS_TOL``, ``_REL_TOL``, ``_MAX_SUBDIVISIONS``).  A
log-length integral (``scales._log_length_integrals``) takes as abs_tol
1e-10 times the mass of its range; it starts where the mass below is 1e-12
of the mass below 2r and ends where the mass above is 1e-12
(``scales._TAIL_CUTOFF``).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

__all__ = ["PanelTree", "QuadratureError", "segment_integrals"]

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


# the tolerances of the module docstring
_ABS_TOL = 1e-10
_REL_TOL = 1e-8
_MAX_SUBDIVISIONS = 200


class QuadratureError(RuntimeError):
    """Raised when the error target is not met within _MAX_SUBDIVISIONS bisections."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(f"{message} (achieved error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


_KG_WEIGHTS = np.stack([_WK, _WK - np.bincount(_GAUSS_IDX, _WG, minlength=15)], axis=1)  # K and K - G
# chebvander(t, 15) @ _TO_TOP @ v integrates from t to 1 the degree-14
# interpolant through values v at the Kronrod nodes (to K at t = -1)
_TO_TOP = -chebint(np.eye(15), lbnd=1) @ np.linalg.inv(chebvander(_XK, 14))


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


class PanelTree:
    """The converged panels of one :func:`segment_integrals` call, read lazily.

    ``lo`` and ``hi`` hold the panels in ascending order, ``K`` (m, panels)
    their Kronrod sums and ``above`` (m, panels) the sum of K over all panels
    above each one.  ``n_initial`` and ``n_splits`` count the starting panels
    and the bisections, and ``worst_error_ratio`` is the largest summed
    |K - G| of a stack row over that row's tolerance.  Nothing is read off
    the interpolants until :meth:`suffix` or :meth:`suffix_dot` asks, and
    both read a range of edges [start, stop) through the Chebyshev basis of
    that range (:meth:`_read`).
    """

    def __init__(self, edges, lo, hi, K, vals, n_initial: int, n_splits: int, worst_error_ratio: float):
        above = np.zeros_like(K)
        above[:, :-1] = np.cumsum(K[:, :0:-1], axis=1)[:, ::-1]
        self.edges, self.lo, self.hi, self.K, self.above = edges, lo, hi, K, above
        for arr in (edges, lo, hi, K, above):
            arr.flags.writeable = False
        self.n_initial, self.n_splits, self.worst_error_ratio = n_initial, n_splits, worst_error_ratio
        self._vals, self._coef, self._bases, self._keep = vals, None, {}, False

    def total(self):
        """Integral of each row over the whole edge range, (m,)."""
        return self.K.sum(axis=1)

    def _coefficients(self):
        """Per panel the coefficients (m, panels, 16) of the integral from t to the last edge.

        The interpolant integrated from t to the panel top, plus the panels
        above in the constant term.
        """
        if self._coef is None:
            self._coef = (self._vals @ _TO_TOP.T) * (0.5 * (self.hi - self.lo))[:, None]
            self._coef[..., 0] += self.above
        return self._coef

    def keep_bases(self, bases: dict):
        """Read through ``bases`` and keep every range read there, not only the last.

        ``bases`` maps (start, stop) to the basis and runs of that range
        (:meth:`_read`), which depend only on the edges and the panels, so one
        dict serves every tree with the same edges, lo and hi.
        """
        self._bases, self._keep = bases, True

    def _read(self, start: int, stop: int):
        """The Chebyshev basis (16, stop - start) of edges [start, stop) in their panels, and their runs.

        A run (panel, first, end) lists the edges sharing a panel, counted
        from ``start``.  By default only the last range read is kept, so a
        value readout and a weighted sum over the same block build the basis
        once and a caller streaming over blocks holds one block's basis; after
        :meth:`keep_bases` every range read is kept.
        """
        got = self._bases.get((start, stop))
        if got is None:
            if not self._keep:
                self._bases.clear()  # release the last block's basis before building this one
            e = self.edges[start:stop]
            pan = np.searchsorted(self.lo, e, side="right") - 1
            half = 0.5 * (self.hi - self.lo)[pan]
            t = np.clip((e - self.lo[pan] - half) / half, -1.0, 1.0)
            basis = np.empty((16, t.size))
            basis[0], basis[1], t2 = 1.0, t, 2.0 * t
            for k in range(2, 16):  # chebvander's recurrence, row by row
                np.multiply(basis[k - 1], t2, out=basis[k])
                basis[k] -= basis[k - 2]
            starts = np.flatnonzero(np.diff(pan, prepend=-1))
            runs = list(zip(pan[starts].tolist(), starts.tolist(), [*starts[1:].tolist(), pan.size]))
            basis.flags.writeable = False
            got = self._bases[start, stop] = (basis, runs)
        return got

    def suffix(self, rows=slice(None), start: int = 0, stop: int | None = None):
        """int from each edge in [start, stop) (all by default) to the last edge, (rows, stop - start).

        The panels above an edge's own panel plus the rest of that panel,
        read off the interpolant's antiderivative anchored at the panel top.
        """
        stop = self.edges.size if stop is None else stop
        basis, runs = self._read(start, stop)
        first, last = runs[0][0], runs[-1][0] + 1
        coef = self._coefficients()[:, first:last][rows]
        out = np.empty((coef.shape[0], stop - start))
        for p, s, e in runs:
            np.matmul(coef[:, p - first], basis[:, s:e], out=out[:, s:e])
        return out

    def suffix_dot(self, weights, start: int = 0, stop: int | None = None):
        """sum_i a_i suffix(e_i) over the edges in [start, stop) for every row, (n_weights, m).

        ``weights`` is (n_weights, stop - start).  The per-panel Chebyshev
        moments of the weights meet the panel coefficients, so no edge is read
        row by row; the constant moment is the panel's total weight, which
        carries the panels above.
        """
        stop = self.edges.size if stop is None else stop
        a = np.asarray(weights, dtype=float)
        basis, runs = self._read(start, stop)
        first, last = runs[0][0], runs[-1][0] + 1
        moments = np.zeros((last - first, 16, a.shape[0]))
        for p, s, e in runs:
            np.matmul(basis[:, s:e], a[:, s:e].T, out=moments[p - first])
        return np.einsum("pkw,rpk->wr", moments, self._coefficients()[:, first:last])


def segment_integrals(f, edges, abs_tol: float = _ABS_TOL) -> PanelTree:
    """Integrate a stack adaptively over [edges[0], edges[-1]], readable at every edge.

    Returns a :class:`PanelTree` over a copy of the edges.  With step =
    ceil(number of segments / 16), initial panels end at every step-th edge,
    at edges 1, 2, 4, ... up to step (graded toward the first edge, where the
    censored integrands are steepest), at the first edge in each band of
    width step * median(segment width) and at both ends of any wider segment
    (at every edge for up to 16 segments).  The budget and tolerances apply
    to the whole edge range at once: panels are bisected until, for every
    stack component, the summed |K - G| is within max(abs_tol, _REL_TOL *
    |integral|), at most _MAX_SUBDIVISIONS times (module docstring).
    """
    edges = np.array(edges, dtype=float)
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
    n_initial = lo.size
    K, err, vals = _eval_panels(f, lo, hi)
    # node values stay in their evaluation blocks; row[i] locates panel i
    blocks, row, splits = [vals], np.arange(lo.size), 0
    while True:
        total = np.abs(K.sum(axis=1))
        tol_m = np.maximum(abs_tol, _REL_TOL * total)
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
        if splits + n_split > _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"quadrature did not converge within {_MAX_SUBDIVISIONS} bisections",
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
    vals = np.concatenate(blocks, axis=1)[:, row[order]]
    return PanelTree(edges, lo[order], hi[order], K[:, order], vals, n_initial, splits, float((err_m / tol_m).max()))

