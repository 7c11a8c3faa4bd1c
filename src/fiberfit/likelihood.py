"""Observed log likelihoods with analytic theta-scale gradients and Hessians.

Three likelihoods are provided:

* :func:`ofa_loglik`   - censored mixture for optical-fiber-analyzer data
  (sample from the X population),
* :func:`init_loglik`  - the uncensored mixture used to produce starting
  values (pretends every observed cell is uncut),
* :func:`micro_loglik` - single-component conditional likelihood for
  microscopy data (uncut fibers, X population V), including the
  -n log k_theta normalizer so reported values are absolute.

Every evaluation is pure: what the censored pass computes from the data
and r alone (kernel constants, readout bases, log p_uc) is kept across the
evaluations of one fit on the dataset ``fitting.fit`` builds
(``Dataset._points``), and reading it back gives the same bits as computing
it afresh.  Densities are evaluated once per distinct value, and every
data sum runs over the sorted unique values weighted by their counts.  The
log likelihood is exactly rounded: it is the correctly rounded sum of
Dekker's error-free products count * log f, so it equals math.fsum of the
per-point terms bit for bit.  Because every sum runs over one sorted array,
results do not depend on data order, and because doubling a count scales
each product by exactly 2, duplicating a dataset doubles the log
likelihood, gradient and Hessian exactly.

Gradients and Hessians are assembled from the mixture structure

    f_X = eps f_fines + (1 - eps) f_fibers

and the per-component censored stacks, rather than transcribing each entry
of the expanded formulas; finite-difference agreement is enforced in the
test suite.  Every likelihood is one assembly (``_mixture_eval``): a single
streamed pass over fixed-size blocks of the sorted unique values, top block
first (``scales._CensoredStacks.stream``), whose censored stacks of both
components come from one quadrature tree per evaluation.  The
initialization problem is that pass uncensored; a single component is the
pass with all weight on it, its block of the result kept; the microscopy
likelihood adds log p_uc, -n log k_theta and the normalizer's derivative
terms to the single-component pass.  Each block writes its log densities
and adds its share of the gradient and Hessian sums; no per-point array but
the log densities spans the data.  What each order reads per point:

* order 0: the value rows T_0 and S_0 of each component;
* order 1: the same, for f_X and v = counts / f_X; every derivative row is
  summed against v inside the tree, the adjoint of the readout (reverse
  mode, Griewank and Walther, Evaluating Derivatives, SIAM 2008);
* order 2: the value and gradient rows, which the outer product of the
  scores needs; the Hessian rows are summed against v like the gradient
  rows at order 1.  Scores whose sums overflow double range raise
  EvaluationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .densities import (
    _TINY,
    ComponentParams,
    MixtureParams,
    ParamVector,
    _n_coords,
    _packed_to_full,
    _stack_height,
    decode,
)
from .geometry import CoreGeometry
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureError, segment_integrals
from .scales import _CensoredPoints, _CensoredStacks, _uncut_mass_stack

__all__ = [
    "Dataset",
    "LikelihoodEvaluation",
    "DataValidationError",
    "EvaluationError",
    "ofa_loglik",
    "init_loglik",
    "micro_loglik",
]


class DataValidationError(ValueError):
    """Input data violates the support of the chosen model."""

    def __init__(self, message: str, indices):
        self.indices = list(indices)
        shown = ", ".join(str(i) for i in self.indices[:10])
        more = "..." if len(self.indices) > 10 else ""
        super().__init__(f"{message} (offending indices: {shown}{more})")


class EvaluationError(RuntimeError):
    """A likelihood integral failed to converge."""


def _checked_lengths(values, scale: str):
    """``values`` after the one check of both Dataset constructors: nonempty, finite and positive, scale X or V."""
    if values.size < 1:
        raise ValueError("dataset must contain at least one value")
    if scale not in ("X", "V"):
        raise ValueError("scale must be 'X' (OFA) or 'V' (microscopy)")
    bad = np.nonzero(~np.isfinite(values) | (values <= 0.0))[0]
    if bad.size:
        raise DataValidationError("lengths must be finite and positive", bad)
    return values


@dataclass(eq=False)
class Dataset:
    """Observed lengths, in any one unit, tagged with their population scale.

    scale "X" marks OFA data (every cell in the core, cut or uncut);
    scale "V" marks microscopy data (uncut fibers only).

    The likelihoods work on the collapsed form computed at construction:
    ``unique`` holds the sorted distinct values, ``counts`` (float) how often
    each occurs, and ``inverse`` the position in ``unique`` of each entry of
    ``values``, so ``unique[inverse]`` reproduces ``values``.  ``values`` is
    a copy of the input, all four arrays are read-only, and no field but
    ``_points`` can be reassigned after construction, so the collapsed form
    always describes ``values``.  Two datasets are equal only when they are
    the same object.  ``_points`` is None unless
    ``fitting.fit`` attached the per-point constants of its evaluations
    (``scales._CensoredPoints``) to the unitless dataset it builds.
    :meth:`_from_counts` builds a dataset from sorted distinct values and
    their counts without sorting the points again.
    """

    values: np.ndarray
    scale: str = "X"
    unique: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    _points: _CensoredPoints | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _checked_lengths(np.array(self.values, dtype=float).ravel(), self.scale)
        unique, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
        self._collapsed(arr, unique, counts.astype(float), inverse)

    def _collapsed(self, values, unique, counts, inverse):
        for a in (values, unique, counts, inverse):
            a.flags.writeable = False
        self.values, self.unique, self.counts = values, unique, counts
        self.inverse = inverse  # set last: from here on only _points may be assigned

    @classmethod
    def _from_counts(cls, unique, counts, scale: str = "X", inverse=None):
        """The dataset of sorted distinct values ``unique`` occurring ``counts`` times, without sorting again.

        ``values`` is ``unique[inverse]``; with ``inverse`` None each value is
        repeated by its count, in sorted order.  Given the ``np.unique`` output
        of some data, the result equals ``Dataset`` of those data.
        """
        unique, counts = np.array(unique, dtype=float), np.array(counts, dtype=float)
        if unique.ndim != 1 or counts.shape != unique.shape:
            raise ValueError("unique and counts must be one-dimensional and of one length")
        _checked_lengths(unique, scale)
        if np.any(unique[1:] <= unique[:-1]) or np.any(counts < 1.0) or np.any(counts % 1.0):
            raise ValueError("unique must be strictly increasing and counts positive integers")
        if inverse is None:
            inverse = np.repeat(np.arange(unique.size), counts.astype(np.intp))
        data = cls.__new__(cls)
        data.scale, data._points = scale, None
        data._collapsed(unique[inverse], unique, counts, np.array(inverse, dtype=np.intp))
        return data

    def __setattr__(self, name, value):
        if name != "_points" and "inverse" in self.__dict__:
            raise AttributeError(f"Dataset.{name} cannot be reassigned; build a new Dataset")
        super().__setattr__(name, value)

    @property
    def n(self) -> int:
        return self.values.size

    def validate_support(self, geom: CoreGeometry):
        """Check the strict (0, 2r) support required for fitting."""
        bad = np.nonzero(self.values >= 2.0 * geom.r)[0]
        if bad.size:
            raise DataValidationError(
                f"observed lengths must lie strictly inside (0, 2r) = (0, {2.0 * geom.r:g})",
                bad,
            )


@dataclass
class LikelihoodEvaluation:
    loglik: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None
    per_point_loglik: np.ndarray | None = None


_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's constant for splitting a double


def _split(a):
    """Split doubles into high and low halves of at most 26 significant bits each."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _exact_sum(x) -> float:
    """Correctly rounded sum of a float array (Rump, Ogita and Oishi's extraction).

    With max|x| < 2^e and sigma = 2^(e + ceil(log2(n + 2))), q = (sigma + x)
    - sigma rounds every term to sigma's grid, x - q is exact, and the q of
    one pass add up exactly in any order.  Passes repeat on the remainders
    until they are all zero or sigma * 2^-53 would leave the normal range
    (or sigma would overflow); one math.fsum then rounds the exact pass sums
    and what remains, so the result equals math.fsum(x) bit for bit.
    """
    x = np.array(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return math.fsum(x.tolist())
    extra = math.ceil(math.log2(x.size + 2))
    parts = []
    while True:
        top = float(np.max(np.abs(x)))
        if top == 0.0:
            break
        e = math.frexp(top)[1] + extra
        if not -969 <= e <= 1023:
            break
        sigma = math.ldexp(1.0, e)
        q = (sigma + x) - sigma
        x -= q
        parts.append(float(np.sum(q)))
    return math.fsum(parts + x[x != 0.0].tolist())


def _weighted_fsum(values, counts) -> float:
    """Exactly rounded sum of counts * values.

    Each product is carried as Dekker's error-free pair p + e (p the rounded
    product, e its exact rounding error), and all pairs are added with one
    rounding (:func:`_exact_sum`), so the result equals math.fsum over the
    expanded terms.  Exact unless a product overflows or its error
    underflows, which cannot happen for log densities and integer counts.
    Unit counts (all values distinct) need no products.
    """
    if np.all(counts == 1.0):
        return _exact_sum(values)
    p = counts * values
    vh, vl = _split(values)
    ch, cl = _split(counts)
    e = ((ch * vh - p) + ch * vl + cl * vh) + cl * vl
    return _exact_sum(np.concatenate([p, e]))


def _symmetric_hessian(d2_sum, outer):
    """d2_sum - outer (sum_k w_k score_k score_k^T), upper triangle mirrored.

    Mirroring makes the result exactly symmetric, which the matrix product
    alone does not guarantee.
    """
    hess = np.triu(d2_sum - outer)
    return hess + np.triu(hess, 1).T


def _evaluation(per_point, grad, hess, data: Dataset) -> LikelihoodEvaluation:
    """Weight per-unique-value log terms by counts; per-point terms in input order."""
    loglik = _weighted_fsum(per_point, data.counts)
    return LikelihoodEvaluation(loglik, grad, hess, per_point[data.inverse])


def _as_params(theta):
    """Accept a ParamVector or already-decoded parameters."""
    if isinstance(theta, ParamVector):
        return decode(theta)
    if isinstance(theta, MixtureParams | ComponentParams):
        return theta
    raise TypeError(f"cannot interpret {type(theta).__name__} as parameters")


def _points_of(data: Dataset, geom: CoreGeometry) -> _CensoredPoints:
    """The per-point constants of ``data`` on ``geom``: those a fit attached, else fresh ones."""
    held = data._points
    return held if held is not None and held.r == geom.r else _CensoredPoints(data.unique, geom.r)


def _mixture_eval(mix: MixtureParams, data: Dataset, geom: CoreGeometry | None, cfg: QuadratureConfig, order: int):
    """Per-unique log f_X and the count-weighted gradient and Hessian sums, streamed over blocks of the data.

    The one likelihood assembly.  The ``scales._CensoredStacks`` of the live
    components are censored on ``geom``, or plain densities with ``geom``
    None (the uncensored initialization problem); a component with zero
    weight is not evaluated, and its value row reads as 0.  Each block of
    points, top block first, gives f_X and v = counts / f_X there and adds
    its share of every sum: the derivative rows are summed against v
    (``dot``), and at order 2 the value and gradient rows read per point give
    the scores and their weighted outer product; scores that overflow double
    range raise EvaluationError.  Returns (log_f, grad, hess), each None above
    the order that forms it.
    """
    eps, w = mix.eps, data.counts
    cn = _n_coords(mix.fines)
    live = [i for i, on in enumerate((eps > 0.0, eps < 1.0)) if on]
    try:
        parts = [(mix.fines, mix.fibers)[i] for i in live]
        stacks = _CensoredStacks(data.unique, parts, geom, cfg, order, None if geom is None else _points_of(data, geom))
    except QuadratureError as exc:
        raise EvaluationError(f"censored-tail integral failed: {exc}") from exc
    scores = order >= 2
    n_read = 1 + cn if scores else 1
    de = eps - eps * eps
    log_f = np.empty(data.unique.size)
    mix_dot, dots = 0.0, np.zeros((2, _stack_height(cn, order) - 1))  # (f_n - f_b) @ v, derivative rows @ v
    score_sum, outer = np.zeros(1 + 2 * cn), np.zeros((1 + 2 * cn, 1 + 2 * cn))  # order 2: w score, w score score'

    def visit(block, rows, dot):
        nonlocal mix_dot
        f_n = rows[0][0] if eps > 0.0 else 0.0
        f_b = rows[-1][0] if eps < 1.0 else 0.0
        fc = np.maximum(eps * f_n + (1.0 - eps) * f_b, _TINY)
        log_f[block] = np.log(fc)
        if order == 0:
            return
        wb = w[block]
        v = wb / fc
        mix_dot += (f_n - f_b) @ v
        for i, d in zip(live, dot(v)):
            dots[i] += d
        if scores:
            score = np.zeros((1 + 2 * cn, wb.size))  # a dead component's block stays 0
            score[0] = de * (f_n - f_b)
            for i, r in zip(live, rows):
                score[1 + i * cn : 1 + (i + 1) * cn] = (eps, 1.0 - eps)[i] * r[1:]
            with np.errstate(over="ignore", invalid="ignore"):
                score /= fc
                score_sum[...] += score @ wb
                outer[...] += (wb * score) @ score.T

    stacks.stream(n_read, visit)
    grad = hess = None
    if scores and not (np.all(np.isfinite(score_sum)) and np.all(np.isfinite(outer))):
        raise EvaluationError("the scores overflow double range")
    if order == 1:
        grad = np.concatenate([[de * mix_dot], eps * dots[0], (1.0 - eps) * dots[1]])
    if order >= 2:
        grad = score_sum
        d2_sum = np.zeros((1 + 2 * cn, 1 + 2 * cn))
        d2_sum[0, 0] = de * (1.0 - 2.0 * eps) * mix_dot
        d2_sum[0, 1 : 1 + cn] = de * dots[0, :cn]
        d2_sum[0, 1 + cn :] = -de * dots[1, :cn]
        d2_sum[1 : 1 + cn, 1 : 1 + cn] = eps * _packed_to_full(dots[0, cn:], cn)
        d2_sum[1 + cn :, 1 + cn :] = (1.0 - eps) * _packed_to_full(dots[1, cn:], cn)
        hess = _symmetric_hessian(d2_sum, outer)
    return log_f, grad, hess


def _component_eval(p: ComponentParams, data: Dataset, cfg: QuadratureConfig, order: int):
    """Uncensored (log_f, grad, hess) of one component: the mixture pass with all its weight on p."""
    log_f, *sums = _mixture_eval(MixtureParams(1.0, p, p), data, None, cfg, order)
    own = slice(1, 1 + _n_coords(p))
    return (log_f, *(None if a is None else a[own] if a.ndim == 1 else a[own, own] for a in sums))


def ofa_loglik(
    theta,
    data: Dataset,
    geom: CoreGeometry,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    order: int = 0,
) -> LikelihoodEvaluation:
    """Censored-mixture log likelihood of OFA data on the X scale.

    ``theta`` is a mixture ParamVector or MixtureParams.  With order >= 1 the
    analytic theta-gradient is attached, with order >= 2 the Hessian as well
    (coordinate order: eps coordinate, fines block, fibers block).
    """
    mix = _as_params(theta)
    if not isinstance(mix, MixtureParams):
        raise TypeError("OFA likelihood requires mixture parameters")
    if data.scale != "X":
        raise ValueError("OFA likelihood requires a dataset on the X scale")
    data.validate_support(geom)
    return _evaluation(*_mixture_eval(mix, data, geom, cfg, order), data)


def init_loglik(
    theta,
    data: Dataset,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    order: int = 0,
) -> LikelihoodEvaluation:
    """Uncensored log likelihood used for initialization.

    Treats every observed cell as uncut, so the observed density is the plain
    Y-scale mixture (or single component for microscopy-style input).  No
    geometry is involved and no integrals are required.
    """
    params = _as_params(theta)
    if isinstance(params, MixtureParams):
        return _evaluation(*_mixture_eval(params, data, None, cfg, order), data)
    return _evaluation(*_component_eval(params, data, cfg, order), data)


def micro_loglik(
    theta,
    data: Dataset,
    geom: CoreGeometry,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    order: int = 0,
) -> LikelihoodEvaluation:
    """Conditional log likelihood of microscopy data (uncut fibers).

    Per observation the exact uncut-fiber density is used:

        log f_V(v_i) = log f_Y(v_i) + log p_uc(v_i) - log k_theta,

    with k_theta = int_0^2r f_Y p_uc.  The log p_uc(v_i) term is constant in
    theta (it is often dropped when only the maximizer matters) but is kept
    here so the reported value is the absolute log likelihood.  The
    normalizer and its derivatives share one quadrature pass, the same
    integral as :func:`scales.k_theta`: in standardized log length on
    quantile panels, up to 2r, converged to an absolute tolerance of
    abs_tol F(2r), F(2r) the mass below 2r (``scales._log_length_integrals``).
    """
    p = _as_params(theta)
    if isinstance(p, MixtureParams):
        raise TypeError("microscopy likelihood takes a single fiber component")
    if data.scale != "V":
        raise ValueError("microscopy likelihood requires a dataset on the V scale")
    data.validate_support(geom)
    log_f, grad, hess = _component_eval(p, data, cfg, order)
    try:
        kint = _uncut_mass_stack(p, geom, cfg, order, segment_integrals)
    except QuadratureError as exc:
        raise EvaluationError(f"uncut-probability normalizer failed: {exc}") from exc
    k0 = max(float(kint[0]), _TINY)
    log_puc = _points_of(data, geom).log_puc
    n, cn = data.n, _n_coords(p)
    kj = kint[1 : 1 + cn] / k0
    if order >= 2:
        hess = hess - n * (_packed_to_full(kint[1 + cn :], cn) / k0 - np.outer(kj, kj))
    if order >= 1:
        grad = grad - n * kj
    return _evaluation(log_f + log_puc - np.log(k0), grad, hess, data)
