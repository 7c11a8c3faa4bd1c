"""Box-constrained maximum likelihood fitting.

The optimizer works on the unconstrained theta scale (logit for the fines
proportion, log for positive parameters); user bounds on the original scale
are transformed.  Starting values maximize the uncensored mixture likelihood
(no integrals) by L-BFGS-B; the censored likelihood is then maximized from
them by Newton steps, best of at most ``n_starts`` starts.  The later
starts, jittered and run by L-BFGS-B, run only when the first is no known
optimum or ``par_start`` is given.

Both stages solve the unitless problem, lengths and r divided by s0 =
median(data), and map back by one theta shift (log s0 on log b or mu) and a
log likelihood n log s0 lower, so a fit is the same in any length unit.
Default bounds are relative to s0, and one seed rule (``ModelSpec.seed``)
serves every model.  Fines is the component with the smaller Y-scale mean.

The Newton steps and the initialization work in u, which replaces each
all-free generalized gamma component's (log b, log d, log k) by (m, log s,
log k), m = log b + psi(k) / d and s = sqrt(psi'(k)) / d the mean and sd of
log Y (Prentice 1974, Biometrika 61:539; Lawless 1980, Technometrics
22:409), in which the three are far less correlated.  J = d theta / d u is
analytic; the u box is the corner bounding box of the theta box's image.
The initialization runs L-BFGS-B in z = u - u0 on theta clipped into the
box, stops once an iterate's theta leaves the box, and ends at its last
iterate's theta clipped into the box, which may lie on a face; the
censored fit's Newton steps or L-BFGS-B in theta hold the bounds from
there.

One Newton routine (:meth:`_Problem.newton`) finds the first start's
optimum and certifies every optimum, one order-2 evaluation a step.  A
step solves (J' (-H) J) du = J' g and maps u + du back to theta, or, when
that leaves the box, the point where the path u + t du meets it
(:func:`_to_the_box`).  A component with a coordinate on a bound steps in
theta, and the step holds the coordinates on a bound that their gradient
or the step would take out.  Where J' (-H) J has no Cholesky factor, its
eigenvalues are replaced by their absolute values, floored at 1e-8 of the
largest (Nocedal & Wright 2006, Numerical Optimization, section 3.4).  A
step that does not raise the log likelihood is halved in u, at most 12
times, halvings after the first judged at order 0 (halving the theta chord
fails on the curved k ridge), unless its point predicts a gain of at most
1e-6; the steps then end there.  They end after the first unmodified step from a point whose
predicted gain (J' g) du / 2 is at most 1e-6; the point is a known optimum
if -H has a Cholesky factor and predicts no further gain there, else the
start's message names the reason.

The first start without ``par_start``, from the initialization's end point
on a face of the box or inside it, takes at most 50 Newton steps (5-15
reach a known optimum on the benchmark's samples, where Newton's method in
theta needed more iterations than L-BFGS-B).  When they stop short,
L-BFGS-B in theta runs on every point from where they stopped; later
starts and ``par_start`` starts run it from their start.  A converged
L-BFGS-B run takes one Newton step (the polish), and the order-2 evaluation
a start ends on gives the covariance.  A later start stops as a duplicate
once an iterate enters a known optimum's Hessian ellipsoid at the
chi-square 0.99 level with a log likelihood the quadratic model allows
there (the basin test of multi-level single linkage, Rinnooy Kan & Timmer
1987, Math. Programming 39:57).  Later starts search for basins not yet
known, so when the first start is a known optimum and there is no
``par_start`` (a user's start may sit in a poor basin), the fit ends.

Above one streamed block of distinct values (``scales._BLOCK`` = 8 192) a
fit is coarse to fine.  The sorted distinct unitless values are cut into
_GROUPS = 1 024 contiguous groups of equal count, a tied value never
split, each its count-median value carrying the group's count
(:func:`_grouped`; grouped data, Heitjan 1989, Statistical Science
4:164).  The initialization and the first start's Newton steps run on the
groups, ending about 1 SE from the full-data optimum, and at most
_NEWTON_STEPS + 1 Newton steps on every point finish the start (L-BFGS-B
from where either stops short of a known optimum).  Later starts, the
finish, the basin stop and the covariance use every point.  On n = 20 000
OFA samples the first start makes 4-5 order-2 evaluations on every point
and 8-11 on the groups.

Fixed parameters are held at their original-scale values and excluded from
the optimization; a proportion fixed at exactly 0 or 1 is supported even
though it has no finite logit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np
from scipy.optimize import OptimizeResult, minimize
from scipy.special import chdtri, psi, zeta

from .densities import (
    FAMILIES,
    GGAMMA,
    ParamVector,
    _kinds,
    _params_from_values,
    _transform,
)
from .geometry import CoreGeometry
from .likelihood import (
    Dataset,
    EvaluationError,
    LikelihoodEvaluation,
    init_loglik,
    micro_loglik,
    ofa_loglik,
)
from .quadrature import DEFAULT_CONFIG
from .scales import _BLOCK, _CensoredPoints
from .special import _trigamma

log = logging.getLogger(__name__)

__all__ = [
    "ModelSpec",
    "FitConfig",
    "FitResult",
    "FitError",
    "initialize",
    "fit",
    "covariance_original_scale",
]

OFA = "ofa"
MICROSCOPY = "microscopy"


class FitError(RuntimeError):
    """All optimization starts failed; carries per-start diagnostics."""

    def __init__(self, message: str, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(message)


@dataclass(frozen=True)
class ModelSpec:
    """Distribution family, data type, and core geometry of one fit."""

    family: str
    data_type: str
    geom: CoreGeometry

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {', '.join(map(repr, FAMILIES))}")
        if self.data_type not in (OFA, MICROSCOPY):
            raise ValueError(f"data_type must be '{OFA}' or '{MICROSCOPY}'")

    @property
    def param_names(self) -> tuple:
        names = FAMILIES[self.family].names
        if self.data_type == MICROSCOPY:
            return names
        return ("eps",) + tuple(n + "1" for n in names) + tuple(n + "2" for n in names)

    @property
    def transforms(self) -> tuple:
        """Per-coordinate transform kind: 'logit', 'log' or 'id'."""
        return _kinds(self.family, self.data_type == OFA)

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def default_bounds(self):
        """Original-scale (lower, upper), for lengths in units of the data scale (see :func:`fit`)."""
        comp = FAMILIES[self.family].bounds
        pairs = comp if self.data_type == MICROSCOPY else ((1e-4, 1.0 - 1e-4),) + comp + comp
        lo, hi = np.array(pairs).T
        return lo, hi

    def seed(self, lengths) -> np.ndarray:
        """Theta whose components match the mean and sd of their log lengths (``_Family.seed``).

        A mixture splits the sorted log lengths at their 20th percentile: fines
        below, fibers above, eps the share below.
        """
        seed = FAMILIES[self.family].seed
        logs = np.sort(np.log(lengths))  # sorted sums do not depend on data order

        def part(x):
            return seed(x.mean(), max(x.std(), 1e-3))

        if self.data_type == MICROSCOPY:
            return np.array(part(logs))
        split = logs[max(1, int(0.2 * logs.size)) - 1]
        low, high = logs[logs <= split], logs[logs > split]
        if high.size == 0:  # degenerate tiny samples
            high = low + 1.0
        share = min(low.size / logs.size, 1.0 - 1e-6)
        return np.array([np.log(share / (1.0 - share)), *part(low), *part(high)])

    def to_theta(self, original) -> np.ndarray:
        """Original scale to theta; a boundary proportion maps to -inf/+inf (valid only when fixed)."""
        return np.array(_transform(self.transforms, np.asarray(original, dtype=float), 0))

    def from_theta(self, theta) -> np.ndarray:
        return np.array(_transform(self.transforms, np.asarray(theta, dtype=float), 1))

    def chain_vector(self, theta) -> np.ndarray:
        """d(original)/d(theta) per coordinate, the delta-method diagonal."""
        return np.array(_transform(self.transforms, np.asarray(theta, dtype=float), 2))

    def params_from_original(self, original):
        return _params_from_values(self.family, np.asarray(original, dtype=float))

    def param_vector(self, theta, fixed_mask=None) -> ParamVector:
        return ParamVector(self.family, tuple(np.asarray(theta, dtype=float)), fixed_mask)


@dataclass(frozen=True)
class FitConfig:
    """Options for :func:`fit`; bounds and starting values on the original scale, in data units.

    ``n_starts`` is the most starts a fit runs: starts 2..n_starts run only
    when the first is not a known optimum or ``par_start`` is given.
    """

    lower: tuple | None = None
    upper: tuple | None = None
    par_start: tuple | None = None
    fixed_mask: tuple | None = None
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be at least 1")
        if self.fixed_mask is not None and any(self.fixed_mask):
            if self.par_start is None:
                raise ValueError("fixed parameters require par_start entries")


@dataclass
class StartRecord:
    index: int
    theta0: np.ndarray
    loglik: float
    status: str
    n_iter: int
    message: str


@dataclass
class FitResult:
    """Estimates on both scales with covariances and optimizer diagnostics."""

    model: ModelSpec
    theta_hat: ParamVector
    theta_tilde: np.ndarray
    loglik: float
    cov_theta: np.ndarray | None
    cov_tilde: np.ndarray | None
    se_tilde: np.ndarray | None
    convergence: str
    n: int
    starts_tried: int
    trace: list = field(default_factory=list)
    se_flagged: bool = False

    @property
    def param_names(self) -> tuple:
        return self.model.param_names


def _unitless(data: Dataset, model: ModelSpec):
    """(dataset, model, theta shift, log s0) of the problem in units of s0 = median(data).

    Lengths and r are divided by s0.  Only the first coordinate of each
    component carries the unit (``densities._Family``), so theta in data units
    is the unitless theta plus ``shift``, log s0 there and 0 elsewhere, and
    the log likelihood in data units is the unitless one minus n log s0.
    """
    log_s0 = float(np.log(s0 := np.median(data.values)))
    size = FAMILIES[model.family].size
    shift = np.zeros(model.n_params)
    shift[model.n_params % size :: size] = log_s0  # after eps, if any: one slot per component
    unit_model = replace(model, geom=CoreGeometry(model.geom.r / s0))
    # division keeps the distinct values sorted, and merges only those it rounds to one value
    unique = data.unique / s0
    new = np.r_[True, unique[1:] != unique[:-1]]
    counts = np.add.reduceat(data.counts, np.flatnonzero(new))
    unit_data = Dataset._from_counts(unique[new], counts, data.scale, (np.cumsum(new) - 1)[data.inverse])
    return unit_data, unit_model, shift, log_s0


_GROUPS = 1024  # groups of the coarse first start on many distinct values (fit)


def _grouped(data: Dataset) -> Dataset:
    """The data in _GROUPS contiguous groups of equal count, each its count-median value carrying the group's count.

    The sorted distinct values are cut where the points below them cross a
    multiple of n / _GROUPS, so that groups of distinct values hold
    floor or ceil(n / _GROUPS) points each and a tied value is never split
    (a value with more points than that leaves fewer groups).  A group's
    value is the one at which its cumulative count reaches half its count.
    """
    below = np.cumsum(data.counts) - data.counts  # points below each distinct value, exact integers
    label = below.astype(np.int64) * _GROUPS // data.n
    first = np.flatnonzero(np.r_[True, label[1:] != label[:-1]])
    counts = np.add.reduceat(data.counts, first)
    median = np.searchsorted(below + data.counts, below[first] + 0.5 * counts)
    return Dataset._from_counts(data.unique[median], counts, data.scale)


def _fit_inputs(model: ModelSpec, cfg: FitConfig, shift):
    """(fixed mask, original-scale ``par_start`` or None, unitless theta box lo, hi) of one fit.

    The one check of ``fixed_mask``, ``par_start``, ``lower`` and ``upper``,
    made before any transform reads them.  Each must have one entry per
    parameter, and ``par_start`` and the bounds must lie in the family's
    domain.  Every bound must map to a finite theta, so a proportion's bound
    lies strictly inside (0, 1), and so does a free proportion's start: its
    logit is an optimizer coordinate.  The box is the default bounds, or user
    bounds in data units shifted in, and must be nonempty.
    """
    n = model.n_params
    fixed = np.zeros(n, dtype=bool) if cfg.fixed_mask is None else np.asarray(cfg.fixed_mask, dtype=bool)
    if fixed.size != n:
        raise ValueError(f"fixed_mask must have {n} entries")
    given = {}
    for name in ("par_start", "lower", "upper"):
        if getattr(cfg, name) is None:
            continue
        value = given[name] = np.asarray(getattr(cfg, name), dtype=float)
        if value.size != n:
            raise ValueError(f"{name} must have {n} entries")
        try:
            model.params_from_original(value)
        except ValueError as exc:
            raise ValueError(f"{name} is outside the model's domain: {exc}") from None
        if model.data_type == OFA and value[0] in (0.0, 1.0):
            if name != "par_start":
                raise ValueError(f"{name} puts the proportion at 0 or 1; bounds must lie strictly inside (0, 1)")
            if not fixed[0]:
                raise ValueError("par_start puts a free proportion at 0 or 1; fix it there or start inside (0, 1)")
    box = [
        model.to_theta(default) if name not in given else model.to_theta(given[name]) - shift
        for name, default in zip(("lower", "upper"), model.default_bounds())
    ]
    if np.any(box[0] >= box[1]):
        raise ValueError("lower bounds must be strictly below upper bounds")
    return fixed, given.get("par_start"), *box


_MAX_ITER = 500  # L-BFGS-B iterations of one run
_GRAD_TOL = 1e-7  # L-BFGS-B projected-gradient tolerance


def _lbfgsb(objective, x0, lo, hi, callback=None):
    """scipy's L-BFGS-B with the analytic gradient on the box [lo, hi]; ``objective`` returns (value, gradient)."""
    return minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        callback=callback,
        options={"maxiter": _MAX_ITER, "gtol": _GRAD_TOL},
    )


def _loc_scale(t):
    """(m, log s, log k) of generalized gamma theta (log b, log d, log k), per column of ``t``.

    m = E log Y = log b + psi(k) / d and s = sd log Y = sqrt(psi'(k)) / d,
    the location and scale of log Y (Prentice 1974, Biometrika 61:539;
    Lawless 1980, Technometrics 22:409).
    """
    k = np.exp(t[2])
    return np.array([t[0] + psi(k) * np.exp(-t[1]), 0.5 * np.log(_trigamma(k)) - t[1], t[2]])


def _loc_scale_inverse(u):
    """(theta, J = d theta / d u) of generalized gamma (m, log s, log k); psi'' = -2 zeta(3, k)."""
    k = np.exp(u[2])
    p0, p1, p2 = psi(k), _trigamma(k), -2.0 * zeta(3.0, k)
    inv_d = np.exp(u[1]) / np.sqrt(p1)
    theta = np.array([u[0] - p0 * inv_d, 0.5 * np.log(p1) - u[1], u[2]])
    jac = np.array([
        [1.0, -p0 * inv_d, -k * inv_d * (p1 - 0.5 * p0 * p2 / p1)],
        [0.0, -1.0, 0.5 * k * p2 / p1],
        [0.0, 0.0, 1.0],
    ])
    return theta, jac


def _blocks(model: ModelSpec, free):
    """The position in the free vector of the first coordinate of each all-free generalized gamma component."""
    position = np.cumsum(free) - 1  # of each theta coordinate in the free vector
    firsts = range(model.n_params % 3, model.n_params, 3) if model.family == GGAMMA else ()
    return [position[i] for i in firsts if free[i : i + 3].all()]


def _u_of(x, blocks):
    """u of the free theta x: each block's (log b, log d, log k) in (m, log s, log k)."""
    u = np.array(x, dtype=float)
    for i in blocks:
        u[i : i + 3] = _loc_scale(u[i : i + 3])
    return u


def _theta_of(u, blocks):
    """(free theta, J = d theta / d u) at u."""
    x = np.array(u, dtype=float)
    jac = np.eye(x.size)
    for i in blocks:
        x[i : i + 3], jac[i : i + 3, i : i + 3] = _loc_scale_inverse(x[i : i + 3])
    return x, jac


def _inside(x, lo, hi):
    """Whether x lies strictly inside the box [lo, hi]."""
    return bool(np.all(x > lo) and np.all(x < hi))


def _u_box(blocks, lo, hi):
    """The corner bounding box of the image in u of the theta box [lo, hi].

    m and log s are each monotone in every theta coordinate, so the corners
    hold their extremes.
    """
    ulo, uhi = lo.copy(), hi.copy()
    for i in blocks:
        image = _loc_scale(np.array(list(product(*zip(lo[i : i + 3], hi[i : i + 3])))).T)
        ulo[i : i + 3], uhi[i : i + 3] = image.min(axis=1), image.max(axis=1)
    return ulo, uhi


def _to_the_box(u0, step, blocks, ubox, lo, hi):
    """Theta of u0 + step, or of u0 + t step at the t in (0, 1) where that path meets the theta box [lo, hi].

    t is bisected to 2^-40 and taken outside, so that clipping puts the
    coordinates the path crosses on their bound and keeps the rest on it.
    """

    def theta_at(t):
        return _theta_of(np.clip(u0 + t * step, *ubox), blocks)[0]

    x, inside, out = theta_at(1.0), 0.0, 1.0
    if np.all((x >= lo) & (x <= hi)):
        return x
    for _ in range(40):
        mid = 0.5 * (inside + out)
        x = theta_at(mid)
        inside, out = (mid, out) if np.all((x >= lo) & (x <= hi)) else (inside, mid)
    return theta_at(out)


class _Coords:
    """Optimizer coordinates z = u - u0 of the initialization, u0 the start's u (module docstring)."""

    def __init__(self, model: ModelSpec, free, x0, lo, hi):
        self.blocks = _blocks(model, free)
        self.x0, self.lo, self.hi = x0, lo, hi
        self.u0 = _u_of(x0, self.blocks)
        self.curved = np.zeros(x0.size, dtype=bool)  # log b and log d, which the z box does not bound
        for i in self.blocks:
            self.curved[i : i + 2] = True
        self.ubox = _u_box(self.blocks, lo, hi)

    def theta(self, z):
        """(free theta, J = d theta / d u) at z."""
        return _theta_of(self.u0 + np.asarray(z), self.blocks)

    def objective(self, objective):
        """(value, z-gradient J' g) of ``objective`` (value, theta gradient g) at theta clipped into the box."""

        def of_z(z):
            x, jac = self.theta(z)
            value, g = objective(np.clip(x, self.lo, self.hi))
            return value, jac.T @ g

        return of_z

    def minimize(self, objective):
        """L-BFGS-B in z from z = 0 (module docstring); ``x`` is the theta of its end point, clipped into the box.

        A seed clipped onto a face of the box runs in theta instead.
        """
        if not _inside(self.x0, self.lo, self.hi):
            return _lbfgsb(objective, self.x0, self.lo, self.hi)

        def leave(intermediate_result):
            x = self.theta(intermediate_result.x)[0][self.curved]
            if np.any(x < self.lo[self.curved]) or np.any(x > self.hi[self.curved]):
                raise StopIteration  # ends the run with status 99

        zlo, zhi = (bound - self.u0 for bound in self.ubox)
        res = _lbfgsb(self.objective(objective), np.zeros(self.u0.size), zlo, zhi, callback=leave)
        res.x = np.clip(self.theta(res.x)[0], self.lo, self.hi)
        return res


class _Problem:
    """The unitless problem of one fit (module docstring), built once per :func:`fit`.

    ``data``, ``model``, ``shift`` and ``log_s0`` are :func:`_unitless`'s,
    ``fixed``, ``start``, ``lo`` and ``hi`` :func:`_fit_inputs`'s, so the
    fit's inputs are checked once; ``free`` is ``~fixed``.  ``grouped`` is
    the data's :func:`_grouped` copy above _BLOCK distinct values without
    ``par_start``, else None.  Both datasets carry their
    ``_CensoredPoints``.  ``blocks`` and ``ubox`` are the Newton step's u
    coordinates of the free theta (:func:`_blocks`, :func:`_u_box`).
    ``theta_init``, set by :func:`fit` from :func:`initialize`'s output,
    holds the fixed coordinates; ``tf`` is the free part of a theta.  It
    stores no function, so that nothing refers back to it and it dies, with
    its datasets' constants, when the fit returns.
    """

    def __init__(self, data: Dataset, model: ModelSpec, cfg: FitConfig):
        self.data, self.model, self.shift, self.log_s0 = _unitless(data, model)
        self.fixed, self.start, self.lo, self.hi = _fit_inputs(model, cfg, self.shift)
        self.free = ~self.fixed
        self.data._points = _CensoredPoints(self.data.unique, self.model.geom.r)
        self.grouped = None
        if self.start is None and self.data.unique.size > _BLOCK:
            self.grouped = _grouped(self.data)
            self.grouped._points = _CensoredPoints(self.grouped.unique, self.model.geom.r)
        self.blocks = _blocks(model, self.free)
        self.ubox = np.array(_u_box(self.blocks, self.lo[self.free], self.hi[self.free]))
        self.theta_init = None

    def theta(self, tf):
        """The unitless theta of the free coordinates tf, the fixed ones those of ``theta_init``."""
        theta = self.theta_init.copy()
        theta[self.free] = tf
        return theta

    def loglik(self, tf, order, data=None):
        """The likelihood evaluation at ``order`` of the free coordinates tf on ``data``, by default every point."""
        params = self.model.params_from_original(self.model.from_theta(self.theta(tf)))
        loglik = ofa_loglik if self.model.data_type == OFA else micro_loglik
        return loglik(params, self.data if data is None else data, self.model.geom, DEFAULT_CONFIG, order)

    def objective(self, tf):
        """(-l, -gradient) at the free coordinates tf on every point."""
        ev = self.loglik(tf, 1)
        return -ev.loglik, -np.asarray(ev.gradient)[self.free]

    def evaluate(self, tf, order=2, data=None):
        """:meth:`loglik`, or None with a warning when the evaluation fails."""
        try:
            return self.loglik(tf, order, data)
        except (EvaluationError, FloatingPointError) as exc:
            size = (self.data if data is None else data).unique.size
            log.warning("an order-%d evaluation on %d distinct values failed (%s)", order, size, exc)
            return None

    def newton_step(self, tf, ev, halvings=0):
        """(next point, predicted gain, lower Cholesky factor of -H or None) of one Newton step from tf.

        The step du, J, the held coordinates and the modified step are the
        module docstring's, g and H those of ``ev``; du is halved ``halvings``
        times.  The factor is None when -H has none, and always after a
        modified step, which never certifies.
        """
        lo, hi = self.lo[self.free], self.hi[self.free]
        g = np.asarray(ev.gradient)[self.free]
        neg_h = -np.asarray(ev.hessian)[np.ix_(self.free, self.free)]
        on_bound = (tf <= lo) | (tf >= hi)
        blocks = [i for i in self.blocks if not on_bound[i : i + 3].any()]
        ubox = np.array((lo, hi))
        for i in blocks:
            ubox[:, i : i + 3] = self.ubox[:, i : i + 3]
        u0 = _u_of(tf, blocks)
        jac_u = _theta_of(u0, blocks)[1]
        factor = _cholesky(neg_h)
        held = ((tf <= lo) & (g < 0.0)) | ((tf >= hi) & (g > 0.0))
        while True:  # also hold each coordinate on a bound that the step would take out of the box
            jac = jac_u[:, ~held]
            gu, a = jac.T @ g, jac.T @ neg_h @ jac
            modified = factor is None and _cholesky(a) is None
            if not modified:
                du = np.linalg.solve(a, gu)
            else:  # Hessian modification: |eigenvalues|, floored (Nocedal & Wright 2006, section 3.4)
                w, v = np.linalg.eigh(a)
                w = np.abs(w)
                du = v @ ((v.T @ gu) / np.maximum(w, _EIGEN_FLOOR * w.max()))
            step = np.zeros(tf.size)
            step[~held] = du
            out = ((tf <= lo) & (step < 0.0)) | ((tf >= hi) & (step > 0.0))
            if not out.any():
                break
            held |= out
        x = _to_the_box(u0, 0.5**halvings * step, blocks, ubox, lo, hi)
        return np.clip(x, lo, hi), 0.5 * float(gu @ du), None if modified else factor

    def newton(self, tf, ev, steps, data=None):
        """At most ``steps`` Newton steps from tf on ``data``, by default every point.

        ``ev`` is the order-2 evaluation at tf, or None when that failed.
        Halvings after the first (module docstring) are judged at order 0, and
        the point accepted among them is evaluated at order 2.  Returns (point, evaluation, steps
        taken, outcome), the outcome the lower Cholesky factor of -H when the
        point is a known optimum, else the reason it is not.
        """
        if ev is None:
            return tf, ev, 0, "an order-2 evaluation failed"
        x, gain, factor = self.newton_step(tf, ev)
        taken, outcome = 0, f"no convergence in {steps} step{'s' * (steps != 1)}"
        while taken < steps:
            taken += 1
            ev_new, halvings = self.evaluate(x, 2, data), 0
            # a step from a point that predicts a gain of at most 1e-6 is not halved: the point stays
            while (ev_new is not None and not ev_new.loglik > ev.loglik and halvings < _HALVINGS
                   and gain > _NEWTON_GAIN_TOL):
                halvings += 1  # the first halving is mostly taken, so it is evaluated at order 2 at once
                ev_new = self.evaluate(x := self.newton_step(tf, ev, halvings)[0], 2 if halvings == 1 else 0, data)
            if halvings > 1 and ev_new is not None and ev_new.loglik > ev.loglik:
                ev_new = self.evaluate(x, 2, data)
            if ev_new is None or not ev_new.loglik > ev.loglik:
                outcome = "an evaluation failed" if ev_new is None else "a step did not raise the log likelihood"
                break
            tf, ev, converged = x, ev_new, factor is not None and gain <= _NEWTON_GAIN_TOL
            x, gain, factor = self.newton_step(tf, ev)
            if converged:
                break
        if factor is None:
            return tf, ev, taken, "-H has no Cholesky factor"
        return tf, ev, taken, factor if gain <= _NEWTON_GAIN_TOL else outcome

    def minimize(self, index, t0, callback):
        """Start ``index`` from t0: Newton steps for the first start (module docstring), else L-BFGS-B in theta.

        The first start takes Newton steps when there is no ``par_start``, on
        a face or not, on the groups and then on every point when there are
        groups; a known optimum that they reach is handed on as
        ``newton`` (:meth:`newton`'s result).  Otherwise L-BFGS-B in theta
        runs on every point, from t0 or from the point where the Newton steps
        stopped short of a known optimum, and stops through ``callback``, the
        basin stop.
        """
        lo, hi = self.lo[self.free], self.hi[self.free]
        x, n_iter, stopped = t0, 0, ""
        if index == 0 and self.start is None:
            stages = [("Newton start on every point", None, _FIRST_STEPS)]
            if self.grouped is not None:
                stages = [(f"Newton start on {self.grouped.unique.size} groups", self.grouped, _FIRST_STEPS),
                          ("Newton finish on every point", None, _NEWTON_STEPS + 1)]
            done = []
            for name, data, steps in stages:
                x, ev, taken, outcome = newton = self.newton(x, self.evaluate(x, 2, data), steps, data)
                n_iter += taken
                if isinstance(outcome, str):
                    stopped = f"{name} stopped ({outcome}); L-BFGS-B: "
                    break
                done.append(f"{name}: {taken} step{'s' * (taken != 1)}")
            else:
                return OptimizeResult(x=x, fun=-ev.loglik, status=0, nit=n_iter, message="; ".join(done),
                                      newton=newton)
        res = _lbfgsb(self.objective, x, lo, hi, callback=callback)
        res.nit += n_iter
        res.message = stopped + str(res.message)
        return res


def initialize(data: Dataset, model: ModelSpec, cfg: FitConfig = FitConfig(), *, _unit=None) -> ParamVector:
    """Starting values for the censored fit, in data units.

    A user-supplied ``par_start`` is encoded and returned as-is.  Otherwise
    the uncensored likelihood of the unitless lengths (on their groups above
    8 192 distinct values) is maximized from :meth:`ModelSpec.seed` by
    L-BFGS-B in z (module docstring), whose end point may lie on a face of
    the box, and shifted back to data units; if that fails, the seed itself
    is returned with a warning.  ``_unit`` is :func:`fit`'s
    :class:`_Problem`, so that the unitless problem is built, and the inputs
    checked, once per fit.
    """
    problem = _unit or _Problem(data, model, cfg)
    if problem.start is not None:
        return model.param_vector(model.to_theta(problem.start), tuple(problem.fixed))

    # without par_start nothing is fixed (FitConfig)
    unit_data = problem.data if problem.grouped is None else problem.grouped
    theta0 = np.clip(model.seed(unit_data.values), problem.lo, problem.hi)

    def objective(theta):
        ev = init_loglik(model.params_from_original(model.from_theta(theta)), unit_data, DEFAULT_CONFIG, order=1)
        return -ev.loglik, -ev.gradient

    try:
        theta = _Coords(model, problem.free, theta0, problem.lo, problem.hi).minimize(objective).x
    except (EvaluationError, FloatingPointError) as exc:
        log.warning("initialization optimizer failed (%s); falling back to the seed", exc)
        theta = theta0
    return model.param_vector(theta + problem.shift)


def _fines_first(model: ModelSpec, theta, fixed, hessian, trace):
    """Relabel a mixture so that fines is the component with the smaller Y-scale mean.

    Swapping the labels maps eps to 1 - eps, so logit eps to its negative,
    and exchanges the component blocks: theta, the fixed mask, the Hessian
    and each start's theta0 follow (label switching, Stephens 2000, JRSS-B
    62:795).  Returns (theta, fixed, hessian, trace).
    """
    if model.data_type == MICROSCOPY:
        return theta, fixed, hessian, trace
    mix = model.params_from_original(model.from_theta(theta))
    if not mix.fines.mean() > mix.fibers.mean():
        return theta, fixed, hessian, trace
    size = FAMILIES[model.family].size
    perm = np.r_[0, 1 + size : 1 + 2 * size, 1 : 1 + size]
    sign = np.ones(model.n_params)
    sign[0] = -1.0
    if hessian is not None:
        hessian = sign[:, None] * np.asarray(hessian)[np.ix_(perm, perm)] * sign[None, :]
    trace = [replace(rec, theta0=sign * rec.theta0[perm]) for rec in trace]
    return sign * theta[perm], fixed[perm], hessian, trace


_STATUS = {0: "success", 1: "max_iter", 2: "line_search_failure"}
_BASIN_TAIL = 0.01  # chi-square upper tail probability of the basin ellipsoid
_NEWTON_GAIN_TOL = 1e-6  # largest log-likelihood gain a known optimum's Newton model may predict
_NEWTON_STEPS = 5  # most Newton steps of the first start's finish on every point before the certifying one
_FIRST_STEPS = 50  # most Newton steps of the first start from the initialization, on the groups or every point
_HALVINGS = 12  # most halvings in u of a Newton step that does not raise the log likelihood
_EIGEN_FLOOR = 1e-8  # floor of the modified step's eigenvalues, relative to the largest


def _cholesky(a):
    """Lower Cholesky factor of ``a``, or None when it has none (a NaN matrix factors without raising)."""
    try:
        factor = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return factor if np.all(np.isfinite(factor)) else None


def fit(data: Dataset, model: ModelSpec, cfg: FitConfig = FitConfig()) -> FitResult:
    """Maximize the model's observed log likelihood; best of at most ``n_starts``.

    The first start is the :func:`initialize` output; the remaining starts
    add seeded N(0, 0.5) jitter on the theta scale, clipped into the box,
    all drawn before any runs.  They run only when the first start is not a
    known optimum or ``par_start`` is given; ``starts_tried`` and ``trace``
    hold the starts that ran.  How a start runs, when it is a known optimum
    and when a later start stops as a ``duplicate``, which does not compete
    for the result, are the module docstring's; the start's message names
    its steps.  Ties in log likelihood resolve to the earliest start.  The
    covariance of theta-hat is the inverse negative analytic Hessian at the
    maximizer, from the order-2 evaluation the start already made, and the
    original-scale covariance follows by the delta method.  All of this runs
    on the unitless problem; a mixture is then relabeled so that fines is
    the component with the smaller mean.
    """
    expected_scale = "X" if model.data_type == OFA else "V"
    if data.scale != expected_scale:
        raise ValueError(
            f"{model.data_type} fits need a dataset on the {expected_scale} scale, got {data.scale}"
        )
    data.validate_support(model.geom)

    problem = _Problem(data, model, cfg)
    theta_start = np.array(initialize(data, model, cfg, _unit=problem).values)
    problem.theta_init = theta_start - problem.shift
    fixed, free = problem.fixed, problem.free

    def to_data_units(theta):
        return np.where(fixed, theta_start, theta + problem.shift)  # fixed values exactly as given

    def finish(theta, ev, status, trace, starts_tried):
        theta, mask, hessian, trace = _fines_first(model, to_data_units(theta), fixed, ev.hessian, trace)
        loglik = ev.loglik - data.n * problem.log_s0
        return _finalize(model, data, theta, mask, loglik, hessian, status, trace, starts_tried)

    if not np.any(free):
        return finish(problem.theta_init, problem.loglik(problem.theta_init[free], 2), "success", [], 0)

    rng = np.random.default_rng(cfg.seed)
    lo, hi = problem.lo[free], problem.hi[free]
    starts = [np.clip(problem.theta_init[free], lo, hi)]
    for _ in range(cfg.n_starts - 1):
        jitter = rng.normal(0.0, 0.5, size=int(free.sum()))
        starts.append(np.clip(problem.theta_init[free] + jitter, lo, hi))

    chi2 = chdtri(int(free.sum()), _BASIN_TAIL)
    known = []  # (start index, x_hat, loglik_hat, lower Cholesky factor of -H)
    entered = []

    def stop_in_known_basin(intermediate_result):
        for index, x_hat, loglik_hat, factor in known:
            z = factor.T @ (intermediate_result.x - x_hat)
            if z @ z < chi2 and -intermediate_result.fun >= loglik_hat - 0.5 * chi2:
                entered.append(index)
                raise StopIteration

    trace, results = [], []  # results: (loglik, start index, x, status, order-2 evaluation or None)

    def record(idx, t0, loglik, status, n_iter, message):
        theta0 = to_data_units(problem.theta(t0))
        trace.append(StartRecord(idx, theta0, loglik - data.n * problem.log_s0, status, n_iter, message))
    for idx, t0 in enumerate(starts):
        if idx == 1 and known and cfg.par_start is None:
            break  # the first start is a known optimum: later starts would only find its basin again
        entered.clear()
        try:
            res = problem.minimize(idx, t0, stop_in_known_basin)
        except (EvaluationError, FloatingPointError, np.linalg.LinAlgError) as exc:
            record(idx, t0, -np.inf, "error", 0, str(exc))
            continue
        if entered:
            message = f"entered the basin of start {entered[0]}"
            record(idx, t0, -res.fun, "duplicate", res.nit, message)
            continue
        status = _STATUS.get(res.status, "line_search_failure")
        x, ev, outcome, message = res.x, None, None, str(res.message)
        if status == "success":
            x, ev, _, outcome = res.get("newton") or problem.newton(x, problem.evaluate(x), 1)
        loglik = -res.fun if ev is None else ev.loglik
        if isinstance(outcome, str):
            message += f"; not a known optimum: {outcome}"
        elif outcome is not None:
            known.append((idx, x, loglik, outcome))
        record(idx, t0, loglik, status, res.nit, message)
        results.append((loglik, idx, x, status, ev))
    if not results:
        raise FitError("all optimization starts failed", trace)

    loglik, _, x_best, best_status, ev = min(results, key=lambda t: (-t[0], t[1]))
    if ev is None:
        ev = problem.evaluate(x_best) or LikelihoodEvaluation(loglik)
    return finish(problem.theta(x_best), ev, best_status, trace, len(trace))


def _finalize(model, data, theta_hat, fixed, loglik, hessian, status, trace, starts_tried):
    """FitResult at theta_hat; no Hessian gives no covariance and ``hessian_failed``."""
    free = ~fixed
    n_par = model.n_params
    cov_theta = cov_tilde = se_tilde = None
    flagged = False
    convergence = status
    if hessian is None:
        convergence = "hessian_failed"
    elif np.any(free):
        hess_free = np.asarray(hessian)[np.ix_(free, free)]
        try:
            cov_free = np.linalg.inv(-hess_free)
            cov_free = 0.5 * (cov_free + cov_free.T)
            if not np.all(np.isfinite(cov_free)) or np.any(np.diag(cov_free) <= 0.0):
                raise np.linalg.LinAlgError("non-positive variance")
            cov_theta = np.zeros((n_par, n_par))
            cov_theta[np.ix_(free, free)] = cov_free
        except np.linalg.LinAlgError:
            convergence = "singular_hessian"
    else:
        cov_theta = np.zeros((n_par, n_par))

    if cov_theta is not None:
        chain = model.chain_vector(theta_hat)
        chain[fixed & ~np.isfinite(chain)] = 0.0
        cov_tilde = chain[:, None] * cov_theta * chain[None, :]
        eig = np.linalg.eigvalsh(0.5 * (cov_tilde + cov_tilde.T))
        if eig.size and eig.min() < -1e-10 * max(eig.max(), 1.0):
            flagged = True
            se_tilde = None
        else:
            se_tilde = np.sqrt(np.clip(np.diag(cov_tilde), 0.0, None))

    return FitResult(
        model=model,
        theta_hat=model.param_vector(theta_hat, tuple(fixed)),
        theta_tilde=model.from_theta(theta_hat),
        loglik=loglik,
        cov_theta=cov_theta,
        cov_tilde=cov_tilde,
        se_tilde=se_tilde,
        convergence=convergence,
        n=data.n,
        starts_tried=starts_tried,
        trace=trace,
        se_flagged=flagged,
    )


def covariance_original_scale(result: FitResult) -> np.ndarray:
    """Delta-method covariance diag(chain) Var(theta-hat) diag(chain), symmetrized.

    The chain vector is (eps - eps^2) for the proportion, the parameter value
    itself for log-transformed coordinates, and 1 for lognormal means; the
    matrix is the fit's ``cov_tilde``.
    """
    if result.cov_tilde is None:
        raise ValueError("no covariance available: fit did not produce a usable Hessian")
    if result.se_flagged:
        raise ValueError("original-scale covariance is not positive semidefinite")
    return 0.5 * (result.cov_tilde + result.cov_tilde.T)
