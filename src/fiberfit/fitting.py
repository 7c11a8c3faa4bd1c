"""Box-constrained quasi-Newton maximum likelihood fitting.

The optimizer works on the unconstrained theta scale (logit for the fines
proportion, log for positive parameters) with user bounds supplied on the
original scale and transformed internally.  Fitting is two-stage: starting
values come from maximizing the uncensored mixture likelihood (cheap, no
integrals), then the censored likelihood is maximized by L-BFGS-B with the
analytic gradient, best of at most ``n_starts`` jittered restarts: the
later starts run only when the first is no known optimum (below) or
``par_start`` is given.

Both stages solve the unitless problem, lengths and r divided by s0 =
median(data), and map back by one theta shift (log s0 on log b or mu) and a
log likelihood n log s0 lower, so a fit is the same in any length unit.
Default bounds (the family table's) are relative to s0, and one seed rule
(``ModelSpec.seed``) serves every model.  Fines is the component with the
smaller Y-scale mean.

The initialization and the censored fit's first start (the initialization's
end point, with no ``par_start``) run L-BFGS-B in z = (u - u0) / D.  u
replaces each all-free generalized gamma component's (log b, log d, log k)
by (m, log s, log k), m = log b + psi(k) / d and s = sqrt(psi'(k)) / d the
mean and sd of log Y (Prentice 1974, Biometrika 61:539; Lawless 1980,
Technometrics 22:409), in which the three are far less correlated; eps and
lognormal coordinates stay theta.  u0 is the start's u.  The
initialization takes D = 1; the censored start takes D_i = 1 / sqrt(B_ii),
B the count-weighted outer product of the scores in u (BHHH), so that z is
in units of standard errors.  B comes from one scores pass at the start, an
order-1 evaluation that also sums the outer product and reads no Hessian
row; its value and gradient answer the z run's first evaluation.
The z gradient is D J' grad_theta with the analytic J = d theta / d u.  The
z box is the corner bounding box of the theta box's image, and every
evaluation reads theta clipped into the theta box.  At the box, theta takes
over: when an accepted iterate's theta leaves the box, the end point lies
on a face or the z run ends without success, L-BFGS-B on theta goes on from
the clipped point on the exact box, and a start on a face runs in theta
from the outset.  Bound-constrained optima, the basin stop and the
covariance therefore stay in theta, and later (jittered) starts and
``par_start`` starts run in theta throughout.  On n = 20 000 OFA samples
this halves the censored and initialization evaluations of a fit.

A fit on many distinct values, more than one streamed block of them
(``scales._BLOCK`` = 8 192), is coarse to fine.  The sorted distinct
unitless values are cut into _GROUPS = 1 024 contiguous groups of equal
count, a tied value never split, and each group becomes its count-median
value carrying the group's count (:func:`_grouped`; grouped data, Heitjan
1989, Statistical Science 4:164).  The initialization and the first start's
z run go to convergence on the groups, about 1 SE from the full-data
optimum, and Newton steps on every point (below) finish the start there, at
most _NEWTON_STEPS + 1 of them.  In u the curved (log b, log d, log k) ridge
is nearly straight, so three or four steps reach a known optimum where
theta steps can lower the log likelihood.  When they stop short of one, the
z run on every point starts from the grouped optimum with its own BHHH
scale instead.  A grouped run that fails or ends on a face is dropped with
a warning, and the first start then runs on every point from the
initialization's end point.  Later starts, the Newton steps, the basin stop
and the covariance use every point, so the estimate and its standard errors
are the full data's.  On n = 20 000 OFA samples the first start makes no
order-1 evaluation on every point (the full-data path makes about 21) and
4-5 order-2 ones, for about 20 order-1 evaluations on the groups.  At or
below 8 192 distinct values nothing runs on groups.

Each optimum is found once, and one Newton routine (:meth:`_Problem.newton`)
certifies it.  Each step makes one order-2 evaluation.  From an interior
point it solves (J' (-H) J) du = J' g in u with D = 1 and J = d theta / d u
there, and maps u + du back to theta; on a face J selects the coordinates
not pinned at a bound by their gradient, which the step holds.  The step is
clipped into the box and kept only if the log likelihood rises, and the
steps end after the first one taken from a point whose predicted gain
(J' g) du / 2 is at most 1e-6.  The point is then a known optimum if -H has
a Cholesky factor and predicts no further gain there; otherwise the start's
message names the reason.  A converged start takes one step (the polish),
and the order-2 evaluation it ends on also gives the covariance.  A later
start stops as a duplicate as soon as an iterate enters a known optimum's
Hessian ellipsoid at the chi-square 0.99 level with a log likelihood the
quadratic model allows there: the basin test of multi-level single linkage
(Rinnooy Kan & Timmer 1987, Math. Programming 39:57).  Later starts are
that method's search for basins not yet known, so they add nothing once the
first start's basin is: when the first start is a known optimum and there
is no ``par_start`` (a user's start may sit in a poor basin), the fit ends
after it.  On n = 300 microscopy fits this runs one start where five ran
before, in about 0.020 s per fit instead of 0.047 s (2-core Xeon).

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


_MAX_ITER = 500  # L-BFGS-B iterations of one start, the z run and its theta continuation together
_GRAD_TOL = 1e-7  # L-BFGS-B projected-gradient tolerance


def _lbfgsb(objective, x0, lo, hi, callback=None, max_iter=_MAX_ITER):
    """scipy's L-BFGS-B with the analytic gradient on the box [lo, hi]; ``objective`` returns (value, gradient)."""
    return minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        callback=callback,
        options={"maxiter": max_iter, "gtol": _GRAD_TOL},
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


class _Coords:
    """Optimizer coordinates z = (u - u0) / D of one start's free theta (module docstring).

    u is the free theta with each all-free generalized gamma component in
    (m, log s, log k) (:func:`_loc_scale`), u0 the start's u, and ``scale``
    the positive D, 1 unless :meth:`scale_by` sets it.  The z box is the
    corner bounding box of the image of the theta box [lo, hi]: m and log s
    are each monotone in every theta coordinate, so the corners hold their
    extremes.  ``first``, when set, is the (value, theta gradient) of the
    objective at :meth:`start`, which answers the z run's first evaluation
    there.
    """

    def __init__(self, model: ModelSpec, free, x0, lo, hi):
        position = np.cumsum(free) - 1  # of each theta coordinate in the free vector
        firsts = range(model.n_params % 3, model.n_params, 3) if model.family == GGAMMA else ()
        self.blocks = [position[i] for i in firsts if free[i : i + 3].all()]
        self.x0, self.lo, self.hi = x0, lo, hi
        self.interior = bool(np.all(x0 > lo) and np.all(x0 < hi))
        self.u0, ulo, uhi = self.u_of(x0), lo.copy(), hi.copy()
        self.curved = np.zeros(x0.size, dtype=bool)  # log b and log d, which the z box does not bound
        for i in self.blocks:
            image = _loc_scale(np.array(list(product(*zip(lo[i : i + 3], hi[i : i + 3])))).T)
            ulo[i : i + 3], uhi[i : i + 3] = image.min(axis=1), image.max(axis=1)
            self.curved[i : i + 2] = True
        self.ubox = (ulo, uhi)
        self.scale = np.ones(x0.size)
        self.first = None

    def u_of(self, x):
        u = np.array(x, dtype=float)
        for i in self.blocks:
            u[i : i + 3] = _loc_scale(u[i : i + 3])
        return u

    def theta(self, z):
        """(free theta, J = d theta / d u) at z."""
        x = self.u0 + self.scale * np.asarray(z)
        jac = np.eye(x.size)
        for i in self.blocks:
            x[i : i + 3], jac[i : i + 3, i : i + 3] = _loc_scale_inverse(x[i : i + 3])
        return x, jac

    def start(self):
        """The theta every z run evaluates first: that of z = 0 (x0 up to the u round trip), clipped into the box."""
        return np.clip(self.theta(np.zeros(self.u0.size))[0], self.lo, self.hi)

    def scale_by(self, outer):
        """D_i = 1 / sqrt(BHHH_ii), where BHHH = J' outer J, the scores' outer product in u at u0.

        ``outer`` is the theta outer product (``LikelihoodEvaluation._score_outer``);
        D_i stays 1 where BHHH_ii is not positive and finite.
        """
        jac = self.theta(np.zeros(self.u0.size))[1]
        diag = np.einsum("ji,jk,ki->i", jac, outer, jac)
        ok = np.isfinite(diag) & (diag > 0.0)
        self.scale = 1.0 / np.sqrt(np.where(ok, diag, 1.0))

    def objective(self, objective):
        """(value, z-gradient D J' g) of ``objective`` (value, theta gradient g) at theta clipped into the box.

        A first call at z = 0 takes ``first`` when that is set.
        """
        first = [] if self.first is None else [self.first]

        def scaled(z):
            x, jac = self.theta(z)
            value, g = first.pop() if first and not np.any(z) else objective(np.clip(x, self.lo, self.hi))
            first.clear()
            return value, self.scale * (jac.T @ g)

        return scaled

    def minimize(self, objective):
        """L-BFGS-B in z from z = 0, handed over to theta at the box; the result's ``x`` is theta.

        L-BFGS-B on theta runs instead from a start on a face of the theta box,
        and goes on, with what is left of the iteration budget, from the end
        point clipped into the box when an accepted iterate's theta leaves the
        box, the end point lies on a face, or the z run ends without success.
        """
        if not self.interior:
            return _lbfgsb(objective, self.x0, self.lo, self.hi)

        def leave(intermediate_result):
            x = self.theta(intermediate_result.x)[0][self.curved]
            if np.any(x < self.lo[self.curved]) or np.any(x > self.hi[self.curved]):
                raise StopIteration  # ends the run with status 99

        zlo, zhi = ((bound - self.u0) / self.scale for bound in self.ubox)
        res = _lbfgsb(self.objective(objective), np.zeros(self.u0.size), zlo, zhi, callback=leave)
        x = self.theta(res.x)[0]
        on_face = np.any(res.x <= zlo) or np.any(res.x >= zhi) or np.any(x <= self.lo) or np.any(x >= self.hi)
        res.x = np.clip(x, self.lo, self.hi)
        if (res.status == 0 and not on_face) or res.nit >= _MAX_ITER:
            return res
        out = _lbfgsb(objective, res.x, self.lo, self.hi, max_iter=_MAX_ITER - res.nit)
        out.nit += res.nit
        return out


class _Problem:
    """The unitless problem of one fit (module docstring), built once per :func:`fit`.

    ``data``, ``model``, ``shift`` and ``log_s0`` are :func:`_unitless`'s,
    ``fixed``, ``start``, ``lo`` and ``hi`` :func:`_fit_inputs`'s, so the
    fit's inputs are checked once; ``free`` is ``~fixed``.  ``grouped`` is
    the data's :func:`_grouped` copy above _BLOCK distinct values without
    ``par_start``, else None.  Both datasets carry their
    ``_CensoredPoints``.  ``theta_init``, set by :func:`fit` from
    :func:`initialize`'s output, holds the fixed coordinates; ``tf`` is the
    free part of a theta.  It stores no function, so that nothing refers back
    to it and it dies, with its datasets' constants, when the fit returns.
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
        self.theta_init = None

    def theta(self, tf):
        """The unitless theta of the free coordinates tf, the fixed ones those of ``theta_init``."""
        theta = self.theta_init.copy()
        theta[self.free] = tf
        return theta

    def loglik(self, tf, order, data=None, **kw):
        """The likelihood evaluation at ``order`` of the free coordinates tf on ``data``, by default every point."""
        params = self.model.params_from_original(self.model.from_theta(self.theta(tf)))
        loglik = ofa_loglik if self.model.data_type == OFA else micro_loglik
        return loglik(params, self.data if data is None else data, self.model.geom, DEFAULT_CONFIG, order, **kw)

    def objective(self, tf, data=None):
        """(-l, -gradient) at the free coordinates tf on ``data``."""
        ev = self.loglik(tf, 1, data)
        return -ev.loglik, -np.asarray(ev.gradient)[self.free]

    def order2(self, tf):
        """The order-2 evaluation at tf on every point, or None when it fails."""
        try:
            return self.loglik(tf, 2)
        except (EvaluationError, FloatingPointError):
            return None

    def newton_step(self, tf, ev):
        """(next point, predicted gain, lower Cholesky factor of -H or None) of one Newton step from tf.

        The step and J are the module docstring's, g and H those of ``ev``.
        When -H has no Cholesky factor the Newton model is unbounded: no step,
        gain inf.
        """
        lo, hi = self.lo[self.free], self.hi[self.free]
        g = np.asarray(ev.gradient)[self.free]
        neg_h = -np.asarray(ev.hessian)[np.ix_(self.free, self.free)]
        factor = _cholesky(neg_h)
        if factor is None:
            return tf, np.inf, None
        coords = _Coords(self.model, self.free, tf, lo, hi)
        if coords.interior:
            jac = coords.theta(np.zeros(tf.size))[1]
        else:  # the columns of the coordinates that their gradient does not pin at a bound
            jac = np.eye(tf.size)[:, ~(((tf <= lo) & (g < 0.0)) | ((tf >= hi) & (g > 0.0)))]
        gu = jac.T @ g
        du = np.linalg.solve(jac.T @ neg_h @ jac, gu)
        x = coords.theta(du)[0] if coords.interior else tf + jac @ du
        return np.clip(x, lo, hi), 0.5 * float(gu @ du), factor

    def newton(self, tf, ev, steps):
        """At most ``steps`` Newton steps from tf, ``ev`` its order-2 evaluation or None when that failed.

        Returns (point, evaluation, steps taken, outcome), the outcome the lower
        Cholesky factor of -H when the point is a known optimum (module
        docstring), else the reason it is not.
        """
        if ev is None:
            return tf, ev, 0, "an order-2 evaluation failed"
        x, gain, factor = self.newton_step(tf, ev)
        taken, outcome = 0, f"no convergence in {steps} step{'s' * (steps != 1)}"
        while taken < steps and factor is not None:
            taken += 1
            ev_new = self.order2(x)
            if ev_new is None or not ev_new.loglik > ev.loglik:
                outcome = ("an order-2 evaluation failed" if ev_new is None
                           else "a step did not raise the log likelihood")
                break
            tf, ev, converged = x, ev_new, gain <= _NEWTON_GAIN_TOL
            x, gain, factor = self.newton_step(tf, ev)
            if converged:
                break
        if factor is None:
            return tf, ev, taken, "-H has no Cholesky factor"
        return tf, ev, taken, factor if gain <= _NEWTON_GAIN_TOL else outcome

    def scaled_run(self, t0, data):
        """The z run from t0 on ``data``, scaled by the BHHH matrix of one scores pass at its start."""
        coords = _Coords(self.model, self.free, t0, self.lo[self.free], self.hi[self.free])
        if coords.interior:
            try:
                ev = self.loglik(coords.start(), 1, data, _scores=True)
            except (EvaluationError, FloatingPointError):
                pass
            else:
                coords.scale_by(ev._score_outer[np.ix_(self.free, self.free)])
                coords.first = (-ev.loglik, -ev.gradient[self.free])
        return coords.minimize(lambda tf: self.objective(tf, data))

    def grouped_run(self, t0):
        """The z run on the groups from t0, or None with a warning when it fails or ends on a face."""
        try:
            res = self.scaled_run(t0, self.grouped)
            if res.status == 0 and np.all(res.x > self.lo[self.free]) and np.all(res.x < self.hi[self.free]):
                return res
            reason = "ended on a face of the box" if res.status == 0 else f"ended with {res.message}"
        except (EvaluationError, FloatingPointError, np.linalg.LinAlgError) as exc:
            reason = f"failed ({exc})"
        log.warning("the first start on %d groups %s; it runs on every point from its start",
                    self.grouped.unique.size, reason)
        return None

    def minimize(self, index, t0, callback):
        """L-BFGS-B from start ``index``: the initialize output in z with the BHHH scale, any other start in theta.

        Starts in theta stop through ``callback``, the basin stop.  A Newton
        finish on every point after the groups (module docstring) that reaches
        a known optimum hands on :meth:`newton`'s result as ``newton``.
        """
        if index > 0 or self.start is not None:
            return _lbfgsb(self.objective, t0, self.lo[self.free], self.hi[self.free], callback=callback)
        coarse = None if self.grouped is None else self.grouped_run(t0)
        if coarse is None:
            return self.scaled_run(t0, self.data)
        newton = x, ev, taken, outcome = self.newton(coarse.x, self.order2(coarse.x), _NEWTON_STEPS + 1)
        if isinstance(outcome, str):
            res = self.scaled_run(coarse.x, self.data)
            res.nit += coarse.nit
            res.message = f"Newton finish on every point stopped ({outcome}); z run: {res.message}"
            return res
        steps = f"{taken} step{'s' * (taken != 1)}"
        message = f"Newton finish on every point: {steps} after {coarse.nit} grouped iterations"
        return OptimizeResult(x=x, fun=-ev.loglik, status=0, nit=coarse.nit + taken, message=message, newton=newton)


def initialize(data: Dataset, model: ModelSpec, cfg: FitConfig = FitConfig(), *, _unit=None) -> ParamVector:
    """Starting values for the censored fit, in data units.

    A user-supplied ``par_start`` is encoded and returned as-is.  Otherwise
    the uncensored likelihood of the lengths divided by s0 = median(data) is
    maximized from :meth:`ModelSpec.seed`, the one seed rule of every model
    (each component matches the mean and sd of its log lengths; a mixture
    splits them at their 20th percentile), by L-BFGS-B in the unscaled
    optimizer coordinates (D = 1, module docstring), and the optimum is
    shifted back to data units.  On more than 8 192 distinct values all of
    this runs on their 1 024 groups (:func:`_grouped`, module docstring).  If
    the initialization optimizer fails the seed itself is returned with a
    warning.  ``_unit`` is :func:`fit`'s :class:`_Problem`, so that the
    unitless problem is built, and the inputs checked, once per fit.
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
    add seeded N(0, 0.5) jitter on the theta scale, clipped into the box.
    They run only when the first start is not a known optimum (below) or
    ``par_start`` is given; ``starts_tried`` and ``trace`` hold the starts
    that ran.  The jitter of all ``n_starts`` is drawn before any runs.
    A converged start takes one Newton step from its order-2 evaluation (in
    the log-location-scale coordinates u from an interior point, in theta
    with the coordinates pinned at a bound held on a face), clipped to the
    box and kept only if the log likelihood rises.  It becomes a known
    optimum when its negative Hessian has a Cholesky factor and predicts a
    gain of at most 1e-6 there; otherwise the start's message says why.  A
    later start whose iterate x enters a known optimum's ellipsoid,
    (x - x_hat)' (-H) (x - x_hat) below the chi-square(p) 0.99 quantile
    with a log likelihood at least l_hat minus half that quantile, stops
    with status ``duplicate`` and does not compete for the result.  Ties in
    log likelihood resolve to the earliest start.  The covariance of
    theta-hat is the inverse negative analytic Hessian at the maximizer,
    from the order-2 evaluation the start already made, and the
    original-scale covariance follows by the delta method.  All of this
    runs on the unitless problem (module docstring); a mixture is then
    relabeled so that fines is the component with the smaller mean.  On
    more than 8 192 distinct values the first start converges on 1 024
    groups of the data and the same Newton steps on every point, up to six,
    finish it; if they stop short of a known optimum, the z run on every
    point starts from the grouped optimum (module docstring).  The start's
    message names its finish.
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
            x, ev, _, outcome = res.get("newton") or problem.newton(x, problem.order2(x), 1)
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
        ev = problem.order2(x_best) or LikelihoodEvaluation(loglik)
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
