"""Box-constrained maximum likelihood fitting.

The optimizer works on the unconstrained theta scale (logit for the fines
proportion, log for positive parameters); user bounds on the original scale
are transformed.  Starting values maximize the uncensored mixture likelihood
(no integrals) by Newton steps; the censored likelihood is then maximized
from them by the same Newton steps, best of at most ``n_starts`` starts.
The later starts, jittered, run only when the first is no known optimum or
``par_start`` is given.

Both stages solve the unitless problem, lengths and r divided by s0 =
median(data), and map back by one theta shift (log s0 on log b or mu) and a
log likelihood n log s0 lower, so a fit is the same in any length unit.
Default bounds are relative to s0, and one seed rule (``ModelSpec.seed``)
serves every model.  Fines is the component with the smaller Y-scale mean.

The Newton steps work in u, which replaces each all-free generalized gamma
component's (log b, log d, log k) by (m, log s, log k), m = log b + psi(k)
/ d and s = sqrt(psi'(k)) / d the mean and sd of log Y (Prentice 1974,
Biometrika 61:539; Lawless 1980, Technometrics 22:409), in which the three
are far less correlated; J = d theta / d u is analytic.  In a fit without
user ``lower`` or ``upper`` such a component's box is on (m, s, k), the
family's ``step_bounds``; every other coordinate steps in theta inside the
theta box.

One Newton routine (:meth:`_Problem.newton`) finds the initialization's
optimum on the uncensored likelihood and every start's on the censored one,
and certifies every optimum; it evaluates at order 2 alone.  A step holds
the coordinates on a bound that their gradient J' g, or else the step,
would take out of the box, solves a du = J' g over the others, a = J' (-H)
J, and clips u + du into the box, so that a coordinate the step crosses
lands on its bound (projected Newton, Bertsekas 1982, SIAM J. Control
Optim. 20:221).  Where a has no Cholesky factor (or LU meets a zero pivot),
its eigenvalues are replaced by their absolute values, floored at 1e-8 of
the largest (Nocedal & Wright 2006, Numerical Optimization, section 3.4);
where it has a non-finite entry or no eigenvalue of positive magnitude (as
where g and H vanish on the box's boundary), there is no step and the steps
end.  A step whose evaluation fails or that does not raise the log
likelihood is halved in u (halving the theta chord fails on the curved k
ridge), at most 12 times, unless its point predicts a gain of at most 1e-6;
the steps then end there.  They end after the first unmodified step from a
point whose predicted gain (J' g) du / 2 is at most 1e-6; the point is a
known optimum if a has a Cholesky factor L and predicts no further gain
there, else the start's message names the reason.  a is the exact
second-order matrix at an interior maximum, and where log k alone is held
(g then has only its log k entry, in which theta is linear).  L also gives
the basin test and the covariance J a^-1 J' of the free theta, (-H)^-1 at
an interior point.

The initialization takes at most 50 Newton steps from the seed clipped in
u into the box and ends where they stop, which may lie on a face of the box.
Every start takes at most 50 from its own start on each of its stages
(the first start without ``par_start``: 5-15 reach a known optimum on the
benchmark's samples).  A start is ``success`` when it ends on a known
optimum, ``stalled`` when its steps end short of one, ``error`` when the
order-2 evaluation at its start fails, and ``duplicate`` when it ends on a
known optimum inside the chi-square 0.99 ellipsoid of an earlier start's
L, in u (the basin test of multi-level single linkage, Rinnooy Kan &
Timmer 1987, Math. Programming 39:57), or whose image with the mixture
labels exchanged is (:func:`_label_swap`); a duplicate does not compete for
the result.  Every start ends on an order-2 evaluation, which gives the
covariance.  Later starts search for basins not yet known, so when the
first start is a known optimum and there is no ``par_start`` (a user's
start may sit in a poor basin), the fit ends.

Above one streamed block of distinct values (``scales._BLOCK`` = 8 192) a
fit is coarse to fine.  The sorted distinct unitless values are cut into
_GROUPS = 1 024 contiguous groups of equal count, a tied value never
split, each its count-median value carrying the group's count
(:func:`_grouped`; grouped data, Heitjan 1989, Statistical Science
4:164).  The initialization and every start's Newton steps run on the
groups, ending about 1 SE from the full-data optimum, and at most 50
Newton steps on every point finish each start from where they end.  The
finish, the duplicate test and the covariance use every point.  On
n = 20 000 OFA samples the first start makes 4-5 order-2 evaluations on
every point and 8-11 on the groups.

Fixed parameters are held at their original-scale values and excluded from
the optimization; a proportion fixed at exactly 0 or 1 is supported even
though it has no finite logit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
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
    init_loglik,
    micro_loglik,
    ofa_loglik,
)
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
        """Original-scale (lower, upper), for lengths in units of the data scale (see :func:`fit`).

        They bound only the coordinates that step in theta (module docstring),
        including the side of a user-bounded fit that the user leaves out.
        """
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

    ``n_starts``, an integer >= 1, is the most starts a fit runs: starts
    2..n_starts run only when the first is not a known optimum or
    ``par_start`` is given.  ``seed``, an integer >= 0, seeds their jitter.
    """

    lower: tuple | None = None
    upper: tuple | None = None
    par_start: tuple | None = None
    fixed_mask: tuple | None = None
    n_starts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
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
    """Estimates on both scales with covariances and optimizer diagnostics.

    ``on_bound`` names the step coordinates that the certificate holds on a
    bound (``m1`` or ``s1`` for a location-scale coordinate, module
    docstring); their ``se_tilde`` slots are NaN, and the others conditional.
    """

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
    on_bound: tuple = ()

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


_GROUPS = 1024  # groups of the coarse stage of every start on many distinct values (fit)


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


class _Factor(NamedTuple):
    """The lower Cholesky factor of a = J' (-H) J over the step coordinates ``keep`` that a step leaves free."""

    lower: np.ndarray
    keep: np.ndarray
    jac: np.ndarray  # J[:, keep]

    def covariance(self):
        """J a^-1 J' of the free theta, zero along each held coordinate."""
        w = np.linalg.solve(self.lower, self.jac.T)
        return w.T @ w


class _Problem:
    """The unitless problem of one fit (module docstring), built once per :func:`fit`.

    ``data``, ``model``, ``shift`` and ``log_s0`` are :func:`_unitless`'s,
    ``fixed`` and ``start`` :func:`_fit_inputs`'s, so the fit's inputs are
    checked once; ``free`` is ``~fixed``.  ``grouped`` is the data's
    :func:`_grouped` copy above _BLOCK distinct values, else None.  Both
    datasets carry their ``_CensoredPoints``.  ``blocks`` (:func:`_blocks`,
    none with user bounds) step in u, ``lo`` and ``hi`` box the free step
    coordinates, and ``loc_scale`` marks the theta slots of their m and s.
    ``theta_init``, set by :func:`fit` from :func:`initialize`'s output (by
    :func:`initialize` to its seed, where nothing is fixed), holds the fixed
    coordinates; ``tf`` is the free part of a theta.  It
    stores no function, so that nothing refers back to it and it dies, with
    its datasets' constants, when the fit returns.
    """

    def __init__(self, data: Dataset, model: ModelSpec, cfg: FitConfig):
        self.data, self.model, self.shift, self.log_s0 = _unitless(data, model)
        self.fixed, self.start, lo, hi = _fit_inputs(model, cfg, self.shift)
        self.free = ~self.fixed
        self.data._points = _CensoredPoints(self.data.unique, self.model.geom.r)
        self.grouped = None
        if self.data.unique.size > _BLOCK:
            self.grouped = _grouped(self.data)
            self.grouped._points = _CensoredPoints(self.grouped.unique, self.model.geom.r)
        self.blocks = _blocks(model, self.free) if cfg.lower is None and cfg.upper is None else []
        self.lo, self.hi = lo[self.free], hi[self.free]
        self.loc_scale = np.zeros(model.n_params, dtype=bool)
        box = np.array(FAMILIES[GGAMMA].step_bounds).T
        box[:, 1:] = np.log(box[:, 1:])  # (m, log s, log k)
        for i in self.blocks:
            self.lo[i : i + 3], self.hi[i : i + 3] = box
            self.loc_scale[np.flatnonzero(self.free)[i : i + 2]] = True
        self.theta_init = None

    def theta(self, tf):
        """The unitless theta of the free coordinates tf, the fixed ones those of ``theta_init``."""
        theta = self.theta_init.copy()
        theta[self.free] = tf
        return theta

    def tf_of(self, u):
        """The free theta of the step coordinates u."""
        return _theta_of(u, self.blocks)[0]

    def into_box(self, tf):
        """The step coordinates of the free theta tf, clipped into the box."""
        return np.clip(_u_of(tf, self.blocks), self.lo, self.hi)

    def loglik(self, tf, order, data=None, uncensored=False):
        """The likelihood evaluation at ``order`` of the free coordinates tf on ``data``, by default every point.

        The likelihood is the model's censored one, or with ``uncensored``
        the initialization's :func:`init_loglik`.
        """
        params = self.model.params_from_original(self.model.from_theta(self.theta(tf)))
        data = self.data if data is None else data
        if uncensored:
            return init_loglik(params, data, order=order)
        loglik = ofa_loglik if self.model.data_type == OFA else micro_loglik
        return loglik(params, data, self.model.geom, order=order)

    def evaluate(self, u, data=None, uncensored=False):
        """:meth:`loglik` at order 2 of the step coordinates u, or None with a warning when the evaluation fails."""
        try:
            return self.loglik(self.tf_of(u), 2, data, uncensored)
        except (EvaluationError, FloatingPointError) as exc:
            size = (self.data if data is None else data).unique.size
            log.warning("an order-2 evaluation on %d distinct values failed (%s)", size, exc)
            return None

    def newton_step(self, u, ev):
        """(path, predicted gain, :class:`_Factor` of a or None) of the Newton step from the step coordinates u.

        The held coordinates, a, du and the modified step are the module
        docstring's, g and H those of ``ev``; ``path(h)`` is u + du / 2^h
        clipped into the box.  The factor is None after a modified step,
        which never certifies.  The path is None, the gain 0, when there is
        no step (a non-finite or zero a).
        """
        lo, hi = self.lo, self.hi
        g = np.asarray(ev.gradient)[self.free]
        neg_h = -np.asarray(ev.hessian)[np.ix_(self.free, self.free)]
        jac_u = _theta_of(u, self.blocks)[1]
        gu = jac_u.T @ g
        held = ((u <= lo) & (gu < 0.0)) | ((u >= hi) & (gu > 0.0))
        while True:  # also hold each coordinate on a bound that the step would take out of the box
            keep = ~held
            jac = jac_u[:, keep]
            a = jac.T @ neg_h @ jac
            factor = _cholesky(a)
            try:
                du = None if factor is None else np.linalg.solve(a, gu[keep])
            except np.linalg.LinAlgError:  # a factor, but LU meets an exact zero pivot: modify a too
                factor = None
            if factor is None:  # Hessian modification: |eigenvalues|, floored (Nocedal & Wright 2006, section 3.4)
                if not np.all(np.isfinite(a)):
                    return None, 0.0, None
                w, v = np.linalg.eigh(a)
                w = np.abs(w)
                if not w.max() > 0.0:  # g and H vanish: the floored step would be 0 / 0
                    return None, 0.0, None
                du = v @ ((v.T @ gu[keep]) / np.maximum(w, _EIGEN_FLOOR * w.max()))
            step = np.zeros(u.size)
            step[keep] = du
            out = ((u <= lo) & (step < 0.0)) | ((u >= hi) & (step > 0.0))
            if not out.any():
                break
            held |= out

        def path(halvings):
            return np.clip(u + 0.5**halvings * step, lo, hi)

        return path, 0.5 * float(gu[keep] @ du), None if factor is None else _Factor(factor, keep, jac)

    def newton(self, u, ev, steps, data=None, uncensored=False):
        """At most ``steps`` Newton steps from u on the likelihood of ``data`` and ``uncensored`` (:meth:`loglik`).

        ``ev`` is the order-2 evaluation at u, or None when that failed.  A
        step whose evaluation fails or does not raise the log likelihood is
        halved (module docstring), every trial evaluated at order 2.  Returns
        (point, evaluation, steps taken, outcome), the outcome the
        :class:`_Factor` of a when the point is a known optimum, else why the
        steps ended short of one, or why the point is none.
        """
        if ev is None:
            return u, ev, 0, "an order-2 evaluation failed"

        def raises(new):
            return new is not None and new.loglik > ev.loglik

        path, gain, factor = self.newton_step(u, ev)
        taken, stop = 0, None
        while taken < steps and path is not None:
            taken += 1
            # a step from a point that predicts a gain of at most 1e-6 is not halved: the point stays
            trials = _HALVINGS + 1 if gain > _NEWTON_GAIN_TOL else 1
            for halvings in range(trials):
                x = path(halvings)
                ev_new = self.evaluate(x, data, uncensored)
                if raises(ev_new):
                    break
            else:
                stop = "an evaluation failed" if ev_new is None else "a step did not raise the log likelihood"
                break
            u, ev, converged = x, ev_new, factor is not None and gain <= _NEWTON_GAIN_TOL
            path, gain, factor = self.newton_step(u, ev)
            if converged:
                break
        if factor is not None and gain <= _NEWTON_GAIN_TOL:
            return u, ev, taken, factor
        if path is None:
            stop = "J' (-H) J is not finite or is zero: no step"
        elif stop is None and factor is None:
            stop = "J' (-H) J has no Cholesky factor"
        return u, ev, taken, stop or f"no convergence in {steps} step{'s' * (steps != 1)}"

    def minimize(self, u0):
        """One start from the step coordinates u0: at most _FIRST_STEPS Newton steps (:meth:`newton`) on each stage.

        Above _BLOCK distinct values the steps run on the groups first, then
        on every point from where they end; else on every point alone.
        Returns (point, its order-2 evaluation, steps taken, :meth:`newton`'s
        outcome on every point, message naming each stage's steps); the
        evaluation is None when the one at the start of the last stage failed.
        """
        stages = [("Newton start on every point", None)]
        if self.grouped is not None:
            stages = [(f"Newton start on {self.grouped.unique.size} groups", self.grouped),
                      ("Newton finish on every point", None)]
        x, n_iter, notes = u0, 0, []
        for name, data in stages:
            x, ev, taken, outcome = self.newton(x, self.evaluate(x, data), _FIRST_STEPS, data)
            n_iter += taken
            stopped = isinstance(outcome, str)
            notes.append(f"{name} stopped ({outcome})" if stopped else f"{name}: {taken} step{'s' * (taken != 1)}")
        return x, ev, n_iter, outcome, "; ".join(notes)


def initialize(data: Dataset, model: ModelSpec, cfg: FitConfig = FitConfig(), *, _unit=None) -> ParamVector:
    """Starting values for the censored fit, in data units.

    A user-supplied ``par_start`` is encoded and returned as-is.  Otherwise
    at most _FIRST_STEPS Newton steps (:meth:`_Problem.newton`) climb the
    uncensored likelihood of the unitless lengths (on their groups above
    8 192 distinct values) from :meth:`ModelSpec.seed` clipped in u into the
    box; their end point, which may lie on a face of the box, is shifted back
    to data units.  If the seed's order-2 evaluation fails, the clipped seed
    is returned, with the evaluation's warning.  ``_unit`` is :func:`fit`'s
    :class:`_Problem`, so that the unitless problem is built, and the inputs
    checked, once per fit.
    """
    problem = _unit or _Problem(data, model, cfg)
    if problem.start is not None:
        return model.param_vector(model.to_theta(problem.start), tuple(problem.fixed))

    # without par_start nothing is fixed (FitConfig), so any theta serves as theta_init
    unit_data = problem.data if problem.grouped is None else problem.grouped
    problem.theta_init = model.seed(unit_data.values)
    u0 = problem.into_box(problem.theta_init)
    ev = problem.evaluate(u0, problem.grouped, uncensored=True)
    u = problem.newton(u0, ev, _FIRST_STEPS, problem.grouped, uncensored=True)[0]
    return model.param_vector(problem.tf_of(u) + problem.shift)


def _label_swap(model: ModelSpec):
    """(perm, sign) that relabel a mixture theta as sign * theta[perm]; None for microscopy.

    Swapping the labels maps eps to 1 - eps, so logit eps to its negative,
    and exchanges the component blocks (label switching, Stephens 2000,
    JRSS-B 62:795).  The unitless shift is the same on both blocks and 0 on
    eps, so the swap holds on the unitless theta as well.
    """
    if model.data_type == MICROSCOPY:
        return None
    size = FAMILIES[model.family].size
    sign = np.ones(model.n_params)
    sign[0] = -1.0
    return np.r_[0, 1 + size : 1 + 2 * size, 1 : 1 + size], sign


def _fines_first(model: ModelSpec, theta, masks, cov, trace):
    """Relabel a mixture so that fines is the component with the smaller Y-scale mean.

    theta, each per-coordinate mask of ``masks``, the covariance (or None)
    and each start's theta0 follow the swap (:func:`_label_swap`).  Returns
    (theta, masks, cov, trace).
    """
    swap = _label_swap(model)
    if swap is None:
        return theta, masks, cov, trace
    mix = model.params_from_original(model.from_theta(theta))
    if not mix.fines.mean() > mix.fibers.mean():
        return theta, masks, cov, trace
    perm, sign = swap
    if cov is not None:
        cov = sign[:, None] * cov[np.ix_(perm, perm)] * sign[None, :]
    trace = [replace(rec, theta0=sign * rec.theta0[perm]) for rec in trace]
    return sign * theta[perm], [mask[perm] for mask in masks], cov, trace


_BASIN_TAIL = 0.01  # chi-square upper tail probability of the duplicate ellipsoid
_NEWTON_GAIN_TOL = 1e-6  # largest log-likelihood gain a known optimum's Newton model may predict
_FIRST_STEPS = 50  # most Newton steps of the initialization and of each stage of a start
_HALVINGS = 12  # most halvings in u of a Newton step that fails or does not raise the log likelihood
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
    add seeded N(0, 0.5) jitter on the theta scale, all drawn before any
    runs, and every start is clipped in u into the box.  They run only when
    the first start is not a known optimum or ``par_start`` is given;
    ``starts_tried`` and ``trace`` hold the starts that ran.  How a start
    runs, and its status (``success``, ``stalled``, ``error`` or
    ``duplicate``, which does not compete for the result), are the module
    docstring's; the start's message names its steps, and why they stopped
    short of a known optimum.  Ties in log likelihood resolve to the earliest
    start, whose status is ``convergence``.  The covariance of theta-hat is
    J a^-1 J' (module docstring) at the point that start ended on, from the
    order-2 evaluation there, or None where a has no Cholesky factor; the
    original-scale covariance follows by the delta method, and a coordinate
    held on a bound is named in ``on_bound`` and gets a NaN standard error.
    All of this runs on the unitless problem; a mixture is then relabeled so
    that fines is the component with the smaller mean.
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
    fixed, free, n_par = problem.fixed, problem.free, model.n_params

    def to_data_units(theta):
        return np.where(fixed, theta_start, theta + problem.shift)  # fixed values exactly as given

    def finish(u, ev, status, trace, starts_tried):
        cov_theta, held = np.zeros((n_par, n_par)), np.zeros(n_par, dtype=bool)
        factor = problem.newton_step(u, ev)[2] if u.size else None
        if factor is not None:
            cov_theta[np.ix_(free, free)] = factor.covariance()
            held[free] = ~factor.keep
        elif u.size:
            cov_theta = None
        theta, (mask, held, loc_scale), cov_theta, trace = _fines_first(
            model, to_data_units(problem.theta(problem.tf_of(u))), (fixed, held, problem.loc_scale), cov_theta, trace)
        names = [("m" if n[0] == "b" else "s") + n[1:] if ls else n for n, ls in zip(model.param_names, loc_scale)]
        cov_tilde = se_tilde = None
        flagged = False  # J a^-1 J' is a Gram matrix: only rounding can make cov_tilde indefinite
        if cov_theta is not None:
            chain = model.chain_vector(theta)
            chain[mask & ~np.isfinite(chain)] = 0.0
            cov_tilde = chain[:, None] * cov_theta * chain[None, :]
            eig = np.linalg.eigvalsh(0.5 * (cov_tilde + cov_tilde.T))
            flagged = bool(eig.size) and eig.min() < -1e-10 * max(eig.max(), 1.0)
            if not flagged:
                se_tilde = np.where(held, np.nan, np.sqrt(np.clip(np.diag(cov_tilde), 0.0, None)))
        return FitResult(
            model=model, theta_hat=model.param_vector(theta, tuple(mask)), theta_tilde=model.from_theta(theta),
            loglik=ev.loglik - data.n * problem.log_s0, cov_theta=cov_theta, cov_tilde=cov_tilde, se_tilde=se_tilde,
            convergence=status, n=data.n, starts_tried=starts_tried, trace=trace, se_flagged=flagged,
            on_bound=tuple(n for n, h in zip(names, held) if h),
        )

    if not np.any(free):
        return finish(problem.theta_init[free], problem.loglik(problem.theta_init[free], 2), "success", [], 0)

    rng, base = np.random.default_rng(cfg.seed), problem.theta_init[free]
    jitters = [np.zeros(base.size)] + [rng.normal(0.0, 0.5, size=base.size) for _ in range(cfg.n_starts - 1)]
    starts = [problem.into_box(base + jitter) for jitter in jitters]

    chi2 = chdtri(int(free.sum()), _BASIN_TAIL)
    known = []  # (start index, u_hat, its _Factor)
    swap = _label_swap(model)
    if swap is not None:
        perm, sign = swap
        base = problem.theta_init
        if not (np.array_equal(fixed[perm], fixed) and np.array_equal((sign * base[perm])[fixed], base[fixed])):
            swap = None  # the relabelled points would hold other fixed values: they are not points of this fit

    def basin(u):
        """(start index, relabelled) of the first known optimum whose ellipsoid holds u or its relabelled image."""
        # the swap acts on u as on theta: it exchanges blocks with blocks, and negates logit eps alone
        images = [u] if swap is None else [u, (sign * problem.theta(u)[perm])[free]]
        for i, u_hat, factor in known:
            for relabelled, z in enumerate(images):
                if np.sum((factor.lower.T @ (z - u_hat)[factor.keep]) ** 2) < chi2:
                    return i, relabelled
        return None

    trace, results = [], []  # results: (loglik, start index, u, status, order-2 evaluation)

    def record(idx, u0, loglik, status, n_iter, message):
        theta0 = to_data_units(problem.theta(problem.tf_of(u0)))
        trace.append(StartRecord(idx, theta0, loglik - data.n * problem.log_s0, status, n_iter, message))
    for idx, u0 in enumerate(starts):
        if idx == 1 and known and cfg.par_start is None:
            break  # the first start is a known optimum: later starts would only find its basin again
        u, ev, n_iter, outcome, message = problem.minimize(u0)
        if ev is None:
            record(idx, u0, -np.inf, "error", n_iter, message)
            continue
        if isinstance(outcome, str):
            status = "stalled"
        else:
            inside = basin(u)
            status = "duplicate" if inside else "success"
            if inside:
                message += f"; in the basin of start {inside[0]}{' with the labels exchanged' * inside[1]}"
            else:
                known.append((idx, u, outcome))
        record(idx, u0, ev.loglik, status, n_iter, message)
        if status != "duplicate":
            results.append((ev.loglik, idx, u, status, ev))
    if not results:
        raise FitError("all optimization starts failed", trace)

    _, _, u_best, best_status, ev = min(results, key=lambda t: (-t[0], t[1]))
    return finish(u_best, ev, best_status, trace, len(trace))


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
