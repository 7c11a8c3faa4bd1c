"""The coordinates u of the Newton steps (``fitting._Problem.newton``).

u holds each all-free generalized gamma component as (m, log s, log k), m
and s the mean and sd of log Y.  The initialization's Newton steps on the
uncensored likelihood and the censored fit's solve in u.  The map must
invert, the Newton step and its safeguards must do what they claim, the
initialization must end at a known optimum of its likelihood, and the first
start must keep the fits that once failed without them.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    Dataset,
    EvaluationError,
    FitConfig,
    GgdParams,
    LognParams,
    MixtureParams,
    ModelSpec,
    ParamVector,
    SimSpec,
    fit,
    init_loglik,
    initialize,
    micro_loglik,
    ofa_loglik,
    sample_v,
    sample_x,
)
from fiberfit import fitting
from fiberfit.densities import FAMILIES
from conftest import MIX_SIM, fd_jacobian, start_ends

GEOM = CoreGeometry(6.0)
LOG_BOX = np.log([1e-4, 50.0])  # the default unitless generalized gamma theta bounds, each coordinate

# default-box points of the mixture theta (logit eps, fines, fibers), in units of the median length;
# the last two put a component near the k -> infinity ridge at the k bound
POINTS = {
    "ggamma": [
        (-0.8, np.log(0.12), np.log(1.5), np.log(2.0), np.log(1.1), np.log(2.8), np.log(2.2)),
        (0.3, np.log(0.5), np.log(0.4), np.log(6.0), np.log(2.0), np.log(9.0), np.log(0.7)),
        (-0.2, np.log(0.1), np.log(0.05), np.log(45.0), np.log(1.0), np.log(3.0), np.log(2.0)),
        (-1.0, np.log(0.1), np.log(1.5), np.log(2.0), np.log(0.02), np.log(0.3), np.log(48.0)),
    ],
    "lognorm": [
        (-0.8, -2.0, np.log(0.5), 0.1, np.log(0.25)),
        (0.5, -0.5, np.log(1.5), 1.0, np.log(0.05)),
    ],
}


@pytest.fixture(scope="module")
def unit_data():
    x = sample_x(SimSpec("X", MIX_SIM, GEOM, 400, seed=5))
    return Dataset(x / np.median(x), "X")


def test_inverse_jacobian_matches_finite_differences():
    for t in product(*[np.linspace(*LOG_BOX, 4)] * 3):
        u = fitting._loc_scale(np.array(t))
        jac = fitting._loc_scale_inverse(u)[1]
        fd = fd_jacobian(lambda v: fitting._loc_scale_inverse(v)[0], u, h=1e-6)
        # m carries psi(k) / d, up to 1e8 at the box corners, so u's own rounding sets the floor
        assert np.allclose(jac, fd, rtol=1e-6, atol=1e-8 * max(1.0, abs(u[0]))), t


@pytest.mark.parametrize("kind", ["ofa", "init", "micro"])
def test_order_2_gradient_is_the_sum_of_per_point_scores(kind):
    # the order-2 gradient is summed from the per-point scores, whose outer product
    # the Hessian holds; each score is the theta gradient of that point's log
    # density (finite differences), and repeated values check the count weights
    if kind == "micro":
        geom = CoreGeometry(2.5)
        v = sample_v(SimSpec("V", LognParams(0.8, 0.3), geom, 60, seed=4))
        data, theta = Dataset(np.r_[v, v[:7]], "V"), np.log([2.2, 3.0, 1.4])
        loglik = lambda t, order: micro_loglik(ParamVector("ggamma", tuple(t)), data, geom, order=order)
    else:
        x = sample_x(SimSpec("X", MIX_SIM, GEOM, 60, seed=4))
        data, theta = Dataset(np.r_[x, x[:7]], "X"), np.array(POINTS["ggamma"][0])
        if kind == "ofa":
            loglik = lambda t, order: ofa_loglik(ParamVector("ggamma", tuple(t)), data, GEOM, order=order)
        else:
            loglik = lambda t, order: init_loglik(ParamVector("ggamma", tuple(t)), data, order=order)
    scores = fd_jacobian(lambda t: loglik(t, 0).per_point_loglik, theta, h=1e-5)
    ev = loglik(theta, 2)
    assert np.allclose(ev.gradient, scores.sum(axis=0), rtol=1e-6, atol=1e-6)


def test_round_trip_at_the_default_box_corners():
    for t in product(LOG_BOX, repeat=3):
        t = np.array(t)
        u = fitting._loc_scale(t)
        back = fitting._loc_scale_inverse(u)[0]
        # the rounding of m = log b + psi(k) / d bounds how well log b can return
        assert np.all(np.abs(back - t) <= 1e-12 * max(1.0, np.abs(u).max())), (t, back - t)


def test_the_step_box_is_the_family_box_in_u(unit_data):
    # an all-free generalized gamma component steps in (m, log s, log k) inside its
    # family's step_bounds, whose (m, s) box is the lognormal's (mu, sigma) box; eps, a
    # component with a fixed coordinate and every coordinate of a user-bounded fit
    # step in theta inside the theta box
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = fitting._fit_inputs(model, FitConfig(), np.zeros(7))[2:]
    (m_lo, m_hi), (s_lo, s_hi), (k_lo, k_hi) = FAMILIES["ggamma"].step_bounds
    assert FAMILIES["ggamma"].step_bounds[:2] == FAMILIES["lognorm"].bounds
    u_lo, u_hi = np.array([m_lo, np.log(s_lo), np.log(k_lo)]), np.array([m_hi, np.log(s_hi), np.log(k_hi)])
    problem = fitting._Problem(unit_data, model, FitConfig())
    assert problem.blocks == [1, 4] and list(np.flatnonzero(problem.loc_scale)) == [1, 2, 4, 5]
    assert np.array_equal(problem.lo, np.r_[lo[0], u_lo, u_lo]) and np.array_equal(problem.hi, np.r_[hi[0], u_hi, u_hi])
    start = (0.3, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2)
    fixed = fitting._Problem(unit_data, model, FitConfig(par_start=start, fixed_mask=(False, False, True) + (False,) * 4))
    assert fixed.blocks == [3] and list(np.flatnonzero(fixed.loc_scale)) == [4, 5]
    assert np.array_equal(fixed.lo, np.r_[lo[[0, 1, 3]], u_lo]) and np.array_equal(fixed.hi, np.r_[hi[[0, 1, 3]], u_hi])
    cfg = FitConfig(upper=(0.9,) + (40.0,) * 6)
    bounded = fitting._Problem(unit_data, model, cfg)
    box = fitting._fit_inputs(model, cfg, bounded.shift)[2:]
    assert bounded.blocks == [] and not bounded.loc_scale.any()
    assert np.array_equal(bounded.lo, box[0]) and np.array_equal(bounded.hi, box[1]) and np.array_equal(box[0], lo)
    lognormal = fitting._Problem(unit_data, ModelSpec("lognorm", "ofa", GEOM), FitConfig())
    assert lognormal.blocks == [] and np.array_equal(lognormal.lo, np.r_[lo[0], u_lo[:2], u_lo[:2]])


def test_only_all_free_ggamma_components_are_mapped():
    model = ModelSpec("ggamma", "ofa", GEOM)
    x0 = np.array(POINTS["ggamma"][0])
    assert fitting._blocks(model, np.ones(7, dtype=bool)) == [1, 4]
    free = np.array([True, True, False, True, True, True, True])  # d1 fixed: fines stays theta
    blocks = fitting._blocks(model, free)
    assert blocks == [3]
    assert np.array_equal(fitting._theta_of(fitting._u_of(x0[free], blocks), blocks)[0][:3], x0[[0, 1, 3]])
    assert fitting._blocks(ModelSpec("lognorm", "ofa", GEOM), np.ones(5, dtype=bool)) == []


def test_bhhh_scale_keeps_the_seed_7002_fit():
    # at this start the diagonal of J' H J is positive in log k2 (-H_ii <= 0), so a
    # scale from the -H diagonal stopped after 6 iterations as singular_hessian at
    # -20 552.1; the BHHH diagonal, a sum of squares, is positive
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 20_000, seed=7002)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", GEOM), FitConfig(n_starts=1))
    assert res.convergence == "success"
    assert res.loglik == pytest.approx(-19_774.14475566, abs=1e-6)


@pytest.mark.parametrize("seed, index, lower, upper", [
    (11, 6, 1e-4, 1.8),  # k2 capped below its estimate, about 2.2
    (12, 5, 3.5, 50.0),  # d2 held above its estimate, 2.94
])
def test_bounds_through_the_maximum_end_on_their_face(seed, index, lower, upper):
    # the Newton first start ends on the face, where L-BFGS-B in theta from the same
    # start ended, at these log likelihoods
    loglik = {11: -2957.667762062766, 12: -2954.0635649396527}[seed]
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 3000, seed=seed)), "X")
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = np.array((1e-4,) * 7), np.array((1.0 - 1e-4,) + (50.0,) * 6)
    lo[index], hi[index] = lower, upper
    cfg = FitConfig(lower=tuple(lo), upper=tuple(hi), n_starts=1)
    start = tuple(model.from_theta(initialize(data, model, cfg).values))
    assert lower < start[index] < upper  # the initialization ends inside the box
    res = fit(data, model, cfg)
    assert res.convergence == "success" and "stopped" not in res.trace[0].message
    assert res.theta_tilde[index] == pytest.approx(lower if lower > 1e-4 else upper, rel=1e-12)
    assert res.loglik == pytest.approx(loglik, abs=1e-8)


def test_start_on_a_face_takes_newton_steps(monkeypatch):
    # b2 capped below its estimate puts the initialization's end point, the censored
    # fit's first start, on that face: the Newton steps hold it there and end where
    # L-BFGS-B in theta from the same start ended
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 3000, seed=11)), "X")
    model = ModelSpec("ggamma", "ofa", GEOM)
    lower, upper = (1e-4,) * 7, (1.0 - 1e-4, 50.0, 50.0, 50.0, 1.8, 50.0, 50.0)
    cfg = FitConfig(lower=lower, upper=upper, n_starts=1)
    start = tuple(model.from_theta(initialize(data, model, cfg).values))
    assert start[4] == pytest.approx(1.8, rel=1e-12)
    orders = []
    loglik = fitting.ofa_loglik
    monkeypatch.setattr(fitting, "ofa_loglik", lambda *a, **k: orders.append(k["order"]) or loglik(*a, **k))
    res = fit(data, model, cfg)
    assert orders[0] == 2  # the first censored evaluation is a Newton step's
    assert res.convergence == "success" and "stopped" not in res.trace[0].message
    assert res.loglik == pytest.approx(-2958.2436009792973, abs=1e-8)


def test_unitless_problem_is_built_once_per_fit(monkeypatch):
    calls = []
    original = fitting._unitless
    monkeypatch.setattr(fitting, "_unitless", lambda *a: calls.append(1) or original(*a))
    seen = []
    initialize_ = fitting.initialize
    monkeypatch.setattr(fitting, "initialize", lambda *a, **k: seen.append((len(a), sorted(k))) or initialize_(*a, **k))
    geom = CoreGeometry(2.5)
    truth = LognParams(0.8, 0.3)
    data = Dataset(sample_v(SimSpec("V", truth, geom, 200, seed=1)), "V")
    fit(data, ModelSpec("lognorm", "microscopy", geom), FitConfig(n_starts=1))
    assert len(calls) == 1
    assert seen == [(3, ["_unit"])]  # the traced entry point, called through the module
    calls.clear()
    initialize(data, ModelSpec("lognorm", "microscopy", geom))  # a direct call builds its own
    assert len(calls) == 1


@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_scaled_start_reaches_the_theta_optimum_in_fewer_iterations(family):
    # the optimum, and the iterations, of L-BFGS-B in theta from the initialization
    loglik, theta_iterations = {"ggamma": (-1515.6542715438454, 35), "lognorm": (-1501.6360204734258, 13)}[family]
    truth = MIX_SIM if family == "ggamma" else MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, GEOM, 1500, seed=2)), "X")
    res = fit(data, ModelSpec(family, "ofa", GEOM), FitConfig(n_starts=1))
    assert res.convergence == "success"
    assert res.loglik == pytest.approx(loglik, abs=1e-6)
    assert res.trace[0].n_iter < theta_iterations


def test_scaled_start_on_the_k_ridge_is_no_worse():
    # a generalized gamma mixture fitted to lognormal data runs along the k -> infinity
    # ridge, where L-BFGS-B in theta from the initialization stopped after 153
    # iterations at -1501.1747536916437; the scaled start ends higher
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, GEOM, 1500, seed=2)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", GEOM), FitConfig(n_starts=1))
    assert res.convergence == "success"
    assert res.loglik >= -1501.1747536916437 - 1e-6


def _near_the_maximum(family, data, distance=0.3):
    """A _Problem on ``data`` and the free theta ``distance`` standard errors from its one-start maximum, along the covariance."""
    model = ModelSpec(family, "ofa", GEOM)
    res = fit(data, model, FitConfig(n_starts=1))
    problem = fitting._Problem(data, model, FitConfig())
    direction = np.linalg.cholesky(res.cov_theta) @ np.resize([1.0, -1.0], model.n_params)
    problem.theta_init = np.array(res.theta_hat.values) - problem.shift + distance * direction / np.sqrt(model.n_params)
    return problem, problem.theta_init.copy()


def test_newton_step_in_u_predicts_the_theta_newton_decrement(unit_data):
    # J' (-H) J du = J' g gives (J' g) du = g' (-H)^-1 g for any invertible J
    problem, tf = _near_the_maximum("ggamma", unit_data)
    u = problem.into_box(tf)
    ev = problem.evaluate(u)
    path, gain, factor = problem.newton_step(u, ev)
    x, g, neg_h = path(0), ev.gradient, -ev.hessian
    jac = fitting._theta_of(u, problem.blocks)[1]
    a = jac.T @ neg_h @ jac
    assert factor is not None and factor.keep.all()
    assert np.allclose(factor.lower @ factor.lower.T, a, rtol=1e-12, atol=1e-12 * np.abs(a).max())
    assert gain == pytest.approx(0.5 * g @ np.linalg.solve(neg_h, g), rel=1e-9) and gain > 1e-3
    assert np.all(x > problem.lo) and np.all(x < problem.hi)
    # x is u + du: the Newton step in u, not the one in theta
    assert np.allclose(a @ (x - u), jac.T @ g, rtol=1e-8, atol=1e-8 * np.abs(jac.T @ g).max())
    assert not np.allclose(problem.tf_of(x), problem.tf_of(u) + np.linalg.solve(neg_h, g), rtol=0.0, atol=1e-6)


def test_newton_step_on_a_face_holds_the_pinned_coordinate(unit_data):
    # on a face of the box in u, the step holds the coordinate that its gradient in u
    # pushes out, and solves a du = J' g over the others, every component in u
    problem, tf = _near_the_maximum("ggamma", unit_data, distance=0.0)
    u = problem.into_box(tf)
    problem.hi[6] = u[6] = u[6] - 0.01  # log k2 capped below the maximum: the gradient pushes it up
    ev = problem.evaluate(u)
    jac = fitting._theta_of(u, problem.blocks)[1]
    gu = jac.T @ ev.gradient
    assert gu[6] > 0.0
    path, gain, factor = problem.newton_step(u, ev)
    x = path(0)
    assert factor is not None and gain > 0.0 and list(factor.keep) == [True] * 6 + [False]
    assert x[6] == u[6] and np.all(x[:6] != u[:6])
    free = jac[:, :6]
    step = np.linalg.solve(free.T @ -ev.hessian @ free, gu[:6])
    assert np.allclose(x[:6], u[:6] + step, rtol=0.0, atol=1e-12)


def test_newton_step_of_the_lognormal_is_the_theta_step_bit_for_bit(unit_data):
    # no (m, log s, log k) block: J = I, so the u step is the theta Newton step
    problem, tf = _near_the_maximum("lognorm", unit_data)
    ev = problem.loglik(tf, 2)
    path, gain, _ = problem.newton_step(tf, ev)
    step = np.linalg.solve(-ev.hessian, ev.gradient)
    assert np.array_equal(path(0), np.clip(tf + step, problem.lo, problem.hi))
    assert gain == 0.5 * float(ev.gradient @ step) and gain > 1e-3


@pytest.mark.parametrize("hessian", ["flat", "nan"])
def test_no_step_where_the_newton_matrix_is_zero_or_not_finite(hessian):
    # at this corner of the default box of this microscopy ggamma sample, g and H
    # are exactly 0: the modified step was 0 / 0, and NaN theta reached the params
    # constructor, which raised ValueError out of the fit.  A non-finite H gives no
    # step either, and the steps end at once, naming why
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=0)), "V")
    problem = fitting._Problem(data, ModelSpec("ggamma", "microscopy", geom), FitConfig())
    u = np.r_[problem.hi[0], problem.lo[1], problem.hi[2]]  # m = 10, s = 1e-3, k = 50: a spike far above the data
    problem.theta_init = problem.tf_of(u)
    ev = problem.evaluate(u)
    assert not np.any(ev.gradient) and not np.any(ev.hessian)
    if hessian == "nan":
        ev = replace(ev, gradient=-np.ones(3), hessian=np.full((3, 3), np.nan))  # g points into the box
    assert problem.newton_step(u, ev) == (None, 0.0, None)
    x, ev_end, taken, outcome = problem.newton(u, ev, 50)
    assert x is u and ev_end is ev and taken == 0
    assert outcome == "J' (-H) J is not finite or is zero: no step"


def test_a_step_from_a_point_that_predicts_no_gain_is_not_halved(unit_data, monkeypatch):
    # at the maximum the step predicts a gain of at most 1e-6; when it does not
    # raise the log likelihood, it is not halved and the steps end at the point
    problem, tf = _near_the_maximum("ggamma", unit_data, distance=0.0)
    u = problem.into_box(tf)
    ev = problem.evaluate(u)
    assert problem.newton_step(u, ev)[1] <= 1e-6
    trials, lower = [], replace(ev, loglik=ev.loglik - 1.0)
    monkeypatch.setattr(problem, "evaluate", lambda t, data=None, uncensored=False: trials.append(t) or lower)
    x, ev_end, taken, outcome = problem.newton(u, ev, 5)
    assert len(trials) == 1 and taken == 1 and x is u and ev_end is ev
    assert not isinstance(outcome, str)  # a known optimum


@pytest.fixture(scope="module")
def rounded_start():
    """A _Problem on an ofa_binned-like rounded sample, its first start in u and that start's order-2 evaluation."""
    x = np.round(sample_x(SimSpec("X", MIX_SIM, GEOM, 30_000, seed=1)), 2).clip(0.01, 11.99)
    data, model = Dataset(x, "X"), ModelSpec("ggamma", "ofa", GEOM)
    problem = fitting._Problem(data, model, FitConfig())
    problem.theta_init = np.array(initialize(data, model, _unit=problem).values) - problem.shift
    u = problem.into_box(problem.theta_init)
    return problem, u, problem.evaluate(u)


def test_modified_step_at_the_initialization_raises_the_log_likelihood(rounded_start):
    # -H is indefinite at the initialization's end point, so the Newton model is
    # unbounded there; the modified step still climbs, but certifies nothing
    problem, u, ev = rounded_start
    assert fitting._cholesky(-ev.hessian) is None
    path, gain, factor = problem.newton_step(u, ev)
    assert factor is None and gain > 0.0
    assert problem.evaluate(path(0)).loglik > ev.loglik


def test_a_step_that_lowers_the_log_likelihood_is_halved_in_u(rounded_start, monkeypatch):
    # sixty-four times the modified step overshoots; it is halved in u, each trial
    # the previous one's u displacement halved, until the log likelihood rises;
    # every trial is evaluated at order 2, and the accepted one is not evaluated again
    problem, u, ev = rounded_start
    step = problem.newton_step

    def overshooting(t, e):
        path, gain, factor = step(t, e)
        return (lambda halvings: path(halvings - 6)), gain, factor

    monkeypatch.setattr(problem, "newton_step", overshooting)
    trials, orders = [], []
    loglik, evaluate = problem.loglik, problem.evaluate
    monkeypatch.setattr(problem, "loglik", lambda t, order, data=None, uncensored=False:
                        orders.append(order) or loglik(t, order, data, uncensored))
    monkeypatch.setattr(problem, "evaluate", lambda t, data=None, uncensored=False:
                        trials.append((t, evaluate(t, data, uncensored))) or trials[-1][1])
    x, ev_new, taken, _ = problem.newton(u, ev, 1)
    points = [t for t, _ in trials]
    assert len(trials) >= 4  # three trials or more lowered the log likelihood
    assert orders == [2] * len(trials)
    assert taken == 1 and ev_new is trials[-1][1] and ev_new.loglik > ev.loglik and np.array_equal(x, points[-1])
    assert all(new.loglik <= ev.loglik for _, new in trials[:-1])
    before, last = (t - u for t in points[-2:])
    assert np.allclose(last, 0.5 * before, rtol=1e-9, atol=1e-12)
    tf = problem.tf_of(u)  # not the theta chord
    assert not np.allclose(problem.tf_of(x), tf + 0.5 * (problem.tf_of(points[-2]) - tf), rtol=0.0, atol=1e-6)


def test_a_step_whose_evaluation_fails_is_halved(rounded_start, monkeypatch):
    # the full step's order-2 evaluation fails; the step is halved as one that
    # lowers the log likelihood is, and the steps go on from the halved point
    problem, u, ev = rounded_start
    trials = []
    evaluate = problem.evaluate

    def failing_full_step(t, data=None, uncensored=False):
        trials.append(t)
        return None if len(trials) == 1 else evaluate(t, data, uncensored)

    monkeypatch.setattr(problem, "evaluate", failing_full_step)
    x, ev_new, taken, _ = problem.newton(u, ev, 1)
    assert np.array_equal(trials[0], problem.newton_step(u, ev)[0](0))
    assert taken == 1 and ev_new is not None and ev_new.loglik > ev.loglik
    assert np.array_equal(x, trials[-1]) and not np.array_equal(x, trials[0])


def test_steps_that_end_on_a_failed_evaluation_name_it(rounded_start, monkeypatch):
    # every evaluation fails: the step is halved 12 times, and the steps end at the
    # start; the outcome names the failure, not the start's indefinite -H.  Each of
    # the 13 trials is one order-2 evaluation
    problem, u, ev = rounded_start
    orders = []

    def failing(t, order, data=None, uncensored=False):
        orders.append(order)
        raise EvaluationError("injected failure")

    monkeypatch.setattr(problem, "loglik", failing)
    x, ev_end, taken, outcome = problem.newton(u, ev, 5)
    assert problem.newton_step(u, ev)[2] is None
    assert outcome == "an evaluation failed" and x is u and ev_end is ev and taken == 1
    assert orders == [2] * 13


@pytest.mark.parametrize("data_type, family", [("ofa", "ggamma"), ("microscopy", "ggamma"), ("microscopy", "lognorm")])
def test_initialization_ends_at_a_known_optimum_of_its_likelihood(data_type, family):
    # Newton steps on the uncensored likelihood, on the groups of the n = 20 000
    # OFA sample: -H factors where they end, and predicts a gain of at most 1e-6
    if data_type == "ofa":
        geom = GEOM
        data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 20_000, seed=9100)), "X")
    else:
        geom = CoreGeometry(2.5)
        data = Dataset(sample_v(SimSpec("V", LognParams(0.8, 0.3), geom, 300, seed=4)), "V")
    model = ModelSpec(family, data_type, geom)
    problem = fitting._Problem(data, model, FitConfig())
    assert (problem.grouped is not None) == (data_type == "ofa")
    u = problem.into_box(np.array(initialize(data, model, _unit=problem).values) - problem.shift)
    ev = problem.evaluate(u, problem.grouped, uncensored=True)
    _, gain, factor = problem.newton_step(u, ev)
    assert factor is not None and 0.0 <= gain <= 1e-6


def test_a_step_that_leaves_the_box_lands_on_its_bound_in_u(unit_data):
    # the step is clipped into the box in u: the coordinate it takes across its bound
    # lands exactly on it, every other one where u + du puts it; the fit carries u,
    # so the next step finds that coordinate on its bound and holds it
    problem, tf = _near_the_maximum("ggamma", unit_data, distance=0.0)
    u, i = problem.into_box(tf), 3
    u[i] -= 0.05  # log k1 below the maximum: the step raises it
    ev = problem.evaluate(u)
    free_end = problem.newton_step(u, ev)[0](0)
    assert free_end[i] > u[i]
    problem.hi[i] = bound = u[i] + 0.5 * (free_end[i] - u[i])
    x = problem.newton_step(u, ev)[0](0)
    assert x[i] == bound and np.array_equal(np.delete(x, i), np.delete(free_end, i))
    ev_x = problem.evaluate(x)
    assert ev_x.loglik > ev.loglik
    path, gain, factor = problem.newton_step(x, ev_x)
    assert factor is not None and not factor.keep[i] and factor.keep[np.arange(7) != i].all()
    assert path(0)[i] == bound and gain > 0.0


def test_the_covariance_at_an_interior_maximum_is_the_inverse_of_minus_h(unit_data, monkeypatch):
    # J a^-1 J' over every coordinate is (-H)^-1 for any invertible J
    ends = start_ends(monkeypatch)
    res = fit(unit_data, ModelSpec("ggamma", "ofa", GEOM), FitConfig(n_starts=1))
    assert res.convergence == "success" and res.on_bound == () and np.all(np.isfinite(res.se_tilde))
    problem, u, ev = ends[0]
    factor = problem.newton_step(u, ev)[2]
    ref = np.linalg.inv(-ev.hessian)
    assert factor.keep.all() and np.abs(factor.covariance() - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.abs(res.cov_theta - ref).max() <= 1e-10 * np.abs(ref).max()  # no relabelling: fines is component 1


def test_a_factor_too_ill_conditioned_to_solve_with_takes_the_modified_step(unit_data, monkeypatch):
    # a later start of the n = 3 000 sample seed 5023 (jitter seed 1) reaches an a whose
    # entries run from 0.2 to 2e31: it has a Cholesky factor, but LU meets an exact zero
    # pivot; the step is then modified, as where a has no factor, and certifies nothing.
    # Here a is positive definite, so the modified step is the Newton step
    problem, tf = _near_the_maximum("ggamma", unit_data)
    u = problem.into_box(tf)
    ev = problem.evaluate(u)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    path, gain, factor = problem.newton_step(u, ev)
    monkeypatch.undo()
    jac = fitting._theta_of(u, problem.blocks)[1]
    newton = np.linalg.solve(jac.T @ -ev.hessian @ jac, jac.T @ ev.gradient)
    assert factor is None and gain > 0.0 and np.allclose(path(0) - u, newton, rtol=1e-7, atol=1e-12)
