"""The optimizer coordinates of the initialization and the Newton steps (``fitting._Coords``).

u holds each all-free generalized gamma component as (m, log s, log k), m
and s the mean and sd of log Y.  The initialization runs L-BFGS-B in z =
u - u0, and the censored fit's Newton steps solve in u.  The analytic
z-gradient must match finite differences, the map must invert, the Newton
step and its safeguards must do what they claim, and the first start must
keep the fits that once failed without them.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    Dataset,
    FitConfig,
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
from conftest import MIX_SIM, fd_gradient, fd_jacobian

GEOM = CoreGeometry(6.0)
LOG_BOX = np.log([1e-4, 50.0])  # the default unitless generalized gamma box, each coordinate

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


def _coords_and_objective(family, x0, data):
    model = ModelSpec(family, "ofa", GEOM)
    lo, hi = fitting._fit_inputs(model, FitConfig(), np.zeros(model.n_params))[2:]
    coords = fitting._Coords(model, np.ones(model.n_params, dtype=bool), np.array(x0), lo, hi)

    def objective(theta):
        ev = init_loglik(model.params_from_original(model.from_theta(theta)), data, order=1)
        return -ev.loglik, -ev.gradient

    return coords, coords.objective(objective)


@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_z_gradient_matches_finite_differences(family, unit_data):
    for x0 in POINTS[family]:
        coords, objective = _coords_and_objective(family, x0, unit_data)
        z = np.full(len(x0), 0.02)  # off the start, where u0 and J are read
        assert np.all(coords.theta(z)[0] > coords.lo) and np.all(coords.theta(z)[0] < coords.hi)
        value, grad = objective(z)
        fd = fd_gradient(lambda t: objective(t)[0], z, h=1e-5)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6 * (1.0 + abs(value)))


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


def test_z_box_is_the_corner_bounding_box():
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = fitting._fit_inputs(model, FitConfig(), np.zeros(7))[2:]
    x0 = np.array(POINTS["ggamma"][0])
    coords = fitting._Coords(model, np.ones(7, dtype=bool), x0, lo, hi)
    ulo, uhi = coords.ubox
    rng = np.random.default_rng(3)
    inside = rng.uniform(lo, hi, size=(2000, 7))  # the image of the theta box lies in the z box
    images = np.array([fitting._u_of(x, coords.blocks) for x in inside])
    assert np.all(images >= ulo) and np.all(images <= uhi)
    assert np.array_equal(ulo[[0, 3, 6]], lo[[0, 3, 6]]) and np.array_equal(uhi[[0, 3, 6]], hi[[0, 3, 6]])
    corners = [fitting._u_of(np.array(c), coords.blocks) for c in product(*zip(lo, hi))]
    assert np.array_equal(np.min(corners, axis=0), ulo) and np.array_equal(np.max(corners, axis=0), uhi)


def test_only_all_free_ggamma_components_are_mapped():
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = fitting._fit_inputs(model, FitConfig(), np.zeros(7))[2:]
    x0 = np.array(POINTS["ggamma"][0])
    assert fitting._Coords(model, np.ones(7, dtype=bool), x0, lo, hi).blocks == [1, 4]
    free = np.array([True, True, False, True, True, True, True])  # d1 fixed: fines stays theta
    coords = fitting._Coords(model, free, x0[free], lo[free], hi[free])
    assert coords.blocks == [3]
    assert np.array_equal(coords.theta(np.zeros(6))[0][:3], x0[[0, 1, 3]])
    logn = ModelSpec("lognorm", "ofa", GEOM)
    lo, hi = fitting._fit_inputs(logn, FitConfig(), np.zeros(5))[2:]
    assert fitting._Coords(logn, np.ones(5, dtype=bool), np.array(POINTS["lognorm"][0]), lo, hi).blocks == []


def test_bhhh_scale_keeps_the_seed_7002_fit():
    # at this start the diagonal of J' H J is positive in log k2 (-H_ii <= 0), so a
    # scale from the -H diagonal stopped after 6 iterations as singular_hessian at
    # -20 552.1; the BHHH diagonal, a sum of squares, is positive
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 20_000, seed=7002)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", GEOM), FitConfig(n_starts=1))
    assert res.convergence == "success"
    assert res.loglik == pytest.approx(-19_774.14475566, abs=1e-6)


@pytest.mark.parametrize("seed, index, lower, upper", [
    (11, 6, 1e-4, 1.8),  # k2 capped below its estimate, about 2.2: the z run ends on the face
    (12, 5, 3.5, 50.0),  # d2 held above its estimate, 2.94: an iterate's log d2 leaves the box
])
def test_bounds_through_the_maximum_end_on_their_face(seed, index, lower, upper, monkeypatch):
    # the Newton first start ends on the face, where the theta path from the same
    # start ends
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 3000, seed=seed)), "X")
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = np.array((1e-4,) * 7), np.array((1.0 - 1e-4,) + (50.0,) * 6)
    lo[index], hi[index] = lower, upper
    cfg = FitConfig(lower=tuple(lo), upper=tuple(hi), n_starts=1)
    start = tuple(model.from_theta(initialize(data, model, cfg).values))
    assert lower < start[index] < upper  # the initialization ends inside the box
    runs = []
    lbfgsb = fitting._lbfgsb
    monkeypatch.setattr(fitting, "_lbfgsb", lambda *a, **k: runs.append(1) or lbfgsb(*a, **k))
    res = fit(data, model, cfg)
    monkeypatch.undo()
    ref = fit(data, model, FitConfig(lower=tuple(lo), upper=tuple(hi), par_start=start, n_starts=1))
    assert len(runs) == 1  # the initialization: the Newton steps need no L-BFGS-B run
    assert res.convergence == ref.convergence == "success"
    assert res.theta_tilde[index] == pytest.approx(lower if lower > 1e-4 else upper, rel=1e-12)
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)


def test_start_on_a_face_takes_newton_steps(monkeypatch):
    # b2 capped below its estimate puts the initialization's end point, the censored
    # fit's first start, on that face: the Newton steps hold it there and end where
    # the theta path from the same start ends
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 3000, seed=11)), "X")
    model = ModelSpec("ggamma", "ofa", GEOM)
    lower, upper = (1e-4,) * 7, (1.0 - 1e-4, 50.0, 50.0, 50.0, 1.8, 50.0, 50.0)
    cfg = FitConfig(lower=lower, upper=upper, n_starts=1)
    start = tuple(model.from_theta(initialize(data, model, cfg).values))
    assert start[4] == pytest.approx(1.8, rel=1e-12)
    orders, runs = [], []
    loglik, lbfgsb = fitting.ofa_loglik, fitting._lbfgsb
    monkeypatch.setattr(fitting, "ofa_loglik", lambda *a: orders.append(a[4]) or loglik(*a))
    monkeypatch.setattr(fitting, "_lbfgsb", lambda *a, **k: runs.append(1) or lbfgsb(*a, **k))
    res = fit(data, model, cfg)
    monkeypatch.undo()
    ref = fit(data, model, FitConfig(lower=lower, upper=upper, par_start=start, n_starts=1))
    assert orders[0] == 2  # the first censored evaluation is a Newton step's
    assert len(runs) == 1  # the initialization: the Newton steps need no L-BFGS-B run
    assert res.convergence == ref.convergence == "success"
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)


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
    # the same optimum from the scaled first start as from the theta path at that point
    truth = MIX_SIM if family == "ggamma" else MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, GEOM, 1500, seed=2)), "X")
    model = ModelSpec(family, "ofa", GEOM)
    res = fit(data, model, FitConfig(n_starts=1))
    start = tuple(model.from_theta(initialize(data, model).values))
    ref = fit(data, model, FitConfig(par_start=start, n_starts=1))
    assert res.convergence == ref.convergence == "success"
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-6)
    assert res.trace[0].n_iter < ref.trace[0].n_iter


def test_scaled_start_on_the_k_ridge_is_no_worse():
    # a generalized gamma mixture fitted to lognormal data runs along the k -> infinity
    # ridge, about 200 iterations on either path; the scaled start ends higher
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, GEOM, 1500, seed=2)), "X")
    model = ModelSpec("ggamma", "ofa", GEOM)
    res = fit(data, model, FitConfig(n_starts=1))
    start = tuple(model.from_theta(initialize(data, model).values))
    ref = fit(data, model, FitConfig(par_start=start, n_starts=1))
    assert res.convergence == "success"
    assert res.loglik >= ref.loglik - 1e-6


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
    ev = problem.loglik(tf, 2)
    x, gain, factor = problem.newton_step(tf, ev)
    g, neg_h = ev.gradient, -ev.hessian
    assert factor is not None and np.allclose(factor @ factor.T, neg_h, rtol=1e-12, atol=1e-12 * np.abs(neg_h).max())
    assert gain == pytest.approx(0.5 * g @ np.linalg.solve(neg_h, g), rel=1e-9) and gain > 1e-3
    assert np.all(x > problem.lo) and np.all(x < problem.hi)
    # x is u + du mapped back: the Newton step in u, not the one in theta
    u0 = fitting._u_of(tf, problem.blocks)
    jac, du = fitting._theta_of(u0, problem.blocks)[1], fitting._u_of(x, problem.blocks) - u0
    assert np.allclose(jac.T @ neg_h @ jac @ du, jac.T @ g, rtol=1e-8, atol=1e-8 * np.abs(jac.T @ g).max())
    assert not np.allclose(x, tf + np.linalg.solve(neg_h, g), rtol=0.0, atol=1e-6)


def test_newton_step_on_a_face_holds_the_pinned_coordinate(unit_data):
    problem, tf = _near_the_maximum("ggamma", unit_data, distance=0.0)
    problem.hi[6] = tf[6] = tf[6] - 0.01  # log k2 capped below the maximum: the gradient pushes it up
    ev = problem.loglik(tf, 2)
    assert ev.gradient[6] > 0.0
    x, gain, factor = problem.newton_step(tf, ev)
    assert factor is not None and gain > 0.0
    assert x[6] == tf[6] and np.all(x[:6] != tf[:6])
    # the fines block lies inside the box and steps in u, the fibers block, on the face, in theta
    u0 = fitting._u_of(tf, [1])
    jac = fitting._theta_of(u0, [1])[1][:, :6]
    step = np.linalg.solve(jac.T @ -ev.hessian @ jac, jac.T @ ev.gradient)
    assert np.allclose(x, fitting._theta_of(u0 + np.r_[step, 0.0], [1])[0], rtol=0.0, atol=1e-12)


def test_newton_step_of_the_lognormal_is_the_theta_step_bit_for_bit(unit_data):
    # no (m, log s, log k) block: J = I, so the u step is the theta Newton step
    problem, tf = _near_the_maximum("lognorm", unit_data)
    ev = problem.loglik(tf, 2)
    x, gain, _ = problem.newton_step(tf, ev)
    step = np.linalg.solve(-ev.hessian, ev.gradient)
    assert np.array_equal(x, np.clip(tf + step, problem.lo, problem.hi))
    assert gain == 0.5 * float(ev.gradient @ step) and gain > 1e-3


def test_a_step_from_a_point_that_predicts_no_gain_is_not_halved(unit_data, monkeypatch):
    # at the maximum the step predicts a gain of at most 1e-6; when it does not
    # raise the log likelihood, it is not halved and the steps end at the point
    problem, tf = _near_the_maximum("ggamma", unit_data, distance=0.0)
    ev = problem.loglik(tf, 2)
    assert problem.newton_step(tf, ev)[1] <= 1e-6
    orders, lower = [], replace(ev, loglik=ev.loglik - 1.0)
    monkeypatch.setattr(problem, "evaluate", lambda t, order=2, data=None: orders.append(order) or lower)
    x, ev_end, taken, outcome = problem.newton(tf, ev, 5)
    assert orders == [2] and taken == 1 and x is tf and ev_end is ev
    assert not isinstance(outcome, str)  # a known optimum


@pytest.fixture(scope="module")
def rounded_start():
    """A _Problem on an ofa_binned-like rounded sample, its first start and that start's order-2 evaluation."""
    x = np.round(sample_x(SimSpec("X", MIX_SIM, GEOM, 30_000, seed=1)), 2).clip(0.01, 11.99)
    data, model = Dataset(x, "X"), ModelSpec("ggamma", "ofa", GEOM)
    problem = fitting._Problem(data, model, FitConfig())
    problem.theta_init = np.array(initialize(data, model, _unit=problem).values) - problem.shift
    tf = problem.theta_init.copy()
    return problem, tf, problem.loglik(tf, 2)


def test_modified_step_at_the_initialization_raises_the_log_likelihood(rounded_start):
    # -H is indefinite at the initialization's end point, so the Newton model is
    # unbounded there; the modified step still climbs, but certifies nothing
    problem, tf, ev = rounded_start
    assert fitting._cholesky(-ev.hessian) is None
    x, gain, factor = problem.newton_step(tf, ev)
    assert factor is None and gain > 0.0
    assert problem.loglik(x, 0).loglik > ev.loglik


def test_a_step_that_lowers_the_log_likelihood_is_halved_in_u(rounded_start, monkeypatch):
    # sixty-four times the modified step overshoots; it is halved in u, each trial
    # the previous one's u displacement halved, until the log likelihood rises;
    # halvings after the first are judged at order 0, the accepted one then at order 2
    problem, tf, ev = rounded_start
    step = problem.newton_step
    monkeypatch.setattr(problem, "newton_step", lambda t, e, halvings=0: step(t, e, halvings - 6))
    trials = []
    evaluate = problem.evaluate
    monkeypatch.setattr(problem, "evaluate",
                        lambda t, order=2, data=None: trials.append((t, order)) or evaluate(t, order, data))
    x, ev_new, taken, _ = problem.newton(tf, ev, 1)
    points = [t for t, _ in trials]
    assert len(trials) >= 5  # three trials or more lowered the log likelihood
    assert [order for _, order in trials] == [2, 2] + [0] * (len(trials) - 3) + [2]
    assert taken == 1 and ev_new.loglik > ev.loglik and np.array_equal(x, points[-1]) and np.array_equal(x, points[-2])
    assert all(problem.loglik(t, 0).loglik <= ev.loglik for t in points[:-2])
    u0 = fitting._u_of(tf, problem.blocks)
    before, last = (fitting._u_of(t, problem.blocks) - u0 for t in points[-3:-1])
    assert np.allclose(last, 0.5 * before, rtol=1e-9, atol=1e-12)
    assert not np.allclose(x, tf + 0.5 * (points[-3] - tf), rtol=0.0, atol=1e-6)  # not the theta chord


def test_a_u_step_that_leaves_the_box_ends_where_it_meets_it():
    # raising log k in u lowers log b = m - psi(k) / d past its bound; the step
    # stops on that face, every coordinate where the u path puts it, instead of
    # clipping log b alone at the end of the full step
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = fitting._fit_inputs(model, FitConfig(), np.zeros(7))[2:]
    tf = np.array(POINTS["ggamma"][0])
    tf[1] = lo[1] + 0.05
    blocks = fitting._blocks(model, np.ones(7, dtype=bool))
    u0, step = fitting._u_of(tf, blocks), np.zeros(7)
    step[3] = 2.0
    end = fitting._theta_of(u0 + step, blocks)[0]
    assert end[1] < lo[1]
    x = np.clip(fitting._to_the_box(u0, step, blocks, fitting._u_box(blocks, lo, hi), lo, hi), lo, hi)
    assert x[1] == lo[1] and fitting._inside(np.delete(x, 1), np.delete(lo, 1), np.delete(hi, 1))
    t = (fitting._u_of(x, blocks) - u0)[3] / step[3]
    assert 0.0 < t < 1.0
    assert np.allclose(x, fitting._theta_of(u0 + t * step, blocks)[0], rtol=0.0, atol=1e-9)
    assert not np.allclose(x, np.clip(end, lo, hi), rtol=0.0, atol=1e-3)
