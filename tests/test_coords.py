"""The optimizer coordinates of the censored fit's first start (``fitting._Coords``).

L-BFGS-B runs in z = (u - u0) / D, where u holds each all-free generalized
gamma component as (m, log s, log k), m and s the mean and sd of log Y, and
D is 1 (initialization) or the BHHH scale at the start (the censored fit).
The analytic z-gradient must match finite differences, the map must invert,
and the design choices (BHHH scale, handover to theta at the box) must keep
the fits that once failed without them.
"""

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


def _coords_and_objective(family, x0, data, scale):
    model = ModelSpec(family, "ofa", GEOM)
    lo, hi = fitting._bounds_theta(model, FitConfig(), np.zeros(model.n_params))
    coords = fitting._Coords(model, np.ones(model.n_params, dtype=bool), np.array(x0), lo, hi)
    coords.scale = scale

    def objective(theta):
        ev = init_loglik(model.params_from_original(model.from_theta(theta)), data, order=1)
        return -ev.loglik, -ev.gradient

    return coords, coords.objective(objective)


@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_z_gradient_matches_finite_differences(family, unit_data):
    for i, x0 in enumerate(POINTS[family]):
        scale = np.linspace(0.05, 0.8, len(x0))[::-1 if i % 2 else 1]
        coords, objective = _coords_and_objective(family, x0, unit_data, scale)
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
def test_score_outer_is_the_product_of_per_point_scores(kind):
    # the BHHH matrix that scales the censored start: sum over points of score score',
    # each score the theta gradient of that point's log density (finite differences);
    # repeated values check the count weights
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
    assert np.allclose(ev._score_outer, scores.T @ scores, rtol=1e-6, atol=1e-6 * np.abs(ev._score_outer).max())
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
    lo, hi = fitting._bounds_theta(model, FitConfig(), np.zeros(7))
    x0 = np.array(POINTS["ggamma"][0])
    coords = fitting._Coords(model, np.ones(7, dtype=bool), x0, lo, hi)
    ulo, uhi = coords.ubox
    rng = np.random.default_rng(3)
    inside = rng.uniform(lo, hi, size=(2000, 7))  # the image of the theta box lies in the z box
    images = np.array([coords.u_of(x) for x in inside])
    assert np.all(images >= ulo) and np.all(images <= uhi)
    assert np.array_equal(ulo[[0, 3, 6]], lo[[0, 3, 6]]) and np.array_equal(uhi[[0, 3, 6]], hi[[0, 3, 6]])
    corners = [coords.u_of(np.array(c)) for c in product(*zip(lo, hi))]
    assert np.array_equal(np.min(corners, axis=0), ulo) and np.array_equal(np.max(corners, axis=0), uhi)


def test_only_all_free_ggamma_components_are_mapped():
    model = ModelSpec("ggamma", "ofa", GEOM)
    lo, hi = fitting._bounds_theta(model, FitConfig(), np.zeros(7))
    x0 = np.array(POINTS["ggamma"][0])
    assert fitting._Coords(model, np.ones(7, dtype=bool), x0, lo, hi).blocks == [1, 4]
    free = np.array([True, True, False, True, True, True, True])  # d1 fixed: fines stays theta
    coords = fitting._Coords(model, free, x0[free], lo[free], hi[free])
    assert coords.blocks == [3]
    assert np.array_equal(coords.theta(np.zeros(6))[0][:3], x0[[0, 1, 3]])
    logn = ModelSpec("lognorm", "ofa", GEOM)
    lo, hi = fitting._bounds_theta(logn, FitConfig(), np.zeros(5))
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
    # the scaled run hands over to theta, which reaches what the theta path reaches
    # from the same start
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
    assert len(runs) == 3  # initialization, z, theta
    assert res.convergence == ref.convergence == "success"
    assert res.theta_tilde[index] == pytest.approx(lower if lower > 1e-4 else upper, rel=1e-12)
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)


def test_start_on_a_face_runs_in_theta(monkeypatch):
    # b2 capped below its estimate puts the initialization's end point, the censored
    # fit's first start, on that face: the fit is then the theta path from it
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, 3000, seed=11)), "X")
    model = ModelSpec("ggamma", "ofa", GEOM)
    lower, upper = (1e-4,) * 7, (1.0 - 1e-4, 50.0, 50.0, 50.0, 1.8, 50.0, 50.0)
    cfg = FitConfig(lower=lower, upper=upper, n_starts=1)
    start = tuple(model.from_theta(initialize(data, model, cfg).values))
    assert start[4] == pytest.approx(1.8, rel=1e-12)
    original = fitting.ofa_loglik

    def orders_and_fit(config):
        orders = []
        monkeypatch.setattr(fitting, "ofa_loglik", lambda *a: orders.append(a[4]) or original(*a))
        return orders, fit(data, model, config)

    orders, res = orders_and_fit(cfg)
    ref_orders, ref = orders_and_fit(FitConfig(lower=lower, upper=upper, par_start=start, n_starts=1))
    assert orders[0] == 1  # no BHHH evaluation for a run that does not scale
    assert orders.count(1) <= ref_orders.count(1) + 2  # and no z run tried first
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
    coords = fitting._Coords(problem.model, problem.free, tf, problem.lo, problem.hi)
    jac, du = coords.theta(np.zeros(tf.size))[1], coords.u_of(x) - coords.u0
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
    free = np.arange(6)
    step = np.linalg.solve(-ev.hessian[np.ix_(free, free)], ev.gradient[free])
    assert np.array_equal(x[:6], np.clip(tf[:6] + step, problem.lo[:6], problem.hi[:6]))  # a theta step


def test_newton_step_of_the_lognormal_is_the_theta_step_bit_for_bit(unit_data):
    # no (m, log s, log k) block: J = I, so the u step is the theta Newton step
    problem, tf = _near_the_maximum("lognorm", unit_data)
    ev = problem.loglik(tf, 2)
    x, gain, _ = problem.newton_step(tf, ev)
    step = np.linalg.solve(-ev.hessian, ev.gradient)
    assert np.array_equal(x, np.clip(tf + step, problem.lo, problem.hi))
    assert gain == 0.5 * float(ev.gradient @ step) and gain > 1e-3
