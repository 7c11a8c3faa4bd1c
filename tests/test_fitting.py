import json

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    Dataset,
    FitConfig,
    GgdParams,
    LognParams,
    MixtureParams,
    ModelSpec,
    ParamVector,
    SimSpec,
    covariance_original_scale,
    decode,
    digamma,
    fit,
    initialize,
    init_loglik,
    micro_loglik,
    ofa_loglik,
    sample_v,
    sample_x,
    summary_stats,
    trigamma,
)
from fiberfit import fitting
from fiberfit.cli import main
from fiberfit.likelihood import EvaluationError
from conftest import MIX_SIM, assert_known_optima, start_ends


@pytest.fixture(scope="module")
def micro_fit():
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    return fit(data, model, FitConfig(n_starts=3, seed=1)), data, model


def _initial(data, model):
    """The :func:`initialize` output on the original scale: a par_start where the default fit would start."""
    return tuple(model.from_theta(initialize(data, model).values))


def test_model_spec_validation():
    geom = CoreGeometry(2.5)
    with pytest.raises(ValueError):
        ModelSpec("weibull", "ofa", geom)
    with pytest.raises(ValueError):
        ModelSpec("ggamma", "sem", geom)
    m = ModelSpec("lognorm", "ofa", geom)
    assert m.param_names == ("eps", "mu1", "sigma1", "mu2", "sigma2")
    assert m.n_params == 5


def test_transform_round_trip():
    m = ModelSpec("ggamma", "ofa", CoreGeometry(6.0))
    orig = np.array([0.3, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2])
    assert np.allclose(m.from_theta(m.to_theta(orig)), orig, rtol=1e-14)
    chain = m.chain_vector(m.to_theta(orig))
    assert chain[0] == pytest.approx(0.3 - 0.09)
    assert np.allclose(chain[1:], orig[1:], rtol=1e-12)


def test_chain_vector_fixtures():
    m = ModelSpec("lognorm", "ofa", CoreGeometry(6.0))
    theta = m.to_theta([0.5, -1.0, 0.7, 0.9, 0.25])
    chain = m.chain_vector(theta)
    assert chain[0] == pytest.approx(0.25)  # eps - eps^2 at 1/2
    assert np.allclose(chain, [0.25, 1.0, 0.7, 1.0, 0.25], rtol=1e-12)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n_starts=0)
    # n_starts and seed are checked where they enter, each named, numpy integers accepted
    for kwargs, name in [({"n_starts": 2.5}, "n_starts"), ({"n_starts": True}, "n_starts"),
                         ({"seed": 1.5}, "seed"), ({"seed": -1}, "seed"), ({"seed": "1"}, "seed")]:
        with pytest.raises(ValueError, match=f"^{name} "):
            FitConfig(**kwargs)
    assert FitConfig(n_starts=np.int64(3), seed=np.uint32(7)).n_starts == 3
    with pytest.raises(ValueError):
        FitConfig(fixed_mask=(True, False, False))  # no par_start


def test_initialize_seed_matches_log_moments():
    # every component seed has the mean and sd of its log lengths: all of them
    # for microscopy, the lower 20% and the rest for a mixture
    x = sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 1000, seed=3))
    logs = np.sort(np.log(x))
    parts = [logs, logs[:200], logs[200:]]
    for family in ("ggamma", "lognorm"):
        comps = [decode(ParamVector(family, ModelSpec(family, "microscopy", CoreGeometry(6.0)).seed(x)))]
        mix = decode(ParamVector(family, ModelSpec(family, "ofa", CoreGeometry(6.0)).seed(x)))
        assert mix.eps == pytest.approx(0.2, rel=1e-12)
        for p, part in zip(comps + [mix.fines, mix.fibers], parts):
            if family == "ggamma":
                log_mean = np.log(p.b) + digamma(p.k) / p.d
                log_sd = np.sqrt(trigamma(p.k)) / p.d
            else:
                log_mean, log_sd = p.mu, p.sigma
            assert log_mean == pytest.approx(part.mean(), rel=1e-12)
            assert log_sd == pytest.approx(part.std(), rel=1e-12)


def test_initialize_returns_par_start_unchanged():
    m = ModelSpec("ggamma", "ofa", CoreGeometry(6.0))
    data = Dataset(np.array([0.5, 1.0, 2.0]), "X")
    start = (0.4, 0.2, 1.0, 2.0, 2.0, 2.0, 2.0)
    pv = initialize(data, m, FitConfig(par_start=start))
    assert np.allclose(m.from_theta(np.array(pv.values)), start, rtol=1e-12)


def test_initialize_recovers_separation():
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 2000, seed=21)), "X")
    model = ModelSpec("ggamma", "ofa", geom)
    pv = initialize(data, model, FitConfig())
    eps_hat = decode(pv).eps
    assert abs(eps_hat - MIX_SIM.eps) < 0.15
    # initialization maximizes the uncensored problem: no worse than the seed
    l_seed = init_loglik(decode(ParamVector("ggamma", model.seed(data.values))), data).loglik
    l_init = init_loglik(decode(pv), data).loglik
    assert l_init >= l_seed - 1e-9


def test_micro_fit_recovers_truth(micro_fit):
    res, data, model = micro_fit
    assert res.convergence == "success"
    truth = np.array([2.4, 3.3, 1.5])
    assert np.all(np.abs(res.theta_tilde - truth) < 4.0 * res.se_tilde)
    ll_truth = micro_loglik(GgdParams(2.4, 3.3, 1.5), data, model.geom).loglik
    assert res.loglik >= ll_truth
    assert res.starts_tried == 1  # the first start is a known optimum
    assert res.cov_theta.shape == (3, 3)


def test_micro_fit_runs_every_start(monkeypatch):
    # jittered starts that land near the box corners must run: the
    # normalizer once raised there and discarded starts 1 and 3 of this fit
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7000)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    ends = start_ends(monkeypatch)
    # a par_start runs every start, even after a known optimum
    res = fit(data, model, FitConfig(par_start=_initial(data, model)))
    statuses = [rec.status for rec in res.trace]
    assert len(statuses) == 5 and "error" not in statuses
    assert statuses[0] == "success"
    assert res.loglik >= -285.15073866664505 - 1e-6
    assert_known_optima(res, ends)
    assert all("stopped (" in rec.message for rec in res.trace if rec.status == "stalled")


@pytest.mark.parametrize("family, seed, jitter", [("ggamma", 0, 1), ("lognorm", 0, 4)])
def test_later_starts_at_a_flat_corner_end_without_raising(family, seed, jitter, monkeypatch):
    # L-BFGS-B ran a later start of these fits to a flat part of the box's boundary,
    # where g and H are 0, and the one-step polish there divided 0 by 0 (a
    # RuntimeWarning): NaN parameters then raised ValueError out of the fit.  Every
    # start now takes Newton steps, which take no step where J' (-H) J is zero
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=seed)), "V")
    model = ModelSpec(family, "microscopy", geom)
    default = fit(data, model, FitConfig())
    ends = start_ends(monkeypatch)
    res = fit(data, model, FitConfig(par_start=_initial(data, model), n_starts=5, seed=jitter))
    assert res.starts_tried == 5 and res.convergence == "success"
    assert res.loglik >= default.loglik - 1e-9
    assert_known_optima(res, ends)


def test_known_first_optimum_ends_the_fit():
    # the first start is a known optimum, so the default fit runs it alone; the
    # literals are the 5-start fit's, whose four later starts all stopped in
    # the first start's basin
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7000)), "V")
    res = fit(data, ModelSpec("ggamma", "microscopy", geom), FitConfig())
    assert res.starts_tried == 1 and [rec.index for rec in res.trace] == [0]
    assert res.convergence == "success" and res.trace[0].status == "success"
    assert res.loglik == pytest.approx(-285.1507386653608, rel=1e-13)
    # the Newton first start ends within 1e-7 standard errors of the L-BFGS-B optimum
    theta_tilde = [2.07180999317687, 2.69336482526248, 2.1909126973761928]
    assert np.all(np.abs(res.theta_tilde - theta_tilde) <= 1e-7 * res.se_tilde)
    cov_tilde = [[0.24873990589145786, 0.35560881079452245, -0.4476112113384536],
                 [0.35560881079452245, 0.5247011468291358, -0.6426903691149226],
                 [-0.4476112113384536, -0.6426903691149226, 0.8111629750457028]]
    assert np.allclose(res.cov_tilde, cov_tilde, rtol=1e-6, atol=0)  # 7e-8 apart at points 5e-8 SE apart


def test_first_start_with_k_on_its_bound_is_a_known_optimum():
    # the maximum of this ggamma fit has k on its upper bound 50; L-BFGS-B stopped
    # short of it ("ABNORMAL"), so five starts ran, the best at -280.5245003765465,
    # while Newton steps from the initialization reach a known optimum on that face
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=3090)), "V")
    res = fit(data, ModelSpec("ggamma", "microscopy", geom), FitConfig())
    assert res.starts_tried == 1 and res.trace[0].status == "success"
    assert res.convergence == "success" and res.loglik >= -280.5245003765465 - 1e-9
    assert res.theta_tilde[2] == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize("seed, loglik", [
    (5031, -303.75710933769085), (5217, -282.72374623168196), (5219, -297.5288220244174),
])
def test_first_start_on_a_face_is_a_known_optimum(seed, loglik):
    # the initialization of these OFA ggamma fits ends on a face; the Newton steps
    # hold it and reach a known optimum at or above the log likelihood of the five
    # starts that ran when such a start took L-BFGS-B in theta
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=seed)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", CoreGeometry(6.0)), FitConfig())
    assert res.starts_tried == 1 and res.trace[0].status == "success"
    assert res.convergence == "success" and res.loglik >= loglik - 1e-9


def test_uncertified_first_start_runs_the_later_starts(monkeypatch):
    # the censored Newton steps of start 0 are made to stop short of a known optimum, so
    # every later start runs, and the fit is the best start that competes
    starts = []
    minimize, newton = fitting._Problem.minimize, fitting._Problem.newton
    monkeypatch.setattr(fitting._Problem, "minimize", lambda self, t0: starts.append(t0) or minimize(self, t0))

    def newton_short_on_start_0(self, *a, **k):  # the censored start's, not the initialization's
        x, ev, taken, outcome = newton(self, *a, **k)
        return x, ev, taken, "no convergence in 50 steps" if not k.get("uncensored") and len(starts) == 1 else outcome

    monkeypatch.setattr(fitting._Problem, "newton", newton_short_on_start_0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=5217)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", CoreGeometry(6.0)), FitConfig())
    assert res.trace[0].status == "stalled"
    assert res.trace[0].message == "Newton start on every point stopped (no convergence in 50 steps)"
    assert res.starts_tried == 5 and [rec.index for rec in res.trace] == [0, 1, 2, 3, 4]
    assert "success" in [rec.status for rec in res.trace[1:]]
    competing = [rec for rec in res.trace if rec.status not in ("duplicate", "error")]
    best = max(competing, key=lambda rec: rec.loglik)  # the earliest of ties
    assert res.loglik == best.loglik and res.convergence == best.status  # start 0 is in truth at the maximum


def test_newton_first_start_without_a_cholesky_factor_is_stalled(monkeypatch):
    # this OFA ggamma fit's Newton steps reach a known optimum at or above the best of
    # the five starts that ran when the initialization went on in theta at the box.
    # Made to stop after one step, a modified one from the initialization where -H is
    # indefinite, start 0 is ``stalled`` and names "-H has no Cholesky factor"; the
    # later starts then run, and one reaches the known optimum
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=5143)), "X")
    model = ModelSpec("ggamma", "ofa", CoreGeometry(6.0))
    res = fit(data, model, FitConfig())
    assert res.starts_tried == 1 and res.trace[0].message.startswith("Newton start on every point:")
    assert res.convergence == "success" and res.loglik >= -287.95114304430035 - 1e-9
    newton, censored = fitting._Problem.newton, []

    def one_censored_first_step(self, tf, ev, steps, data=None, uncensored=False):
        censored.append(not uncensored)
        return newton(self, tf, ev, 1 if censored.count(True) == 1 and not uncensored else steps, data, uncensored)

    monkeypatch.setattr(fitting._Problem, "newton", one_censored_first_step)
    res = fit(data, model, FitConfig())
    assert res.trace[0].status == "stalled" and res.trace[0].n_iter == 1
    assert res.trace[0].message == "Newton start on every point stopped (J' (-H) J has no Cholesky factor)"
    assert res.starts_tried == 5 and "success" in [rec.status for rec in res.trace[1:]]
    assert res.convergence == "success" and res.loglik >= -287.95114304430035 - 1e-9


def test_newton_first_start_halves_a_step_whose_evaluation_fails():
    # a Newton step of this OFA lognormal fit lands where the censored-tail quadrature
    # fails at order 2; halved, the steps go on and certify the first start, where
    # they used to stop and hand the start to L-BFGS-B
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 300, seed=5040)), "X")
    res = fit(data, ModelSpec("lognorm", "ofa", geom), FitConfig())
    assert res.starts_tried == 1 and res.trace[0].message.startswith("Newton start on every point:")
    assert res.trace[0].status == "success"
    assert res.convergence == "success" and res.loglik == pytest.approx(-302.2402594758854, abs=1e-9)


@pytest.mark.parametrize("seed, loglik", [(5005, -303.7736956556009), (5028, -280.39890686538945)])
def test_newton_first_start_stops_on_the_face_it_meets(seed, loglik):
    # the maximum of these OFA ggamma fits lay on the log b1 face of the theta box,
    # at the log likelihood of the parametrization, at or above what five L-BFGS-B
    # starts reached; in the (m, s, k) box it lies inside, and the first start is a
    # known optimum there
    pinned = {5005: -303.76869852642426, 5028: -280.3897792554762}[seed]
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=seed)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", CoreGeometry(6.0)), FitConfig())
    assert res.starts_tried == 1 and res.trace[0].message.startswith("Newton start on every point:")
    assert res.convergence == "success" and res.loglik >= loglik - 1e-9
    assert res.loglik == pytest.approx(pinned, abs=1e-9) and res.on_bound == ()
    assert res.theta_tilde[1] < 1e-4 * np.median(data.values)  # below the old b1 bound


@pytest.mark.parametrize("seed, loglik", [(1, -1499.426316559048), (6, -1526.0603061240095)])
def test_newton_first_start_on_the_k_ridge_holds_the_faces(seed, loglik):
    # generalized gamma fits of a lognormal mixture run along the k -> infinity ridge.
    # In the theta box the maximum sat on the log b1 and log k2 faces at ``loglik``;
    # in the (m, s, k) box it sits higher, on the k1 and k2 faces, and Newton steps
    # that hold both reach a known optimum there
    pinned = {1: -1498.2297450358074, 6: -1525.944990126246}[seed]
    geom = CoreGeometry(6.0)
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, geom, 1500, seed=seed)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", geom), FitConfig())
    assert res.starts_tried == 1 and res.trace[0].message.startswith("Newton start on every point:")
    assert res.convergence == "success" and res.loglik >= loglik - 1e-9
    assert res.loglik == pytest.approx(pinned, abs=1e-9) and res.on_bound == ("k1", "k2")


def test_a_maximum_on_a_face_names_its_coordinate():
    # in the theta box this fit certified on the b1 face at -284.68594155173; in the
    # (m, s, k) box it reaches k1 = 50 higher, where the full -H is indefinite but a
    # over the coordinates left free factors: one start certifies, k1 is named on its
    # bound and has no standard error, and the others are conditional on it
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=5184)), "X")
    res = fit(data, ModelSpec("ggamma", "ofa", CoreGeometry(6.0)), FitConfig())
    assert res.starts_tried == 1 and res.convergence == "success"
    assert res.loglik == pytest.approx(-284.6834767304402, abs=1e-9) and res.loglik > -284.68594155173
    assert res.on_bound == ("k1",) and res.theta_tilde[3] == pytest.approx(50.0, rel=1e-12)
    assert np.isnan(res.se_tilde[3]) and np.all(np.isfinite(np.delete(res.se_tilde, 3)))
    assert res.cov_theta[3, 3] == 0.0 and np.all(np.linalg.eigvalsh(-res.cov_theta) <= 1e-12)


def test_a_stalled_best_start_stays_stalled():
    # k2 fixed away from the maximum and a start at the maximum with k2 moved: the one
    # start stalls where a has no Cholesky factor, which the fit used to report as
    # ``singular_hessian``; convergence is the start's status, with no covariance
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=5033)), "X")
    model = ModelSpec("ggamma", "ofa", CoreGeometry(6.0))
    start = np.array(fit(data, model, FitConfig()).theta_tilde)
    start[6] = 8.3839
    res = fit(data, model, FitConfig(par_start=tuple(start), fixed_mask=(False,) * 6 + (True,), n_starts=1))
    assert [rec.status for rec in res.trace] == ["stalled"] and res.convergence == "stalled"
    assert res.loglik == pytest.approx(-412.831, abs=1e-3)
    assert res.cov_theta is None and res.cov_tilde is None and res.se_tilde is None


def test_a_later_start_at_a_far_corner_of_the_box_does_not_win():
    # start 2 of this fit ran to the corner m = 10, s = 10, k = 1e-4 of the (m, s, k)
    # box, where the uncut mass read 0 (the gamma CDF underflows there) and the
    # clamped normalizer gave a log likelihood of +206 164, which won the fit; with
    # the log CDF of that corner, every later start ends in start 0's basin
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    res = fit(data, model, FitConfig(par_start=_initial(data, model), n_starts=5, seed=2))
    assert [rec.status for rec in res.trace] == ["success"] + ["duplicate"] * 4
    assert res.loglik == pytest.approx(fit(data, model, FitConfig()).loglik, abs=1e-9)


def test_par_start_runs_every_start():
    # a user's start may sit in a poor basin, so a known optimum there ends nothing
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7000)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    res = fit(data, model, FitConfig(par_start=_initial(data, model), n_starts=3))
    assert res.starts_tried == 3 and [rec.index for rec in res.trace] == [0, 1, 2]
    assert res.trace[0].status == "success"


def test_fit_rejects_scale_mismatch(micro_fit):
    _, data, model = micro_fit
    with pytest.raises(ValueError):
        fit(Dataset(data.values, "X"), model, FitConfig())


def test_fit_deterministic(micro_fit):
    res, data, model = micro_fit
    res2 = fit(data, model, FitConfig(n_starts=3, seed=1))
    assert res2.loglik == res.loglik
    assert np.array_equal(res2.theta_tilde, res.theta_tilde)
    assert np.array_equal(res2.cov_tilde, res.cov_tilde)


def test_fit_monotone_vs_initialization(micro_fit):
    res, data, model = micro_fit
    pv = initialize(data, model, FitConfig(n_starts=3, seed=1))
    l_init = micro_loglik(decode(pv), data, model.geom).loglik
    assert res.loglik >= l_init - 1e-9


def test_fit_respects_bounds(micro_fit):
    _, data, model = micro_fit
    cfg = FitConfig(lower=(1.0, 1.0, 1.0), upper=(3.0, 3.0, 1.2), n_starts=2, seed=0)
    res = fit(data, model, cfg)
    assert np.all(res.theta_tilde >= 1.0 - 1e-12)
    assert np.all(res.theta_tilde <= np.array([3.0, 3.0, 1.2]) + 1e-12)


def test_fixed_mask_pins_values():
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 500, seed=22)), "X")
    model = ModelSpec("ggamma", "ofa", geom)
    cfg = FitConfig(
        par_start=(0.5, 0.01, 1.0, 1.0, 2.0, 1.0, 1.0),
        fixed_mask=(False, False, True, False, False, True, False),
        n_starts=2,
        seed=2,
    )
    res = fit(data, model, cfg)
    assert res.theta_tilde[2] == 1.0 and res.theta_tilde[5] == 1.0
    assert res.theta_hat.fixed_mask == (False, False, True, False, False, True, False)
    # fixed coordinates carry no uncertainty
    assert res.cov_theta[2, 2] == 0.0 and res.cov_tilde[5, 5] == 0.0


def test_all_fixed_evaluates_without_optimizing():
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 100, seed=3)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    cfg = FitConfig(par_start=(2.4, 3.3, 1.5), fixed_mask=(True, True, True))
    res = fit(data, model, cfg)
    assert res.convergence == "success"
    assert np.array_equal(res.theta_tilde, [2.4, 3.3, 1.5])
    # order-0 and order-2 evaluations may refine quadrature differently
    ref = micro_loglik(GgdParams(2.4, 3.3, 1.5), data, geom).loglik
    assert res.loglik == pytest.approx(ref, abs=1e-9)
    assert res.starts_tried == 0


def test_eps_fixed_at_zero_boundary():
    # a proportion pinned at 0 makes the fines block unidentifiable, so the
    # sensible call fixes the fines parameters as well
    geom = CoreGeometry(6.0)
    fibers_only = MixtureParams(0.0, MIX_SIM.fines, MIX_SIM.fibers)
    x = sample_x(SimSpec("X", fibers_only, geom, 300, seed=23))
    model = ModelSpec("ggamma", "ofa", geom)
    cfg = FitConfig(
        par_start=(0.0, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2),
        fixed_mask=(True, True, True, True, False, False, False),
        n_starts=2,
        seed=4,
    )
    res = fit(Dataset(x, "X"), model, cfg)
    assert res.theta_tilde[0] == 0.0
    assert res.convergence == "success"
    truth = np.array([2.0, 2.8, 2.2])
    assert np.all(np.abs(res.theta_tilde[4:] - truth) < 4.0 * res.se_tilde[4:])
    # leaving the dead fines block free is reported, not papered over
    loose = FitConfig(
        par_start=(0.0, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2),
        fixed_mask=(True, False, False, False, False, False, False),
        n_starts=1,
        seed=4,
    )
    res2 = fit(Dataset(x, "X"), model, loose)
    assert res2.convergence == "stalled"
    assert res2.cov_theta is None and res2.cov_tilde is None and res2.se_tilde is None
    with pytest.raises(ValueError):
        covariance_original_scale(res2)


def test_objective_never_leaves_box(micro_fit):
    _, data, model = micro_fit
    seen = []
    import fiberfit.likelihood as lk

    original = lk.micro_loglik

    def spy(theta, *args, **kwargs):
        seen.append(theta)
        return original(theta, *args, **kwargs)

    import fiberfit.fitting as ft

    lo = np.array([1.5, 2.0, 0.5])
    hi = np.array([3.5, 5.0, 3.0])
    old = ft.micro_loglik
    ft.micro_loglik = spy
    try:
        fit(data, model, FitConfig(lower=tuple(lo), upper=tuple(hi), n_starts=2, seed=5))
    finally:
        ft.micro_loglik = old
    assert seen
    s0 = np.median(data.values)  # the optimizer sees lengths in units of s0
    for params in seen:
        vals = np.array([params.b * s0, params.d, params.k])
        assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)


def test_covariance_original_scale_chain(micro_fit):
    res, _, _ = micro_fit
    cov = covariance_original_scale(res)
    assert np.allclose(cov, res.cov_tilde, rtol=1e-12)
    assert np.all(np.diag(cov) >= 0.0)
    eig = np.linalg.eigvalsh(cov)
    assert eig.min() > -1e-10 * eig.max()


def test_se_matches_fisher_information_toy():
    # lognormal microscopy with sigma fixed and a huge core radius reduces to
    # a gaussian location problem: Var(mu-hat) = sigma^2 / n
    rng = np.random.default_rng(30)
    sigma = 0.35
    n = 4000
    geom = CoreGeometry(1e4)
    v = np.exp(0.9 + sigma * rng.standard_normal(n))
    data = Dataset(v, "V")
    model = ModelSpec("lognorm", "microscopy", geom)
    cfg = FitConfig(par_start=(0.5, sigma), fixed_mask=(False, True), n_starts=1, seed=0)
    res = fit(data, model, cfg)
    assert res.se_tilde[0] == pytest.approx(sigma / np.sqrt(n), rel=0.05)


def test_lognorm_ofa_fit_runs():
    geom = CoreGeometry(6.0)
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, geom, 1500, seed=31)), "X")
    model = ModelSpec("lognorm", "ofa", geom)
    res = fit(data, model, FitConfig(n_starts=2, seed=6))
    assert res.convergence == "success"
    assert abs(res.theta_tilde[0] - 0.3) < 4.0 * res.se_tilde[0] + 0.05
    assert abs(res.theta_tilde[3] - 0.9) < 4.0 * res.se_tilde[3] + 0.05


NARROW_FINES = (0.02, -3.2, 0.05, 0.2, 1.2)  # a par_start with a narrow lognormal fines spike


def test_worse_first_optimum_does_not_hide_the_better_one(monkeypatch):
    # L-BFGS-B from this start converged to a spurious lognormal-mixture maximum (a
    # narrow fines spike, about 199 log-likelihood units down), which a later start had
    # to find its way out of; Newton steps take start 0 to the maximum, and the later
    # starts that reach it again are duplicates
    geom = CoreGeometry(6.0)
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, geom, 500, seed=1)), "X")
    model = ModelSpec("lognorm", "ofa", geom)
    best = fit(data, model, FitConfig(n_starts=1)).loglik
    ends = start_ends(monkeypatch)
    res = fit(data, model, FitConfig(par_start=NARROW_FINES, n_starts=5, seed=0))
    first = res.trace[0]
    assert first.status == "success" and first.loglik >= best - 1e-6
    assert "duplicate" in [rec.status for rec in res.trace]
    assert res.convergence == "success"
    assert res.loglik >= best - 1e-6
    assert_known_optima(res, ends)


def test_start_stopped_short_is_no_known_optimum(monkeypatch):
    # L-BFGS-B ended start 0 with ``success`` on a flat ridge of this poorly
    # identified ggamma mixture, 0.022 below the maximum, where -H was positive
    # definite but its Newton model still predicted a gain above 1e-6, and start 3
    # with ``success`` where -H had no Cholesky factor.  Every start now takes Newton
    # steps, and reads ``success`` or ``duplicate`` only at a known optimum.  The
    # maximum had b1 at its lower bound of the theta box, 1e-4 times the median
    # length; in the (m, s, k) box it lies higher, on the k1 face.
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 500, seed=1)), "X")
    model = ModelSpec("ggamma", "ofa", geom)
    ends = start_ends(monkeypatch)
    res = fit(data, model, FitConfig(par_start=(0.31, 8.0, 2.95, 3.27, 2.0, 2.82, 2.14), n_starts=5, seed=0))
    maximum = -458.2918103230642  # best of these starts run alone
    assert res.loglik >= maximum - 1e-6
    assert_known_optima(res, ends)
    assert res.loglik == pytest.approx(-458.1313938262417, abs=1e-8) and res.on_bound == ("k1",)


def test_start_stopped_short_names_why_it_is_no_known_optimum(monkeypatch):
    # microscopy, the initialization as par_start, jitter seed 2: L-BFGS-B ended start 2
    # with ``success`` 0.09 below the maximum, where one Newton step did not certify it.
    # Now starts 1-3 reach the maximum as duplicates, and start 4's first step ends with
    # d and k on their upper bounds, where g and H are 0: there is no step, and the
    # start is ``stalled`` under a message that says so
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=1)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    ends = start_ends(monkeypatch)
    res = fit(data, model, FitConfig(par_start=_initial(data, model), n_starts=5, seed=2))
    assert [rec.status for rec in res.trace] == ["success", "duplicate", "duplicate", "duplicate", "stalled"]
    assert res.trace[4].message == "Newton start on every point stopped (J' (-H) J is not finite or is zero: no step)"
    assert res.convergence == "success" and res.loglik >= -296.14582226273956 - 1e-9
    assert_known_optima(res, ends)


@pytest.mark.parametrize("data_type, par_start, fixed_mask, words", [
    ("microscopy", (-2.4, 3.3, 1.5), None, "b, d, k must all be finite and strictly positive"),
    ("microscopy", (2.4, np.nan, 1.5), None, "b, d, k must all be finite and strictly positive"),
    ("ofa", (1.2, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2), None, "eps must lie in [0, 1]"),
    ("ofa", (0.0, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2), None, "free proportion at 0 or 1"),
    ("ofa", (1.0, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2), (False, True) + (False,) * 5, "free proportion at 0 or 1"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_par_start_outside_the_domain_is_rejected_before_any_transform(data_type, par_start, fixed_mask, words):
    geom = CoreGeometry(2.5 if data_type == "microscopy" else 6.0)
    data = Dataset(np.array([0.4, 0.9, 1.3, 2.0]), "V" if data_type == "microscopy" else "X")
    model = ModelSpec("ggamma", data_type, geom)
    cfg = FitConfig(par_start=par_start, fixed_mask=fixed_mask)
    for call in (initialize, fit):
        with pytest.raises(ValueError, match="par_start") as exc:
            call(data, model, cfg)
        assert words in str(exc.value)


@pytest.mark.parametrize("data_type, family, name, bound, words", [
    ("microscopy", "ggamma", "lower", (-1.0, 0.1, 0.1), "b, d, k must all be finite and strictly positive"),
    ("microscopy", "ggamma", "lower", (0.0, 0.1, 0.1), "b, d, k must all be finite and strictly positive"),
    ("microscopy", "ggamma", "lower", (np.nan, 0.1, 0.1), "b, d, k must all be finite and strictly positive"),
    ("microscopy", "ggamma", "upper", (50.0, np.inf, 50.0), "b, d, k must all be finite and strictly positive"),
    ("microscopy", "lognorm", "upper", (np.inf, 10.0), "mu must be finite"),
    ("microscopy", "ggamma", "upper", (50.0, 50.0), "upper must have 3 entries"),
    ("ofa", "ggamma", "lower", (0.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), "proportion at 0 or 1"),
    ("ofa", "ggamma", "upper", (1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0), "proportion at 0 or 1"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_outside_the_domain_are_rejected_before_any_transform(data_type, family, name, bound, words):
    # every bound must map to a finite theta: a bound of 0 on a positive
    # parameter once reached a log and meant "unbounded" after a warning
    geom = CoreGeometry(2.5 if data_type == "microscopy" else 6.0)
    data = Dataset(np.array([0.4, 0.9, 1.3, 2.0]), "V" if data_type == "microscopy" else "X")
    model = ModelSpec(family, data_type, geom)
    for call in (initialize, fit):
        with pytest.raises(ValueError, match=f"^{name}") as exc:
            call(data, model, FitConfig(**{name: bound}))
        assert words in str(exc.value)


def test_fines_is_the_shorter_component():
    # a start with the labels swapped reaches the same optimum with eps 0.712
    # and the long component as fines; the result is relabeled: eps -> 1 - eps,
    # the component blocks of theta-hat, cov_theta, the fixed mask and every
    # start's theta0 exchanged
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 2000, seed=21)), "X")
    model = ModelSpec("ggamma", "ofa", geom)
    ref = fit(data, model, FitConfig(n_starts=1))
    swapped_start = (0.7, 2.0, 2.8, 2.2, 0.1, 1.5, 2.0)
    res = fit(data, model, FitConfig(par_start=swapped_start, n_starts=1))
    assert ref.theta_tilde[0] == pytest.approx(0.2879, abs=1e-4)
    assert res.loglik == pytest.approx(ref.loglik, rel=1e-12)
    assert np.allclose(res.theta_tilde, ref.theta_tilde, rtol=1e-5)
    assert np.allclose(res.cov_theta, ref.cov_theta, rtol=1e-4, atol=1e-5 * np.abs(ref.cov_theta).max())
    assert np.allclose(model.from_theta(res.trace[0].theta0), (0.3, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2), rtol=1e-12)
    stats = summary_stats(res)
    assert stats.fines.mean < stats.fibers.mean and stats.eps_tilde == pytest.approx(0.334, abs=1e-3)

    fixed = fit(data, model, FitConfig(par_start=swapped_start, fixed_mask=(False, False, True) + (False,) * 4, n_starts=1))
    assert fixed.theta_hat.fixed_mask == (False,) * 5 + (True, False)
    assert fixed.theta_tilde[5] == 2.8 and fixed.cov_theta[5, 5] == 0.0
    assert fixed.theta_tilde[0] < 0.5


def test_a_start_on_the_relabelled_optimum_is_a_duplicate(monkeypatch):
    # start 1 runs from start 0's optimum with the labels exchanged and ends there: it
    # is a duplicate of start 0; where the fixed values differ between the components,
    # the relabelled points are not points of the fit and no start is their duplicate
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 2000, seed=21)), "X")
    model = ModelSpec("ggamma", "ofa", geom)
    perm, sign = fitting._label_swap(model)
    minimize, ends = fitting._Problem.minimize, []

    def from_the_relabelled_end(self, t0):
        if ends:
            t0 = (sign * self.theta(ends[0])[perm])[self.free]
        out = minimize(self, t0)
        ends.append(out[0])
        return out

    monkeypatch.setattr(fitting._Problem, "minimize", from_the_relabelled_end)
    start = (0.3, 0.1, 1.5, 2.0, 2.0, 2.8, 2.2)
    res = fit(data, model, FitConfig(par_start=start, n_starts=2))
    assert [rec.status for rec in res.trace] == ["success", "duplicate"]
    assert res.trace[1].message.endswith("; in the basin of start 0 with the labels exchanged")
    assert res.trace[1].loglik == pytest.approx(res.trace[0].loglik, abs=1e-8)
    ends.clear()
    res = fit(data, model, FitConfig(par_start=start, fixed_mask=(False, False, True, False, False, True, False), n_starts=2))
    assert "labels exchanged" not in res.trace[1].message


@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_basin_stop_loses_no_optimum(family, monkeypatch):
    # a start that ends on a known optimum inside an earlier one's Hessian ellipsoid
    # is a duplicate and does not compete: its log likelihood must be that optimum's
    geom = CoreGeometry(2.5)
    model = ModelSpec(family, "microscopy", geom)
    duplicates = 0
    for seed in range(10):
        data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=seed)), "V")
        ends = start_ends(monkeypatch)
        # a par_start runs every start, so that the duplicate test runs too
        res = fit(data, model, FitConfig(par_start=_initial(data, model)))
        assert res.trace[0].status == "success" and res.starts_tried == 5
        assert_known_optima(res, ends)
        for rec in res.trace:
            if rec.status == "duplicate":
                duplicates += 1
                basin = int(rec.message.rsplit(" ", 1)[1])
                assert rec.loglik == pytest.approx(res.trace[basin].loglik, abs=1e-6)
        assert res.loglik >= max(rec.loglik for rec in res.trace) - 1e-6
        monkeypatch.undo()
    assert duplicates > 0


def test_fit_json_lists_every_start(tmp_path):
    geom = CoreGeometry(2.5)
    path = tmp_path / "v.txt"
    v = sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7000))
    path.write_text("\n".join(repr(float(x)) for x in v) + "\n")
    out = tmp_path / "fit"
    model = ModelSpec("ggamma", "microscopy", geom)
    # a --par-start runs every start, even after a known optimum
    par_start = ",".join(repr(float(x)) for x in _initial(Dataset(v, "V"), model))
    rc = main(["fit", "--data", str(path), "--data-type", "microscopy", "--model", "ggamma",
               "--r", "2.5", "--starts", "4", "--seed", "0", f"--par-start={par_start}", "--out", str(out)])
    assert rc == 0
    blob = json.loads((out / "fit.json").read_text())
    starts = blob["starts"]
    assert [s["index"] for s in starts] == [0, 1, 2, 3] and blob["starts_tried"] == 4
    for s in starts:
        assert set(s) == {"index", "status", "n_iter", "loglik"}
        assert s["status"] in {"success", "stalled", "error", "duplicate"}
        assert isinstance(s["n_iter"], int) and s["n_iter"] >= 0
    competing = [s["loglik"] for s in starts if s["status"] not in ("duplicate", "error")]
    assert blob["loglik"] == pytest.approx(max(competing), abs=1e-9)


@pytest.mark.parametrize("seed, loglik", [(31, -507.341024947429), (2, -478.29317511098947)])
def test_narrow_fines_start_is_a_known_optimum(seed, loglik, monkeypatch):
    # from this par_start L-BFGS-B ended start 0 near the narrow fines spike (-688.957
    # and -660.103), where the order-2 censored quadrature failed, so the fit reported
    # ``hessian_failed`` without a covariance; Newton steps reach the maximum instead
    geom = CoreGeometry(6.0)
    truth = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
    data = Dataset(sample_x(SimSpec("X", truth, geom, 500, seed=seed)), "X")
    ends = start_ends(monkeypatch)
    result = fit(data, ModelSpec("lognorm", "ofa", geom), FitConfig(par_start=NARROW_FINES, n_starts=1))
    assert [t.status for t in result.trace] == ["success"] and result.convergence == "success"
    assert result.loglik == pytest.approx(loglik, abs=1e-9)
    assert result.se_tilde is not None
    assert_known_optima(result, ends)


def test_failed_order_2_evaluations_make_every_start_an_error(tmp_path, monkeypatch, capsys):
    # every start ends on an order-2 evaluation: where every one fails, every start is
    # an ``error`` and the fit raises FitError, which the CLI maps to exit 3
    def no_order_2(params, data, geom, *, order):
        if order == 2:
            raise EvaluationError("injected order-2 failure")
        return ofa_loglik(params, data, geom, order=order)

    monkeypatch.setattr(fitting, "ofa_loglik", no_order_2)
    geom = CoreGeometry(6.0)
    x = sample_x(SimSpec("X", MIX_SIM, geom, 300, seed=5000))
    model = ModelSpec("lognorm", "ofa", geom)
    with pytest.raises(fitting.FitError) as exc:
        fit(Dataset(x, "X"), model, FitConfig(par_start=NARROW_FINES, n_starts=3))
    assert [(t.status, t.loglik) for t in exc.value.diagnostics] == [("error", -np.inf)] * 3
    assert all(t.message == "Newton start on every point stopped (an order-2 evaluation failed)"
               for t in exc.value.diagnostics)
    path, out = tmp_path / "x.txt", tmp_path / "fit"
    path.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    rc = main(["fit", "--data", str(path), "--model", "lognorm", "--r", "6", "--out", str(out)])
    assert rc == 3 and capsys.readouterr().err.startswith("error: all optimization starts failed")
    assert not out.exists()
