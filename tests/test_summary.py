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
    SimSpec,
    density_w_component,
    fit,
    moment_w,
    sample_v,
    sample_x,
    summary_ses,
    summary_stats,
    tree_composition,
)
from fiberfit.summary import component_stat_gradients, tree_stat_gradients
from conftest import MIX_GGD_R6, fd_jacobian, quad_oracle, rel_err

W_TRUTH = {"mean": 2.4536, "sd": 0.6723, "skewness": 0.0375, "kurtosis": 2.7956}


def _stat_vec(p, geom):
    s = component_stat_gradients(p, geom)
    return np.array([s[k][0] for k in ("mean", "sd", "skewness", "kurtosis")])


def test_plug_in_reference_values(geom25):
    s = component_stat_gradients(GgdParams(2.4, 3.3, 1.5), geom25)
    for key, want in W_TRUTH.items():
        assert s[key][0] == pytest.approx(want, abs=1e-3)


def test_skewness_identity_against_raw_moments(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    m = {i: moment_w(i, p, geom25) for i in (1, 2, 3)}
    sd = np.sqrt(m[2] - m[1] ** 2)
    want = (m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3) / sd**3
    s = component_stat_gradients(p, geom25)
    assert s["skewness"][0] == pytest.approx(want, abs=1e-8)


def test_kurtosis_identity_against_central_moment_quadrature(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    s = component_stat_gradients(p, geom25)
    mu, sd = s["mean"][0], s["sd"][0]
    central4 = quad_oracle(lambda w: (w - mu) ** 4 * density_w_component(w, p, geom25), 0.0, 60.0)
    assert s["kurtosis"][0] == pytest.approx(central4 / sd**4, abs=1e-6)


def test_component_gradients_match_fd(geom25):
    rng = np.random.default_rng(40)
    for _ in range(5):
        t = rng.uniform(np.log(0.8), np.log(3.0), 3)
        p = GgdParams(*np.exp(t))
        s = component_stat_gradients(p, geom25)
        an = np.stack([s[k][1] for k in ("mean", "sd", "skewness", "kurtosis")])
        fd = fd_jacobian(lambda tt: _stat_vec(GgdParams(*np.exp(tt)), geom25), t, h=1e-5)
        assert rel_err(an, fd) < 1e-4


def test_lognormal_component_gradients_match_fd(geom6):
    t = np.array([0.9152, np.log(0.2382)])
    p = LognParams(t[0], np.exp(t[1]))
    s = component_stat_gradients(p, geom6)
    an = np.stack([s[k][1] for k in ("mean", "sd", "skewness", "kurtosis")])
    fd = fd_jacobian(lambda tt: _stat_vec(LognParams(tt[0], np.exp(tt[1])), geom6), t, h=1e-5)
    assert rel_err(an, fd) < 1e-4


def test_tree_gradients_match_fd(geom6):
    def unpack(t):
        return MixtureParams(
            1 / (1 + np.exp(-t[0])), GgdParams(*np.exp(t[1:4])), GgdParams(*np.exp(t[4:7]))
        )

    t0 = np.concatenate(
        [[np.log(0.298 / 0.702)], np.log([0.001, 0.2921, 5.2519]), np.log([2.0014, 2.8224, 2.2236])]
    )
    tree = tree_stat_gradients(MIX_GGD_R6, geom6)
    an = np.stack([tree["eps_tilde"][1], tree["mean_w"][1]])

    def vals(t):
        et, ew = tree_composition(unpack(t), geom6)
        return np.array([et, ew])

    fd = fd_jacobian(vals, t0, h=1e-5)
    assert rel_err(an, fd) < 1e-4
    # embedded component stats have zero gradient outside their own block
    assert np.array_equal(tree["fibers"]["mean"][1][:4], np.zeros(4))
    assert np.array_equal(tree["fines"]["mean"][1][0:1], np.zeros(1))
    assert np.array_equal(tree["fines"]["mean"][1][4:], np.zeros(3))


@pytest.fixture(scope="module")
def micro_fit_result():
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7)), "V")
    return fit(data, ModelSpec("ggamma", "microscopy", geom), FitConfig(n_starts=3, seed=1))


@pytest.fixture(scope="module")
def ofa_fit_result():
    geom = CoreGeometry(6.0)
    mix = MixtureParams(0.3, GgdParams(0.1, 1.5, 2.0), GgdParams(2.0, 2.8, 2.2))
    data = Dataset(sample_x(SimSpec("X", mix, geom, 1200, seed=41)), "X")
    return fit(data, ModelSpec("ggamma", "ofa", geom), FitConfig(n_starts=3, seed=2))


def test_summary_microscopy_shape(micro_fit_result):
    s = summary_stats(micro_fit_result)
    assert s.fines is None and s.eps_tilde is None
    assert s.fibers.sd > 0.0 and s.fibers.kurtosis > 0.0
    assert s.fibers.se_mean is not None and s.fibers.se_mean >= 0.0
    assert abs(s.fibers.mean - 2.4536) < 4.0 * s.fibers.se_mean
    assert s.n == 300 and s.convergence == "success"


def test_summary_ofa_shape(ofa_fit_result):
    s = summary_stats(ofa_fit_result)
    assert s.fines is not None
    assert 0.0 <= s.eps_tilde <= 1.0
    # n ~ 1000 pins the tree-scale proportion to a couple of percent
    assert 0.001 < s.se_eps_tilde < 0.1
    assert s.fines.mean < s.fibers.mean
    assert min(s.fines.mean, s.fibers.mean) <= s.mean_w_overall <= max(s.fines.mean, s.fibers.mean)


def test_summary_ses_mapping(ofa_fit_result):
    ses = summary_ses(ofa_fit_result)
    for key in ("fines.mean", "fibers.kurtosis", "eps_tilde", "mean_w"):
        assert key in ses and ses[key] >= 0.0
    s = summary_stats(ofa_fit_result)
    assert ses["fibers.mean"] == pytest.approx(s.fibers.se_mean, rel=1e-12)
    assert ses["eps_tilde"] == pytest.approx(s.se_eps_tilde, rel=1e-12)


def test_fixed_parameter_zeroes_se_contribution():
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7)), "V")
    model = ModelSpec("ggamma", "microscopy", geom)
    res = fit(data, model, FitConfig(par_start=(2.4, 3.3, 1.5), fixed_mask=(True, True, True)))
    s = summary_stats(res)
    # every parameter fixed: plug-in statistics carry zero parametric SE
    assert s.fibers.se_mean == 0.0 and s.fibers.se_kurtosis == 0.0


def test_summary_ses_requires_covariance(micro_fit_result):
    import dataclasses

    broken = dataclasses.replace(micro_fit_result, cov_theta=None)
    with pytest.raises(ValueError):
        summary_ses(broken)
