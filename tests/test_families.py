"""Every entry of the family table against the layers that read it."""

import numpy as np
import pytest

from fiberfit import CoreGeometry, MixtureParams, ModelSpec, ParamVector, decode, encode
from fiberfit.densities import FAMILIES

GEOM = CoreGeometry(2.5)


def random_component(family, rng, spread):
    """Original-scale point: log-kind coordinates in e^[-spread, spread], id-kind in [-spread, spread]."""
    fam = FAMILIES[family]
    draws = rng.uniform(-spread, spread, fam.size)
    return fam.params(*(np.exp(x) if kind == "log" else x for kind, x in zip(fam.kinds, draws)))


def random_points(family, seed):
    rng = np.random.default_rng(seed)
    comps = [random_component(family, rng, 2.0) for _ in range(6)]
    mixes = [MixtureParams(rng.uniform(0.01, 0.99), comps[i], comps[i + 1]) for i in range(0, 6, 2)]
    return comps, mixes


def original_vector(params):
    if isinstance(params, MixtureParams):
        return np.array([params.eps, *original_vector(params.fines), *original_vector(params.fibers)])
    return np.array([getattr(params, name) for name in FAMILIES[params.family].names])


@pytest.mark.parametrize("family", list(FAMILIES))
def test_model_spec_transforms_equal_encode_decode(family):
    comps, mixes = random_points(family, 1)
    for data_type, points in (("microscopy", comps), ("ofa", mixes)):
        model = ModelSpec(family, data_type, GEOM)
        for p in points:
            theta = model.to_theta(original_vector(p))
            assert np.array_equal(theta, np.array(encode(p).values))
            back = model.params_from_original(model.from_theta(theta))
            assert back == decode(ParamVector(family, tuple(theta)))
            assert model.param_vector(theta).values == encode(p).values


@pytest.mark.parametrize("family", list(FAMILIES))
def test_parameter_vector_of_wrong_length_is_a_value_error(family):
    # a vector of neither a component's nor a mixture's length once raised TypeError inside the params class
    size = FAMILIES[family].size
    model = ModelSpec(family, "microscopy", GEOM)
    for n in (0, size - 1, size + 1, 2 * size + 2):
        with pytest.raises(ValueError, match=f"{family} parameters need {size} .* or {2 * size + 1} .*got {n}"):
            model.params_from_original(np.ones(n))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_chain_vector_is_the_derivative_of_from_theta(family):
    _, mixes = random_points(family, 2)
    model = ModelSpec(family, "ofa", GEOM)
    h = 1e-6
    for p in mixes:
        theta = model.to_theta(original_vector(p))
        fd = [
            (model.from_theta(theta + h * e)[i] - model.from_theta(theta - h * e)[i]) / (2.0 * h)
            for i, e in enumerate(np.eye(theta.size))
        ]
        assert np.allclose(model.chain_vector(theta), fd, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_standard_form_quantile_inverts_log_cdf(family):
    rng = np.random.default_rng(3)
    log_p = np.log([1e-8, 0.5, 1.0 - 1e-8])
    for _ in range(5):
        _, _, log_cdf, quantile = FAMILIES[family].standard_form(random_component(family, rng, 2.0))
        got = log_cdf(quantile(log_p))
        assert np.allclose(got, log_p, rtol=1e-12, atol=0.0)


def test_generalized_gamma_log_cdf_where_the_gamma_cdf_underflows():
    # the corner m = 10, s = 10, k = 1e-4 of the default (m, s, k) box, unitless, of a
    # microscopy fit at r = 2.5: d = 1e3 and b = 4.9e8 put 2r at s = -18 391, where
    # e^s and so P(k, e^s) underflow; the log CDF read -inf there, the uncut mass 0,
    # and the clamped normalizer a log likelihood of +205 568 on 300 lengths, which a
    # later start of a fit reached.  mpmath at 30 digits: -1.8390562074326711
    _, c, log_cdf, _ = FAMILIES["ggamma"].standard_form(FAMILIES["ggamma"].params(485445201.4299154, 1000.000008223467, 1e-4))
    s = c * (np.log(5.0) - np.log(485445201.4299154))
    assert s < -745.0
    assert log_cdf(np.array([s]))[0] == pytest.approx(-1.8390562074326711, rel=1e-12)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_sampler_mean(family):
    rng = np.random.default_rng(4)
    n = 20_000
    for seed in range(4):
        p = random_component(family, rng, 0.5)
        y = FAMILIES[family].sample(np.random.default_rng(seed), p, n)
        se = y.std(ddof=1) / np.sqrt(n)
        assert abs(y.mean() - p.mean()) < 5.0 * se
