"""A fit does not depend on the length unit or on the order of the data.

Fitting (c x, c r) must give the fit of (x, r) in the new unit: b -> c b,
mu -> mu + log c, every other parameter and the labels unchanged, and a log
likelihood n log c lower (the Jacobian of y -> c y).  The tolerances leave
room for optimizer stopping noise: rescaling changes x / median(x) by an ulp.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberfit import (
    CoreGeometry,
    Dataset,
    FitConfig,
    GgdParams,
    LognParams,
    MixtureParams,
    ModelSpec,
    SimSpec,
    fit,
    sample_v,
    sample_x,
)
from conftest import MIX_SIM

OFA_GEOM, MICRO_GEOM = CoreGeometry(6.0), CoreGeometry(2.5)
LOGN_SIM = MixtureParams(0.3, LognParams(-2.0, 0.5), LognParams(0.9, 0.25))
MICRO_SIM = GgdParams(2.4, 3.3, 1.5)


def ofa_lengths(truth):
    return sample_x(SimSpec("X", truth, OFA_GEOM, 3000, seed=5))


def micro_lengths():
    return sample_v(SimSpec("V", MICRO_SIM, MICRO_GEOM, 300, seed=7))


# name -> (model, lengths)
CASES = {
    "ofa-ggamma": (ModelSpec("ggamma", "ofa", OFA_GEOM), lambda: ofa_lengths(MIX_SIM)),
    "ofa-lognorm": (ModelSpec("lognorm", "ofa", OFA_GEOM), lambda: ofa_lengths(LOGN_SIM)),
    "micro-ggamma": (ModelSpec("ggamma", "microscopy", MICRO_GEOM), micro_lengths),
    "micro-lognorm": (ModelSpec("lognorm", "microscopy", MICRO_GEOM), micro_lengths),
}
CFG = FitConfig(n_starts=2)
UNITS = settings(max_examples=2, deadline=None, derandomize=True, database=None)


def dataset(model, x):
    return Dataset(x, "X" if model.data_type == "ofa" else "V")


@functools.cache
def reference(case):
    model, draw = CASES[case]
    x = draw()
    return model, x, fit(dataset(model, x), model, CFG)


def fit_in_unit(model, x, c):
    rescaled = ModelSpec(model.family, model.data_type, CoreGeometry(c * model.geom.r))
    return fit(dataset(model, c * x), rescaled, CFG)


def length_like(model, tilde):
    """Original-scale estimates with each mu replaced by exp(mu), so that every entry compares relatively."""
    return np.array([np.exp(v) if name.startswith("mu") else v for name, v in zip(model.param_names, tilde)])


@pytest.mark.parametrize("case", list(CASES))
@UNITS
@given(c=st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
@example(c=1e-3)
@example(c=0.1)
@example(c=10.0)
@example(c=1000.0)
def test_fit_follows_a_change_of_unit(case, c):
    model, x, ref = reference(case)
    res = fit_in_unit(model, x, c)
    assert res.convergence == ref.convergence == "success"
    assert res.loglik + res.n * np.log(c) == pytest.approx(ref.loglik, rel=1e-8)
    expected = np.array(
        [
            v * c if name.startswith("b") else v + np.log(c) if name.startswith("mu") else v
            for name, v in zip(model.param_names, ref.theta_tilde)
        ]
    )
    # the same labels: a swap would move eps to 1 - eps and exchange the blocks
    np.testing.assert_allclose(length_like(model, res.theta_tilde), length_like(model, expected), rtol=1e-5)
    np.testing.assert_allclose(res.cov_theta, ref.cov_theta, rtol=1e-3, atol=1e-6 * np.abs(ref.cov_theta).max())


@pytest.mark.parametrize("case", list(CASES))
def test_shuffled_data_give_the_identical_fit(case):
    model, x, ref = reference(case)
    shuffled = np.random.default_rng(0).permutation(x)
    assert not np.array_equal(shuffled, x)
    res = fit(dataset(model, shuffled), model, CFG)
    assert res.loglik == ref.loglik and res.convergence == ref.convergence
    for name in ("theta_tilde", "cov_theta", "cov_tilde", "se_tilde"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name
    assert res.theta_hat == ref.theta_hat
    assert len(res.trace) == len(ref.trace)
    for a, b in zip(res.trace, ref.trace):
        assert np.array_equal(a.theta0, b.theta0)
        assert (a.index, a.loglik, a.status, a.n_iter, a.message) == (b.index, b.loglik, b.status, b.n_iter, b.message)
