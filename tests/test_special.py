import numpy as np
import pytest
from scipy.special import polygamma

from fiberfit import digamma, log_gamma, trigamma

# reference values computed with mpmath at 40 digits
LGAMMA_26 = 0.35741186354897977  # log(1.4296245588603044)
DIGAMMA_1 = -0.57721566490153286
DIGAMMA_05 = -1.9635100260214235
TRIGAMMA_10 = 0.10516633568168575


def test_log_gamma_known_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert log_gamma(2.6) == pytest.approx(LGAMMA_26, rel=1e-13)


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(DIGAMMA_1, rel=1e-12)
    assert digamma(2.0) == pytest.approx(DIGAMMA_1 + 1.0, rel=1e-12)
    assert digamma(0.5) == pytest.approx(DIGAMMA_05, rel=1e-12)


def test_trigamma_known_values():
    assert trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, rel=1e-12)
    assert trigamma(2.0) == pytest.approx(np.pi**2 / 6.0 - 1.0, rel=1e-12)
    assert trigamma(10.0) == pytest.approx(TRIGAMMA_10, rel=1e-10)


@pytest.mark.parametrize("fn", [log_gamma, digamma, trigamma])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_domain_errors(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


def test_recurrences_hold():
    # compare to 1e-10 relative to the largest term entering the recurrence,
    # since e.g. trigamma(1e-3) - 1/(1e-3)^2 cancels twelve digits
    rng = np.random.default_rng(1)
    k = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 1000))

    def check(lhs, rhs, scale):
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * np.maximum(scale, 1.0))

    check(log_gamma(k + 1.0), log_gamma(k) + np.log(k), np.abs(log_gamma(k)) + np.abs(np.log(k)))
    check(digamma(k + 1.0), digamma(k) + 1.0 / k, np.abs(digamma(k)) + 1.0 / k)
    check(trigamma(k + 1.0), trigamma(k) - 1.0 / k**2, trigamma(k) + 1.0 / k**2)


def test_derivative_chain_by_finite_differences():
    rng = np.random.default_rng(2)
    k = np.exp(rng.uniform(np.log(0.05), np.log(50.0), 200))
    h = 1e-6 * k
    psi_fd = (log_gamma(k + h) - log_gamma(k - h)) / (2.0 * h)
    assert np.abs((digamma(k) - psi_fd) / psi_fd).max() < 1e-5
    psi1_fd = (digamma(k + h) - digamma(k - h)) / (2.0 * h)
    assert np.abs((trigamma(k) - psi1_fd) / psi1_fd).max() < 1e-5


def test_array_input_round_trip():
    arr = np.array([0.5, 1.0, 7.5])
    out = log_gamma(arr)
    assert isinstance(out, np.ndarray) and out.shape == arr.shape
    assert isinstance(log_gamma(3.0), float)


def test_trigamma_equals_polygamma_bit_for_bit():
    k = np.concatenate([np.geomspace(1e-6, 1e6, 241), np.linspace(0.05, 60.0, 240), [1.0, 2.0, 0.5, 1e-300]])
    assert np.array_equal(trigamma(k), polygamma(1, k))
    assert all(trigamma(float(v)) == float(polygamma(1, v)) for v in k[::16])
