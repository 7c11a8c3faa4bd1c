import numpy as np
import pytest
from scipy.integrate import quad

from fiberfit import CoreGeometry, area_factor, cut_kernel, cut_kernel_cdf, prob_uncut

# closed form at y = r: (2 pi / 3 - sqrt(3) / 2) / (pi + 2), frozen via mpmath
P_UC_AT_R = 0.23890840472380189


def test_core_geometry_validation():
    assert CoreGeometry(2.5).diameter == 5.0
    # r^2 underflows below ~1.5e-154 and 8 r^2 overflows above ~4.7e153
    for bad in (0.0, -1.0, np.inf, np.nan, 1e-300, 1.4e-154, 4.8e153, 1e200):
        with pytest.raises(ValueError):
            CoreGeometry(bad)
    for good in (1.5e-154, 4.7e153):
        assert CoreGeometry(good).r == good


def test_area_factor_values():
    g = CoreGeometry(1.0)
    assert area_factor(0.0, g) == pytest.approx(np.pi)
    g25 = CoreGeometry(2.5)
    assert area_factor(2.5, g25) == pytest.approx(np.pi * 6.25 + 12.5)
    g6 = CoreGeometry(6.0)
    assert area_factor(6.0, g6) == pytest.approx(np.pi * 36.0 + 72.0)
    with pytest.raises(ValueError):
        area_factor(-0.1, g)


def test_prob_uncut_values_and_limits():
    g = CoreGeometry(1.0)
    assert prob_uncut(0.0, g) == 1.0
    assert prob_uncut(2.0, g) == pytest.approx(0.0, abs=1e-14)
    assert prob_uncut(3.0, g) == 0.0
    assert prob_uncut(1.0, g) == pytest.approx(P_UC_AT_R, rel=1e-12)
    # tiny positive y stays at the y -> 0 limit
    assert prob_uncut(1e-12, g) == pytest.approx(1.0, abs=1e-9)


def test_prob_uncut_strictly_decreasing():
    g = CoreGeometry(2.5)
    y = np.linspace(1e-6, 5.0, 1000)
    p = prob_uncut(y, g)
    assert np.all(np.diff(p) < 0.0)
    assert np.all((p >= 0.0) & (p <= 1.0))


def test_prob_uncut_monte_carlo_cross_check():
    # drop random vertical segments of length y over a circle of radius r;
    # condition on intersection, count the fully-inside fraction
    rng = np.random.default_rng(123)
    r, y, n = 1.0, 1.3, 400_000
    u = rng.uniform(-r, r, n)
    v = rng.uniform(-r - y, r, n)
    h = np.sqrt(r * r - u * u)
    intersects = (v < h) & (v + y > -h)
    inside = (v >= -h) & (v + y <= h)
    m = intersects.sum()
    p_hat = inside.sum() / m
    p = prob_uncut(y, CoreGeometry(r))
    se = np.sqrt(p * (1.0 - p) / m)
    assert abs(p_hat - p) < 4.0 * se


def test_cut_kernel_direct_value():
    g = CoreGeometry(1.0)
    expected = 8.0 / ((np.pi + 6.0) * np.sqrt(3.0))
    assert cut_kernel(1.0, 3.0, g) == pytest.approx(expected, rel=1e-14)


def test_cut_kernel_domain_errors():
    g = CoreGeometry(1.0)
    with pytest.raises(ValueError):
        cut_kernel(2.0, 3.0, g)  # x at 2r
    with pytest.raises(ValueError):
        cut_kernel(1.5, 1.0, g)  # x >= y
    with pytest.raises(ValueError):
        cut_kernel(0.0, 1.0, g)


def test_cut_kernel_nonnegative_on_grid():
    g = CoreGeometry(2.5)
    x = np.linspace(1e-3, 5.0 - 1e-3, 60)
    for y in np.linspace(0.1, 20.0, 40):
        mask = x < y
        if mask.any():
            assert np.all(cut_kernel(x[mask], y, g) >= 0.0)


@pytest.mark.parametrize("y_over_r", [0.3, 1.0, 1.7, 2.0])
def test_completeness_inside_diameter(y_over_r):
    # p_uc(y) + integral of the kernel up to y must give total probability 1
    r = 2.5
    g = CoreGeometry(r)
    y = y_over_r * r
    hi = min(y, 2.0 * r)
    val = quad(lambda x: cut_kernel(x, y, g), 1e-12, hi * (1.0 - 1e-12), limit=300)[0]
    assert val + prob_uncut(y, g) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("y_over_r", [2.1, 5.0, 20.0])
def test_completeness_beyond_diameter(y_over_r):
    # for y > 2r the kernel alone carries all the mass; integrate in the
    # phi variable to tame the endpoint factor
    r = 2.5
    g = CoreGeometry(r)
    y = y_over_r * r

    def integrand(phi):
        x = 2.0 * r * np.sin(phi)
        x = min(max(x, 1e-13), 2.0 * r * (1 - 1e-15))
        return cut_kernel(x, y, g) * 2.0 * r * np.cos(phi)

    val = quad(integrand, 0.0, np.pi / 2.0, limit=300)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_cut_kernel_cdf_matches_quadrature():
    g = CoreGeometry(2.5)
    for y in (1.2, 4.0, 9.0):
        for x in (0.4, 1.0, min(y, 5.0) * 0.98):
            num = quad(lambda t: cut_kernel(t, y, g), 1e-12, x, limit=200)[0]
            assert cut_kernel_cdf(x, y, g) == pytest.approx(num, abs=1e-9)


def test_cut_kernel_cdf_saturates_to_cut_probability():
    g = CoreGeometry(2.5)
    for y in (0.8, 3.0, 40.0):
        top = min(y, 5.0)
        assert cut_kernel_cdf(top, y, g) == pytest.approx(1.0 - prob_uncut(y, g), abs=1e-12)


# p_uc at r = 2.5 from the arcsin closed form in mpmath at 40 digits
P_UC_R25 = {
    1e-8: 0.99999999490704183403,
    1e-4: 0.99994907171509041699,
    1e-2: 0.99491997968422130893,
    1.0: 0.59543404390769250472,
    4.999: 1.4937202602564513957e-6,
}


def test_prob_uncut_golden_values():
    g = CoreGeometry(2.5)
    for y, want in P_UC_R25.items():
        # near 2r both the angle and the area term lose digits to the root
        rel = 1e-12 if y > 4.0 else 1e-14
        assert prob_uncut(y, g) == pytest.approx(want, rel=rel, abs=0.0), y
