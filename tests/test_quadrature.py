import numpy as np
import pytest
from scipy.integrate import quad

from fiberfit import (
    CoreGeometry,
    GgdParams,
    LognParams,
    MixtureParams,
    QuadratureConfig,
    QuadratureError,
    density_x_component,
    ggd_pdf,
    integrate,
)
from fiberfit.densities import component_pdf
from fiberfit.quadrature import segment_integrals
from fiberfit.simulate import SimSpec, sample_x
from conftest import x_density_oracle


def test_config_validation():
    cfg = QuadratureConfig()
    assert cfg.abs_tol == 1e-10 and cfg.rel_tol == 1e-8
    assert cfg.tail_cutoff == 1e-12 and cfg.max_subdivisions == 200
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=5)


def test_polynomial_exactness():
    # a 15-point Kronrod panel integrates low-degree polynomials exactly
    val = integrate(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert val == pytest.approx(8.0, rel=1e-14)


def test_ggd_normalization():
    p = GgdParams(2.4, 3.3, 1.5)
    val = integrate(lambda y: ggd_pdf(y, p), 0.0, np.inf, tail_start=3.0)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_inverse_sqrt_endpoint_singularity():
    val = integrate(lambda x: 1.0 / np.sqrt(np.clip(4.0 - x * x, 1e-300, None)), 0.0, 2.0)
    assert val == pytest.approx(np.pi / 2.0, abs=2e-8)


def test_oscillatory_against_quadpack():
    f = lambda x: np.cos(7.0 * x) * np.exp(-0.3 * x)
    mine = integrate(f, 0.0, 10.0)
    ref = quad(f, 0.0, 10.0, limit=200)[0]
    assert mine == pytest.approx(ref, abs=1e-10)


def test_cut_kernel_total_mass_beyond_diameter():
    # for a true length of 5r the kernel is a proper density on (0, 2r),
    # singular factor at the upper endpoint included; panel nodes are
    # interior so the kernel is evaluated strictly inside its domain
    from fiberfit import CoreGeometry, cut_kernel

    r = 1.0
    geom = CoreGeometry(r)
    val = integrate(lambda x: cut_kernel(x, 5.0 * r, geom), 1e-13, 2.0 * r)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_stacked_integrands_share_tree():
    def stack(y):
        return np.stack([np.exp(-y), y * np.exp(-y), y * y * np.exp(-y)])

    vals = integrate(stack, 0.0, np.inf, tail_start=1.0)
    assert vals.shape == (3,)
    assert np.allclose(vals, [1.0, 1.0, 2.0], atol=1e-9)


def test_segment_integrals_sum_matches_whole():
    f = lambda x: np.sin(x) + 1.1
    edges = np.array([0.0, 0.3, 1.4, 2.0, 3.1])
    segs = segment_integrals(f, edges)
    assert segs.shape == (1, 4)
    whole = quad(lambda x: np.sin(x) + 1.1, 0.0, 3.1)[0]
    assert segs.sum() == pytest.approx(whole, abs=1e-10)


def test_segment_edges_validation():
    with pytest.raises(ValueError):
        segment_integrals(lambda x: x, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        segment_integrals(lambda x: x, np.array([1.0]))


def test_max_subdivisions_raises_with_estimate():
    cfg = QuadratureConfig(max_subdivisions=10)
    # a spike the coarse panels cannot resolve within 10 splits
    f = lambda x: 1.0 / np.sqrt(np.clip(np.abs(x - 0.7071), 1e-300, None))
    with pytest.raises(QuadratureError) as err:
        integrate(f, 0.0, 1.0, cfg)
    assert err.value.error_estimate > 0.0


def test_bad_limits():
    with pytest.raises(ValueError):
        integrate(lambda x: x, np.inf, 1.0)
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 0.0)


def _counted(f):
    """f, plus a list whose first entry counts the points f is evaluated at."""
    count = [0]

    def wrapped(y):
        count[0] += np.size(y)
        return f(y)

    return wrapped, count


def test_many_edges_read_off_a_coarse_tree():
    # one panel per segment would evaluate 15 * 9 999 points; edges inside a
    # panel are read off its interpolant instead
    cfg = QuadratureConfig()
    edges = np.sort(np.random.default_rng(5).uniform(0.0, 40.0, 10_000))
    f, count = _counted(lambda y: np.stack([np.exp(-y), y * np.exp(-y)]))
    segs = segment_integrals(f, edges, cfg)
    assert count[0] <= 15 * 300

    def antiderivative(y):
        return np.stack([-np.exp(-y), -(y + 1.0) * np.exp(-y)])

    a, top = antiderivative(edges[:-1]), antiderivative(edges[-1:])
    exact_segs = antiderivative(edges[1:]) - a
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(exact_segs.sum(axis=1)))[:, None]
    assert np.all(np.abs(segs - exact_segs) <= tol)
    suffix = np.cumsum(segs[:, ::-1], axis=1)[:, ::-1]
    assert np.all(np.abs(suffix - (top - a)) <= tol)


def test_few_edges_keep_one_panel_per_segment():
    # with at most 17 edges every edge starts a panel: 16 panels and 5
    # bisections here, the tree of a one-panel-per-segment layout
    f, count = _counted(lambda y: np.exp(-(((y - 0.3) / 0.01) ** 2)))
    segs = segment_integrals(f, np.linspace(0.0, 1.0, 17))
    assert count[0] == 15 * (16 + 2 * 5)
    assert segs.sum() == pytest.approx(np.sqrt(np.pi) * 0.01, rel=1e-12)


@pytest.mark.parametrize(
    "p",
    [
        LognParams(0.0, 2.0),
        LognParams(0.0, 3.0),
        LognParams(0.0, 4.0),
        GgdParams(0.5, 0.3, 1.0),
        GgdParams(0.01, 0.2, 20.0),
    ],
    ids=["logn_sigma2", "logn_sigma3", "logn_sigma4", "ggamma_d0.3", "ggamma_d0.2"],
)
def test_heavy_tail_suffix_on_a_sample(p):
    geom = CoreGeometry(6.0)
    x = sample_x(SimSpec("X", MixtureParams(0.0, p, p), geom, 5000, seed=2))
    got = density_x_component(x, p, geom)
    want = x_density_oracle(x, lambda y: component_pdf(y, p), geom.r)
    big = want >= 1e-6
    assert np.all(np.abs(got - want)[big] <= 1e-8 * want[big])
