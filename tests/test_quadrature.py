import numpy as np
import pytest
from scipy.integrate import quad

from fiberfit import (
    CoreGeometry,
    GgdParams,
    LognParams,
    MixtureParams,
    QuadratureError,
    density_x_component,
    ggd_pdf,
)
from fiberfit.densities import component_pdf
from fiberfit import quadrature, scales
from fiberfit.quadrature import segment_integrals
from fiberfit.simulate import SimSpec, sample_x
from conftest import x_density_oracle


def integral(f, a, b):
    """The integral of f (or of each row of its stack) over (a, b), from 8 starting panels."""
    return segment_integrals(f, np.linspace(a, b, 9)).total()


def test_tolerances():
    assert quadrature._ABS_TOL == 1e-10 and quadrature._REL_TOL == 1e-8
    assert scales._TAIL_CUTOFF == 1e-12 and quadrature._MAX_SUBDIVISIONS == 200


def test_polynomial_exactness():
    # a 15-point Kronrod panel integrates low-degree polynomials exactly
    val = integral(lambda x: 3.0 * x**2, 0.0, 2.0)[0]
    assert val == pytest.approx(8.0, rel=1e-14)


def test_ggd_normalization():
    # (y / b)^d is gamma(k) distributed; beyond y = 20 it exceeds 1 000, a tail below 1e-400
    p = GgdParams(2.4, 3.3, 1.5)
    val = integral(lambda y: ggd_pdf(y, p), 0.0, 20.0)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_inverse_sqrt_endpoint_singularity():
    val = integral(lambda x: 1.0 / np.sqrt(np.clip(4.0 - x * x, 1e-300, None)), 0.0, 2.0)[0]
    assert val == pytest.approx(np.pi / 2.0, abs=2e-8)


def test_oscillatory_against_quadpack():
    f = lambda x: np.cos(7.0 * x) * np.exp(-0.3 * x)
    mine = integral(f, 0.0, 10.0)[0]
    ref = quad(f, 0.0, 10.0, limit=200)[0]
    assert mine == pytest.approx(ref, abs=1e-10)


def test_cut_kernel_total_mass_beyond_diameter():
    # for a true length of 5r the kernel is a proper density on (0, 2r),
    # singular factor at the upper endpoint included; panel nodes are
    # interior so the kernel is evaluated strictly inside its domain
    from fiberfit import CoreGeometry, cut_kernel

    r = 1.0
    geom = CoreGeometry(r)
    val = integral(lambda x: cut_kernel(x, 5.0 * r, geom), 1e-13, 2.0 * r)[0]
    assert val == pytest.approx(1.0, abs=1e-8)


def test_stacked_integrands_share_tree():
    def stack(y):
        return np.stack([np.exp(-y), y * np.exp(-y), y * y * np.exp(-y)])

    # the tail beyond y = 60 holds below 4e-23 of each
    vals = integral(stack, 0.0, 60.0)
    assert vals.shape == (3,)
    assert np.allclose(vals, [1.0, 1.0, 2.0], atol=1e-9)


def test_segment_integrals_sum_matches_whole():
    f = lambda x: np.sin(x) + 1.1
    edges = np.array([0.0, 0.3, 1.4, 2.0, 3.1])
    tree = segment_integrals(f, edges)
    assert tree.suffix().shape == (1, 5)
    whole = quad(lambda x: np.sin(x) + 1.1, 0.0, 3.1)[0]
    assert tree.total().sum() == pytest.approx(whole, abs=1e-10)


def test_segment_edges_validation():
    with pytest.raises(ValueError):
        segment_integrals(lambda x: x, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        segment_integrals(lambda x: x, np.array([1.0]))


def test_max_subdivisions_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
    # a spike the coarse panels cannot resolve within 10 splits
    f = lambda x: 1.0 / np.sqrt(np.clip(np.abs(x - 0.7071), 1e-300, None))
    with pytest.raises(QuadratureError) as err:
        integral(f, 0.0, 1.0)
    assert err.value.error_estimate > 0.0


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
    edges = np.sort(np.random.default_rng(5).uniform(0.0, 40.0, 10_000))
    f, count = _counted(lambda y: np.stack([np.exp(-y), y * np.exp(-y)]))
    suffix = segment_integrals(f, edges).suffix()
    segs = suffix[:, :-1] - suffix[:, 1:]
    assert count[0] <= 15 * 300

    def antiderivative(y):
        return np.stack([-np.exp(-y), -(y + 1.0) * np.exp(-y)])

    a, top = antiderivative(edges[:-1]), antiderivative(edges[-1:])
    exact_segs = antiderivative(edges[1:]) - a
    tol = np.maximum(quadrature._ABS_TOL, quadrature._REL_TOL * np.abs(exact_segs.sum(axis=1)))[:, None]
    assert np.all(np.abs(segs - exact_segs) <= tol)
    assert np.all(np.abs(suffix[:, :-1] - (top - a)) <= tol)


def test_few_edges_keep_one_panel_per_segment():
    # with at most 17 edges every edge starts a panel: 16 panels and 5
    # bisections here, the tree of a one-panel-per-segment layout
    f, count = _counted(lambda y: np.exp(-(((y - 0.3) / 0.01) ** 2)))
    tree = segment_integrals(f, np.linspace(0.0, 1.0, 17))
    assert count[0] == 15 * (16 + 2 * 5)
    assert tree.total()[0] == pytest.approx(np.sqrt(np.pi) * 0.01, rel=1e-12)


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


def test_tree_reports_its_counts():
    # the layout of test_few_edges_keep_one_panel_per_segment: 16 starting
    # panels, 5 bisections, every row within its tolerance
    tree = segment_integrals(lambda y: np.exp(-(((y - 0.3) / 0.01) ** 2)), np.linspace(0.0, 1.0, 17))
    assert (tree.n_initial, tree.n_splits) == (16, 5)
    assert 0.0 < tree.worst_error_ratio <= 1.0


def test_suffix_dot_is_the_weighted_sum_of_suffixes():
    # the adjoint readout (per-panel Chebyshev moments of the weights) equals
    # reading every suffix and summing
    edges = np.sort(np.random.default_rng(6).uniform(0.0, 40.0, 2_000))
    tree = segment_integrals(lambda y: np.stack([np.exp(-y), y * np.exp(-y), np.sin(y) + 1.1]), edges)
    weights = np.random.default_rng(7).normal(size=(2, edges.size))
    direct = weights @ tree.suffix().T
    assert np.allclose(tree.suffix_dot(weights), direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())
