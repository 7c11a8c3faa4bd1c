import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    GgdParams,
    LognParams,
    MixtureParams,
    ScaleDensity,
    density_v,
    density_w_component,
    density_w_mixture,
    density_x_component,
    density_x_mixture,
    density_y_mixture,
    ggd_pdf,
    mean_w_component,
    moment_w,
    prob_uncut,
    tree_composition,
)
from fiberfit.densities import component_pdf
from fiberfit.quadrature import DEFAULT_CONFIG
from fiberfit.scales import _censored_tail_terms, k_theta
from fiberfit.simulate import SimSpec, sample_x
from conftest import (
    BATTERY,
    MIX_GGD_R6,
    MIX_LOGN_R6,
    MIX_SIM,
    quad_oracle,
    x_density_oracle,
    x_scale_integral_oracle,
)

TRUE_W_MEAN = 2.4536  # tree-scale mean for GgdParams(2.4, 3.3, 1.5), r = 2.5
TRUE_W_SD = 0.6723


def test_mean_w_reference_value(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    assert mean_w_component(p, geom25) == pytest.approx(TRUE_W_MEAN, abs=1e-3)


def test_mean_w_flattens_to_y_mean():
    p = GgdParams(2.0, 2.0, 2.0)
    big = CoreGeometry(1e6)
    ey = quad_oracle(lambda y: y * ggd_pdf(y, p), 0.0, 40.0)
    assert abs(mean_w_component(p, big) - ey) < 1e-3


def test_mean_w_lognormal_bracket(geom6):
    val = mean_w_component(LognParams(0.9152, 0.2382), geom6)
    assert 2.4 < val < 2.7


def test_moment_w_first_matches_mean(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    assert moment_w(1, p, geom25) == pytest.approx(mean_w_component(p, geom25), abs=1e-9)


def test_moment_w_gives_reference_sd(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    m1, m2 = moment_w(1, p, geom25), moment_w(2, p, geom25)
    assert np.sqrt(m2 - m1 * m1) == pytest.approx(TRUE_W_SD, abs=1e-3)


def test_moment_w_validation(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    m4 = moment_w(4, LognParams(-2.0, 0.5), CoreGeometry(6.0))
    assert np.isfinite(m4) and m4 > 0.0
    with pytest.raises(ValueError):
        moment_w(5, p, geom25)
    with pytest.raises(ValueError):
        moment_w(0, p, geom25)


def test_density_w_shape_and_ratio(geom25):
    p = GgdParams(1.8, 2.7, 2.6)
    w = np.linspace(0.1, 6.0, 25)
    fw = density_w_component(w, p, geom25)
    fy = ggd_pdf(w, p)
    ratio = fw / fy
    assert np.all(np.diff(ratio) < 0.0)  # downweights long cells
    assert density_w_component(0.0, p, geom25) == 0.0  # f_Y(0) = 0 here


def test_density_w_normalizes(geom25):
    p = GgdParams(1.8, 2.7, 2.6)
    val = quad_oracle(lambda w: density_w_component(w, p, geom25), 0.0, 50.0)
    assert val == pytest.approx(1.0, abs=1e-7)


def test_density_v_normalization_and_edges(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    val = quad_oracle(lambda v: density_v(v, p, geom25), 1e-12, 5.0 * (1 - 1e-12))
    assert val == pytest.approx(1.0, abs=1e-8)
    assert density_v(5.0 - 1e-9, p, geom25) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(ValueError):
        density_v(5.0, p, geom25)
    with pytest.raises(ValueError):
        density_v(0.0, p, geom25)
    # normalizer cancels in ratios
    r12 = density_v(1.0, p, geom25) / density_v(2.0, p, geom25)
    want = (ggd_pdf(1.0, p) * prob_uncut(1.0, geom25)) / (ggd_pdf(2.0, p) * prob_uncut(2.0, geom25))
    assert r12 == pytest.approx(want, rel=1e-12)


def test_density_x_component_normalizes(geom25):
    p = GgdParams(2.0, 2.0, 2.0)
    val = x_scale_integral_oracle(lambda x: density_x_component(x, p, geom25), 2.5)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_density_x_fines_tail_only(geom6):
    # fines mass lives far below x: only the cut-tail term contributes and
    # it is negligible there
    p = LognParams(-2.0, 0.5)
    assert density_x_component(5.9, p, geom6) < 1e-6


def test_density_x_exceeds_uncut_part(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    x = np.linspace(0.05, 4.95, 40)
    fx = density_x_component(x, p, geom25)
    lower = prob_uncut(x, geom25) * ggd_pdf(x, p)
    assert np.all(fx >= lower - 1e-12)


def test_density_x_domain(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    with pytest.raises(ValueError):
        density_x_component(0.0, p, geom25)
    with pytest.raises(ValueError):
        density_x_component(5.0, p, geom25)


@pytest.mark.parametrize("mix", [MIX_SIM, MIX_LOGN_R6], ids=["ggamma", "lognormal"])
def test_density_x_on_a_sample_matches_oracle(mix, geom6):
    # every sample point is a suffix-integral edge; the grid adds points in
    # the sparse upper end of (0, 2r)
    x = np.concatenate([
        sample_x(SimSpec("X", mix, geom6, 5000, seed=11)),
        np.linspace(0.01, 2.0 * geom6.r - 0.01, 200),
    ])
    got = [density_x_component(x, p, geom6) for p in (mix.fines, mix.fibers)]
    want = [x_density_oracle(x, lambda y, p=p: component_pdf(y, p), geom6.r) for p in (mix.fines, mix.fibers)]
    got.append(density_x_mixture(x, mix, geom6))
    want.append(mix.eps * want[0] + (1.0 - mix.eps) * want[1])
    for g, w in zip(got, want):
        big = w >= 1e-6
        assert np.all(np.abs(g - w)[big] <= 1e-8 * w[big])
        assert np.all(np.abs(g - w) <= 1e-10)
    # a component may underflow to zero (fines near 2r), the mixture may not
    assert np.all(got[0] >= 0.0) and np.all(got[1] >= 0.0) and np.all(got[2] > 0.0)
    xs = np.unique(x)
    for p in (mix.fines, mix.fibers):
        stack_fn = lambda y, p=p: np.atleast_2d(component_pdf(y, p))
        T, S = _censored_tail_terms(xs, p, geom6, DEFAULT_CONFIG, stack_fn, 1)
        assert np.all(np.diff(T[0]) <= 0.0) and np.all(np.diff(S[0]) <= 0.0)


def test_mixture_boundaries(geom6):
    fines, fibers = MIX_GGD_R6.fines, MIX_GGD_R6.fibers
    m0 = MixtureParams(0.0, fines, fibers)
    m1 = MixtureParams(1.0, fines, fibers)
    x = np.array([0.5, 2.0, 4.0])
    assert np.array_equal(density_x_mixture(x, m0, geom6), density_x_component(x, fibers, geom6))
    assert np.array_equal(density_x_mixture(x, m1, geom6), density_x_component(x, fines, geom6))
    assert np.array_equal(density_y_mixture(x, m0), component_pdf(x, fibers))


def test_w_mixture_normalizes_lognormal_fit(geom6):
    val = quad_oracle(lambda w: density_w_mixture(w, MIX_LOGN_R6, geom6), 1e-12, 2000.0,
                      points=[0.05, 0.3, 2.5, 50.0], limit=500)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_tree_composition_reference(geom6):
    eps_t, ew = tree_composition(MIX_GGD_R6, geom6)
    assert eps_t == pytest.approx(0.34, abs=0.005)
    assert 0.0 <= eps_t <= 1.0
    mn = mean_w_component(MIX_GGD_R6.fines, geom6)
    mb = mean_w_component(MIX_GGD_R6.fibers, geom6)
    assert min(mn, mb) <= ew <= max(mn, mb)


def test_tree_composition_boundaries(geom6):
    fines, fibers = MIX_GGD_R6.fines, MIX_GGD_R6.fibers
    et0, ew0 = tree_composition(MixtureParams(0.0, fines, fibers), geom6)
    assert et0 == 0.0
    assert ew0 == pytest.approx(mean_w_component(fibers, geom6), abs=1e-10)
    et1, ew1 = tree_composition(MixtureParams(1.0, fines, fibers), geom6)
    assert abs(et1 - 1.0) < 1e-10
    assert ew1 == pytest.approx(mean_w_component(fines, geom6), abs=1e-10)


def test_tree_composition_equal_means_gives_eps(geom25):
    p = GgdParams(2.0, 2.5, 1.8)
    mix = MixtureParams(0.37, p, p)
    eps_t, _ = tree_composition(mix, geom25)
    assert abs(eps_t - 0.37) < 1e-10


def test_ew_consistency_with_w_mixture_density(geom25):
    # closed-form E(W) equals the first moment of the eps-tilde mixture
    mix = MixtureParams(0.3, GgdParams(0.5, 2.0, 1.5), GgdParams(2.0, 2.8, 2.2))
    eps_t, ew = tree_composition(mix, geom25)
    num = quad_oracle(lambda w: w * density_w_mixture(w, mix, geom25), 0.0, 60.0)
    assert num == pytest.approx(ew, abs=1e-6)


def test_normalization_battery_y_w():
    for p, r in BATTERY:
        geom = CoreGeometry(r)
        pdf = (lambda y, pp=p: component_pdf(y, pp))
        if isinstance(p, GgdParams) and p.d < 1:
            # heavy-shape cases: integrate in the gamma variable
            val = quad_oracle(
                lambda t, pp=p: component_pdf(pp.b * t ** (1 / pp.d), pp) * (pp.b / pp.d) * t ** (1 / pp.d - 1),
                0.0, p.k + 60.0, points=[p.k])
        else:
            val = quad_oracle(pdf, 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-7), f"Y normalization {p}"


def test_k_theta_bounds(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    val = k_theta(p, geom25)
    assert 0.0 < val < 1.0
    ref = quad_oracle(lambda y: ggd_pdf(y, p) * prob_uncut(y, geom25), 0.0, 5.0)
    assert val == pytest.approx(ref, abs=1e-9)


def test_scale_density_dispatch_and_validation(geom25):
    p = GgdParams(2.4, 3.3, 1.5)
    mix = MixtureParams(0.3, GgdParams(0.1, 1.5, 2.0), p)
    assert ScaleDensity("Y", "fibers", p, geom25).pdf(2.5) == ggd_pdf(2.5, p)
    assert ScaleDensity("V", "fibers", p, geom25).pdf(1.0) == density_v(1.0, p, geom25)
    assert ScaleDensity("X", "mixture", mix, geom25).pdf(1.0) == density_x_mixture(1.0, mix, geom25)
    with pytest.raises(ValueError):
        ScaleDensity("V", "fines", p, geom25)
    with pytest.raises(ValueError):
        ScaleDensity("V", "mixture", mix, geom25)
    with pytest.raises(ValueError):
        ScaleDensity("Q", "fibers", p, geom25)
    with pytest.raises(ValueError):
        ScaleDensity("Y", "mixture", p, geom25)
    assert ScaleDensity("X", "fibers", p, geom25).support == (0.0, 5.0)
