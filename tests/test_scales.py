import warnings

import numpy as np
import pytest
from scipy.special import gammainc, gammaln, ndtr

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
    QuadratureError,
)
from fiberfit.densities import component_pdf
from fiberfit.quadrature import _ABS_TOL, _REL_TOL, segment_integrals
from fiberfit.scales import _BLOCK, _CensoredStacks, _uncut_mass_stack, k_theta
from fiberfit.simulate import SimSpec, sample_x
from fiberfit.summary import component_stat_gradients
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


def test_mean_w_heavy_tail_shares_the_summary_integral(geom25):
    # d = 0.0786 spreads the mass over hundreds of decades of y; the reference
    # comes from mpmath, integrating f_Y / (pi r + 2 y) in s = log u,
    # u = (y / b)^d ~ gamma(k)
    p = GgdParams(3.62, 0.0786, 5.73)
    mean = mean_w_component(p, geom25)
    assert mean == pytest.approx(3038.10492704816, rel=1e-8)
    assert mean == component_stat_gradients(p, geom25)["mean"][0]


# E(W) and E(W^m), m = 1..4, at r = 2.5: mpmath at 25 digits, J[m] = int
# y^m f_Y / (pi r + 2 y) dy integrated in s = log u, u = (y / b)^d ~ gamma(k)
W_MOMENTS_MPMATH = {
    # f_Y ~ y^(dk - 1) is nearly singular at y = 0
    GgdParams(0.5, 0.3, 0.2): (0.096531293874951278, 1.1320786469756428, 118.62028310700819, 62034.004888978999),
    # d = 0.0786: the mass spreads over hundreds of decades of y
    GgdParams(3.62, 0.0786, 5.73): (
        3038.1049270481559, 1.8884402080992996e17, 2.5270193669663294e35, 7.7843129021002416e55
    ),
}


@pytest.mark.parametrize("p", list(W_MOMENTS_MPMATH), ids=str)
def test_w_moments_of_heavy_shapes_match_mpmath(p, geom25):
    mean, *higher = W_MOMENTS_MPMATH[p]
    assert mean_w_component(p, geom25) == pytest.approx(mean, rel=1e-8)
    assert moment_w(1, p, geom25) == pytest.approx(mean, rel=1e-8)
    for m, want in enumerate(higher, start=2):
        assert moment_w(m, p, geom25) == pytest.approx(want, rel=1e-8)


def test_overflowing_w_moment_raises_typed_error(geom25):
    # E(Y) = b Gamma(k + 1/d) / Gamma(k) is near e^80000, E(W) is near 7e16
    p = GgdParams(50.0, 1e-4, 18.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(mean_w_component(p, geom25))
        assert np.isfinite(moment_w(1, p, geom25))
        with pytest.raises(QuadratureError, match="overflow"):
            moment_w(2, p, geom25)
        with pytest.raises(QuadratureError, match="overflow"):
            component_stat_gradients(p, geom25)


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


@pytest.mark.parametrize("r, v", [(1e-60, 5e-61), (1.5e-154, 1e-154)])
def test_density_v_with_no_uncut_mass_raises(r, v):
    # F(2r) of these fibers is about (2r / b)^(dk) ~ 1e-420 or less: k_theta underflows to 0,
    # and the density once came out nan
    with pytest.raises(QuadratureError, match="k_theta"):
        density_v(v, GgdParams(1.8, 2.7, 2.6), CoreGeometry(r))


def test_density_x_component_normalizes(geom25):
    p = GgdParams(2.0, 2.0, 2.0)
    val = x_scale_integral_oracle(lambda x: density_x_component(x, p, geom25), 2.5)
    assert val == pytest.approx(1.0, abs=1e-6)


def _x_mass(p, r, x_lo=1e-9):
    """int_0^2r f_X for one component: 16-point Gauss-Legendre panels in
    log x on (x_lo, r) and in phi = arcsin(x / 2r) on (r, 2r), where the
    endpoint factor cancels, plus F_Y(x_lo) for the mass below x_lo (the cut
    mass there is below 4 x_lo / (pi r))."""
    nodes, weights = np.polynomial.legendre.leggauss(16)

    def panels(lo, hi, n):
        e = np.linspace(lo, hi, n + 1)
        mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * np.diff(e)
        return (mid[:, None] + half[:, None] * nodes).ravel(), (half[:, None] * weights).ravel()

    t, wt = panels(np.log(x_lo), np.log(r), 64)
    phi, wp = panels(np.pi / 6.0, np.pi / 2.0, 32)
    x = np.concatenate([np.exp(t), 2.0 * r * np.sin(phi)])
    jac = np.concatenate([wt * np.exp(t), wp * 2.0 * r * np.cos(phi)])
    if isinstance(p, GgdParams):
        below = gammainc(p.k, (x_lo / p.b) ** p.d)
    else:
        below = ndtr((np.log(x_lo) - p.mu) / p.sigma)
    return density_x_component(x, p, CoreGeometry(r)) @ jac + below


@pytest.mark.parametrize("p, r", [(GgdParams(3.62, 0.0786, 5.73), 2.5), *BATTERY], ids=str)
def test_censored_mass_is_one(p, r):
    # the censored part of f_X reaches y = inf: at d = 0.0786 the survival
    # past 1e15 mm is 0.0053, so no truncation of y may drop it
    assert _x_mass(p, r) == pytest.approx(1.0, abs=1e-8)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_x_rejects_a_nonfinite_length(geom25, bad):
    # one NaN once became a quadrature edge and turned every point's density into NaN
    p = GgdParams(1.8, 2.7, 2.6)
    mix = MixtureParams(0.3, GgdParams(0.1, 1.5, 2.0), p)
    with pytest.raises(ValueError, match="finite"):
        density_x_component([bad, 1.0], p, geom25)
    with pytest.raises(ValueError, match="finite"):
        density_x_mixture([bad, 1.0], mix, geom25)
    with pytest.raises(ValueError, match="finite"):
        ScaleDensity("X", "fibers", p, geom25).pdf([bad, 1.0])
    assert density_x_component([1.0], p, geom25)[0] == pytest.approx(0.332, abs=1e-3)


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
    for parts in ([mix.fines], [mix.fibers], [mix.fines, mix.fibers]):
        T, S = _CensoredStacks(xs, parts, geom6, 0).suffix(1)
        assert np.all(np.diff(T[:, 0]) <= 0.0) and np.all(np.diff(S[:, 0]) <= 0.0)


def test_density_x_across_blocks_matches_oracle(geom6):
    # 2 B + 1 points: the streamed pass reads three blocks, top block first,
    # carrying the clamp of the value rows across the block boundaries
    x = sample_x(SimSpec("X", MIX_SIM, geom6, 2 * _BLOCK + 1, seed=43))
    want = [x_density_oracle(x, lambda y, p=p: component_pdf(y, p), geom6.r) for p in (MIX_SIM.fines, MIX_SIM.fibers)]
    got = [density_x_component(x, p, geom6) for p in (MIX_SIM.fines, MIX_SIM.fibers)]
    got.append(density_x_mixture(x, MIX_SIM, geom6))
    want.append(MIX_SIM.eps * want[0] + (1.0 - MIX_SIM.eps) * want[1])
    for g, w in zip(got, want):
        big = w >= 1e-6
        assert np.all(np.abs(g - w)[big] <= 1e-8 * w[big])
        assert np.all(np.abs(g - w) <= 1e-10)


def test_value_rows_read_in_blocks_equal_the_whole_range(geom6):
    # top block first, each block's clamp starts from the largest value rows
    # above it, so reading block by block gives the whole-range clamp (to
    # within an ulp of each row's size: a block's readout products sum in
    # another order)
    x = np.unique(sample_x(SimSpec("X", MIX_SIM, geom6, 2 * _BLOCK + 1, seed=43)))
    stacks = _CensoredStacks(x, [MIX_SIM.fines, MIX_SIM.fibers], geom6, 1)
    top, blocks = np.zeros((2, 2, 1)), []
    for start in range(2 * _BLOCK, -1, -_BLOCK):
        blocks.insert(0, stacks.suffix(2, start, min(start + _BLOCK, x.size), top))
    for got, want in zip((np.concatenate(b, axis=-1) for b in zip(*blocks)), stacks.suffix(2)):
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want).max(axis=-1, keepdims=True)))
        assert np.all(np.diff(got[:, 0], axis=-1) <= 0.0) and np.all(got[:, 0] >= 0.0)
    assert np.array_equal(top[:, :, 0], np.stack([blocks[0][0][:, 0, 0], blocks[0][1][:, 0, 0]], axis=1))
    # a carried maximum above a block's readout raises its value rows, and only those
    top = np.full((2, 2, 1), 1e6)
    (Tb, Sb), (T, S) = stacks.suffix(2, 0, 10, top), stacks.suffix(2, 0, 10)
    assert np.all(Tb[:, 0] == 1e6) and np.all(Sb[:, 0] == 1e6) and np.all(T[:, 0] < 1.0)
    assert np.array_equal(Tb[:, 1], T[:, 1]) and np.array_equal(Sb[:, 1], S[:, 1])


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


def _uncut_mass_oracle(p, r):
    """int_0^2r f_Y p_uc by scipy quad, in log u = log (y/b)^d for the
    generalized gamma (u is gamma(k) distributed) or z = (log y - mu) / sigma
    for the lognormal.  Breakpoints: the mode, and where y = r/64, r/8, r,
    between which p_uc changes; the tails are QUADPACK's infinite range."""
    geom = CoreGeometry(r)
    if isinstance(p, GgdParams):
        top, mode = p.d * np.log(2.0 * r / p.b), np.log(p.k)
        dens = lambda s: np.exp(p.k * s - np.exp(s) - gammaln(p.k))
        y_of, var_of = (lambda s: p.b * np.exp(s / p.d)), (lambda y: p.d * np.log(y / p.b))
    else:
        top, mode = (np.log(2.0 * r) - p.mu) / p.sigma, 0.0
        dens = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        y_of, var_of = (lambda z: np.exp(p.mu + p.sigma * z)), (lambda y: (np.log(y) - p.mu) / p.sigma)
    g = lambda s: dens(s) * prob_uncut(min(y_of(s), 2.0 * r), geom)
    inner = [mode] + [var_of(r * f) for f in (1.0 / 64.0, 1.0 / 8.0, 1.0)]
    cuts = [-np.inf] + sorted(c for c in inner if c < top) + [top]
    return sum(quad_oracle(g, a, b, epsabs=0.0, epsrel=1e-12, limit=1000) for a, b in zip(cuts[:-1], cuts[1:]))


def _w_mass_oracle(p, r):
    """J0 = int f_Y / (pi r + 2 y), so that E(W) = 1 / (2 J0) - pi r / 2, by
    scipy quad in the same variable as :func:`_uncut_mass_oracle`, over the
    whole line.  Breakpoints: the mode, and where y = r/64, r/8, r, 8r, 64r,
    around the knee of the weight."""
    if isinstance(p, GgdParams):
        mode = np.log(p.k)
        dens = lambda s: np.exp(p.k * s - np.exp(min(s, 700.0)) - gammaln(p.k))
        ly_of, var_of = (lambda s: np.log(p.b) + s / p.d), (lambda y: p.d * np.log(y / p.b))
    else:
        mode = 0.0
        dens = lambda z: np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        ly_of, var_of = (lambda z: p.mu + p.sigma * z), (lambda y: (np.log(y) - p.mu) / p.sigma)
    g = lambda s: dens(s) * np.exp(-np.logaddexp(np.log(np.pi * r), np.log(2.0) + ly_of(s)))
    cuts = [-np.inf] + sorted({mode} | {var_of(r * f) for f in (1 / 64, 1 / 8, 1.0, 8.0, 64.0)}) + [np.inf]
    return sum(quad_oracle(g, a, b, epsabs=0.0, epsrel=1e-12, limit=1000) for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize(
    "p",
    [
        GgdParams(2.4, 3.3, 1.5),
        GgdParams(1e-4, 1e-4, 1e-4),
        GgdParams(50.0, 50.0, 1e-4),
        GgdParams(0.5, 0.3, 0.2),
        GgdParams(3.62, 0.0786, 5.73),
        GgdParams(50.0, 1e-4, 18.0),
        GgdParams(1e-4, 50.0, 50.0),
        GgdParams(50.0, 1.0, 1.0),
        LognParams(10.0, 10.0),
        LognParams(-10.0, 10.0),
        LognParams(0.8, 0.3),
    ],
    ids=str,
)
def test_uncut_mass_matches_oracle(p, geom25):
    # box corners, heavy tails and a normalizer far below abs_tol (6e-17 at
    # (50, 1e-4, 18)): k_theta is resolved relative to itself
    want = _uncut_mass_oracle(p, geom25.r)
    assert abs(k_theta(p, geom25) - want) <= 1e-8 * want
    # the value row of the stack the microscopy objective integrates
    got = _uncut_mass_stack(p, geom25, 1, segment_integrals)[0]
    assert abs(got - want) <= 1e-8 * want
    # E(W) from the same log-length integrator, up to its closed-form upper
    # limit: J0 = 1 / (pi r + 2 E(W)) is finite, and within the quadrature
    # contract max(abs_tol, rel_tol J0) of the oracle
    j0, want = 0.5 / (mean_w_component(p, geom25) + 0.5 * np.pi * geom25.r), _w_mass_oracle(p, geom25.r)
    assert abs(j0 - want) <= max(_ABS_TOL, _REL_TOL * want)


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
