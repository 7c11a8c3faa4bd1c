import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    Dataset,
    DataValidationError,
    EvaluationError,
    GgdParams,
    LognParams,
    MixtureParams,
    density_v,
    density_x_component,
    ggd_pdf,
    init_loglik,
    micro_loglik,
    ofa_loglik,
)
from fiberfit import scales
from fiberfit.densities import _n_coords, _packed_to_full, _stack_rows
from fiberfit.geometry import prob_uncut
from fiberfit.likelihood import _exact_sum, _weighted_fsum
from fiberfit.scales import _BLOCK
from fiberfit.simulate import SimSpec, sample_x
from conftest import MIX_SIM, fd_gradient, fd_jacobian, rel_err


def _unpack_ggd(t):
    return MixtureParams(
        1.0 / (1.0 + np.exp(-t[0])), GgdParams(*np.exp(t[1:4])), GgdParams(*np.exp(t[4:7]))
    )


def _unpack_logn(t):
    return MixtureParams(
        1.0 / (1.0 + np.exp(-t[0])), LognParams(t[1], np.exp(t[2])), LognParams(t[3], np.exp(t[4]))
    )


def _theta_of(mix):
    if isinstance(mix.fines, GgdParams):
        return np.concatenate(
            [
                [np.log(mix.eps / (1 - mix.eps))],
                np.log([mix.fines.b, mix.fines.d, mix.fines.k]),
                np.log([mix.fibers.b, mix.fibers.d, mix.fibers.k]),
            ]
        )
    return np.array(
        [
            np.log(mix.eps / (1 - mix.eps)),
            mix.fines.mu, np.log(mix.fines.sigma),
            mix.fibers.mu, np.log(mix.fibers.sigma),
        ]
    )


@pytest.fixture(scope="module")
def ofa_data():
    rng = np.random.default_rng(10)
    x = np.concatenate(
        [0.1 * rng.gamma(2.0, 1.0, 20) ** (1 / 1.5), 2.0 * rng.gamma(2.2, 1.0, 30) ** (1 / 2.8)]
    )
    return Dataset(np.clip(x, 1e-3, 11.9), "X")


@pytest.fixture(scope="module")
def blocks_data():
    # exact samples of the benchmark mixture around one and two blocks, and
    # a tied sample with more distinct values than one block holds
    geom = CoreGeometry(6.0)
    out = {n: Dataset(sample_x(SimSpec("X", MIX_SIM, geom, n, seed=40 + i)), "X")
           for i, n in enumerate((_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1))}
    tied = Dataset(np.clip(np.round(sample_x(SimSpec("X", MIX_SIM, geom, 3 * _BLOCK, seed=44)), 4), 1e-4, 11.9999), "X")
    assert _BLOCK < tied.unique.size < tied.n
    out["tied"] = tied
    assert all(d.unique.size == n for n, d in out.items() if n != "tied")
    return out


@pytest.fixture(scope="module")
def micro_data():
    rng = np.random.default_rng(11)
    v = 2.4 * rng.gamma(1.5, 1.0, 200) ** (1 / 3.3)
    return Dataset(v[(v > 0.05) & (v < 4.9)][:30], "V")


@pytest.fixture(scope="module")
def tied_ofa_data():
    # OFA lengths at the analyzer's 0.01 mm resolution, in sampling order
    rng = np.random.default_rng(15)
    x = np.concatenate(
        [0.1 * rng.gamma(2.0, 1.0, 30) ** (1 / 1.5), 2.0 * rng.gamma(2.2, 1.0, 50) ** (1 / 2.8)]
    )
    x = np.clip(np.round(rng.permutation(x), 2), 0.01, 11.99)
    assert np.unique(x).size < x.size
    return Dataset(x, "X")


@pytest.fixture(scope="module")
def tied_micro_data():
    rng = np.random.default_rng(16)
    v = 2.4 * rng.gamma(1.5, 1.0, 300) ** (1 / 3.3)
    v = np.round(v[(v > 0.05) & (v < 4.9)][:200], 2)
    assert np.unique(v).size < v.size
    return Dataset(v, "V")


def test_dataset_validation():
    with pytest.raises(DataValidationError) as err:
        Dataset(np.array([1.0, -2.0, 0.0]), "X")
    assert err.value.indices == [1, 2]
    with pytest.raises(ValueError):
        Dataset(np.array([]), "X")
    with pytest.raises(ValueError):
        Dataset(np.array([1.0]), "Z")
    d = Dataset(np.array([1.0, 4.0, 13.0]), "X")
    with pytest.raises(DataValidationError) as err:
        d.validate_support(CoreGeometry(6.0))
    assert err.value.indices == [2]


def test_ofa_requires_matching_inputs(geom6, ofa_data):
    with pytest.raises(TypeError):
        ofa_loglik(GgdParams(2, 2, 2), ofa_data, geom6)
    with pytest.raises(ValueError):
        ofa_loglik(MIX_SIM, Dataset(ofa_data.values, "V"), geom6)


def test_ofa_eps_zero_reduces_to_fibers(geom6, ofa_data, tied_ofa_data):
    for data in (ofa_data, tied_ofa_data):
        mix = MixtureParams(0.0, MIX_SIM.fines, MIX_SIM.fibers)
        full = ofa_loglik(mix, data, geom6)
        direct = math.fsum(np.log(density_x_component(data.values, mix.fibers, geom6)).tolist())
        assert full.loglik == direct
        mix1 = MixtureParams(1.0, MIX_SIM.fines, MIX_SIM.fibers)
        only_fines = ofa_loglik(mix1, data, geom6)
        direct1 = math.fsum(np.log(density_x_component(data.values, mix1.fines, geom6)).tolist())
        assert only_fines.loglik == direct1


def test_ofa_gradient_matches_fd(geom6, ofa_data):
    t0 = _theta_of(MIX_SIM)
    ev = ofa_loglik(MIX_SIM, ofa_data, geom6, order=1)
    fd = fd_gradient(lambda t: ofa_loglik(_unpack_ggd(t), ofa_data, geom6).loglik, t0, h=1e-5)
    assert rel_err(ev.gradient, fd) < 1e-4


def test_ofa_hessian_matches_fd(geom6, ofa_data):
    t0 = _theta_of(MIX_SIM)
    ev = ofa_loglik(MIX_SIM, ofa_data, geom6, order=2)
    assert np.array_equal(ev.hessian, ev.hessian.T)
    fd = fd_jacobian(
        lambda t: ofa_loglik(_unpack_ggd(t), ofa_data, geom6, order=1).gradient, t0, h=1e-4
    )
    assert rel_err(ev.hessian, fd) < 1e-3


def test_ofa_lognormal_derivatives(geom6, ofa_data):
    mix = MixtureParams(0.35, LognParams(-1.5, 0.8), LognParams(0.9, 0.25))
    t0 = _theta_of(mix)
    ev = ofa_loglik(mix, ofa_data, geom6, order=2)
    fd = fd_gradient(lambda t: ofa_loglik(_unpack_logn(t), ofa_data, geom6).loglik, t0, h=1e-5)
    assert rel_err(ev.gradient, fd) < 1e-4
    fd2 = fd_jacobian(
        lambda t: ofa_loglik(_unpack_logn(t), ofa_data, geom6, order=1).gradient, t0, h=1e-4
    )
    assert rel_err(ev.hessian, fd2) < 1e-3


def test_init_collapses_for_identical_components(ofa_data):
    p = GgdParams(1.1, 2.0, 2.4)
    mix = MixtureParams(0.5, p, p)
    ev = init_loglik(mix, ofa_data)
    direct = math.fsum(np.log(ggd_pdf(ofa_data.values, p)).tolist())
    assert ev.loglik == pytest.approx(direct, abs=1e-10)
    assert np.isfinite(ev.loglik)


def test_init_gradient_matches_fd_tightly(ofa_data):
    t0 = _theta_of(MIX_SIM)
    ev = init_loglik(MIX_SIM, ofa_data, order=2)
    fd = fd_gradient(lambda t: init_loglik(_unpack_ggd(t), ofa_data).loglik, t0, h=1e-6)
    assert rel_err(ev.gradient, fd) < 1e-6
    fd2 = fd_jacobian(lambda t: init_loglik(_unpack_ggd(t), ofa_data, order=1).gradient, t0, h=1e-4)
    assert rel_err(ev.hessian, fd2) < 1e-4


def test_init_single_component(micro_data):
    p = GgdParams(2.4, 3.3, 1.5)
    ev = init_loglik(p, micro_data, order=1)
    direct = math.fsum(np.log(ggd_pdf(micro_data.values, p)).tolist())
    assert ev.loglik == pytest.approx(direct, abs=1e-10)
    t0 = np.log([2.4, 3.3, 1.5])
    fd = fd_gradient(lambda t: init_loglik(GgdParams(*np.exp(t)), micro_data).loglik, t0, h=1e-6)
    assert rel_err(ev.gradient, fd) < 1e-6


def test_micro_equals_sum_log_fv(geom25, micro_data):
    p = GgdParams(2.4, 3.3, 1.5)
    ev = micro_loglik(p, micro_data, geom25)
    direct = math.fsum(np.log(density_v(micro_data.values, p, geom25)).tolist())
    assert ev.loglik == pytest.approx(direct, abs=1e-9)


def test_micro_gradient_and_hessian_fd(geom25, micro_data):
    p = GgdParams(2.4, 3.3, 1.5)
    t0 = np.log([2.4, 3.3, 1.5])
    ev = micro_loglik(p, micro_data, geom25, order=2)
    fd = fd_gradient(
        lambda t: micro_loglik(GgdParams(*np.exp(t)), micro_data, geom25).loglik, t0, h=1e-5
    )
    assert rel_err(ev.gradient, fd) < 1e-4
    fd2 = fd_jacobian(
        lambda t: micro_loglik(GgdParams(*np.exp(t)), micro_data, geom25, order=1).gradient,
        t0, h=1e-4,
    )
    assert rel_err(ev.hessian, fd2) < 1e-3
    assert np.array_equal(ev.hessian, ev.hessian.T)


def test_micro_lognormal_fd(geom25, micro_data):
    p = LognParams(0.9, 0.35)
    t0 = np.array([0.9, np.log(0.35)])
    ev = micro_loglik(p, micro_data, geom25, order=2)
    fd = fd_gradient(
        lambda t: micro_loglik(LognParams(t[0], np.exp(t[1])), micro_data, geom25).loglik,
        t0, h=1e-5,
    )
    assert rel_err(ev.gradient, fd) < 1e-4


@pytest.mark.parametrize("p", [GgdParams(0.5, 0.3, 0.2), GgdParams(3.62, 0.0786, 5.73)], ids=str)
def test_micro_fd_heavy_shapes(geom25, micro_data, p):
    # heavy-tailed shapes, where f_Y is nearly singular at y = 0
    t0 = np.log([p.b, p.d, p.k])
    ev = micro_loglik(p, micro_data, geom25, order=2)
    fd = fd_gradient(
        lambda t: micro_loglik(GgdParams(*np.exp(t)), micro_data, geom25).loglik, t0, h=1e-5
    )
    assert rel_err(ev.gradient, fd) < 1e-4
    fd2 = fd_jacobian(
        lambda t: micro_loglik(GgdParams(*np.exp(t)), micro_data, geom25, order=1).gradient,
        t0, h=1e-4,
    )
    assert rel_err(ev.hessian, fd2) < 1e-3


def test_micro_evaluates_across_the_box(geom25, micro_data):
    # corners of the default box and beyond: orders 0 and 1 never raise
    grid = [GgdParams(*t) for t in itertools.product([1e-4, 1.0, 50.0], repeat=3)]
    grid += [LognParams(mu, s) for mu in (-10.0, 0.0, 10.0) for s in (0.1, 1.0, 10.0)]
    for p in grid:
        for order in (0, 1):
            ev = micro_loglik(p, micro_data, geom25, order=order)
            assert np.isfinite(ev.loglik)
            assert order == 0 or np.all(np.isfinite(ev.gradient))


def test_micro_hessian_finite_at_steep_shape(geom25, micro_data):
    # (b, d, k) = (1e-4, 50, 1) puts the normalizer's (b, b) row at y ~ 1e-4,
    # where p_uc must be accurate to far below its distance from 1
    ev = micro_loglik(GgdParams(1e-4, 50.0, 1.0), micro_data, geom25, order=2)
    assert np.isfinite(ev.loglik)
    assert np.all(np.isfinite(ev.gradient)) and np.all(np.isfinite(ev.hessian))


def test_micro_limit_large_radius(micro_data):
    p = GgdParams(2.4, 3.3, 1.5)
    lim = micro_loglik(p, micro_data, CoreGeometry(1e5)).loglik
    direct = math.fsum(np.log(ggd_pdf(micro_data.values, p)).tolist())
    assert abs(lim - direct) < 1e-4


def test_micro_rejects_mixture(geom25, micro_data):
    with pytest.raises(TypeError):
        micro_loglik(MIX_SIM, micro_data, geom25)
    with pytest.raises(ValueError):
        micro_loglik(GgdParams(2, 2, 2), Dataset(micro_data.values, "X"), geom25)


def test_permutation_invariance_exact(geom6, ofa_data, tied_ofa_data, blocks_data):
    rng = np.random.default_rng(12)
    for data in (ofa_data, tied_ofa_data, blocks_data[2 * _BLOCK + 1]):
        shuffled = Dataset(data.values[rng.permutation(data.n)], "X")
        for order in (1, 2):
            ev = ofa_loglik(MIX_SIM, data, geom6, order=order)
            ev2 = ofa_loglik(MIX_SIM, shuffled, geom6, order=order)
            assert ev.loglik == ev2.loglik
            assert np.array_equal(ev.gradient, ev2.gradient)
            assert order == 1 or np.array_equal(ev.hessian, ev2.hessian)


def test_doubling_exact(geom6, ofa_data, tied_ofa_data, blocks_data):
    for data in (ofa_data, tied_ofa_data, blocks_data[2 * _BLOCK + 1]):
        doubled = Dataset(np.concatenate([data.values, data.values]), "X")
        for order in (1, 2):
            ev = ofa_loglik(MIX_SIM, data, geom6, order=order)
            ev2 = ofa_loglik(MIX_SIM, doubled, geom6, order=order)
            assert ev2.loglik == 2.0 * ev.loglik
            assert np.array_equal(ev2.gradient, 2.0 * ev.gradient)
            assert order == 1 or np.array_equal(ev2.hessian, 2.0 * ev.hessian)


MIX_LOGN = MixtureParams(0.35, LognParams(-1.5, 0.8), LognParams(0.9, 0.25))


@pytest.mark.parametrize("mix", [MIX_SIM, MIX_LOGN], ids=["ggamma", "lognormal"])
def test_adjoint_gradient_equals_order2_gradient(geom6, ofa_data, tied_ofa_data, mix):
    # order 1 sums the derivative rows inside the quadrature tree; order 2
    # reads them at every point and sums the per-point scores
    for data in (ofa_data, tied_ofa_data):
        g1 = ofa_loglik(mix, data, geom6, order=1).gradient
        g2 = ofa_loglik(mix, data, geom6, order=2).gradient
        assert np.abs(g1 - g2).max() <= 1e-10 * (1.0 + np.abs(g2).max())


def _count_trees(monkeypatch, data):
    """Record the integrand of every censored suffix tree built through scales.

    A suffix tree has the data points as its edges; every other call is a
    log-length tail integral past the largest point, counted in ``tails``.
    """
    integrands, tails = [], []
    build = scales.segment_integrals

    def counted(f, edges, *args, **kwargs):
        (integrands if np.array_equal(edges, data.unique) else tails).append(f)
        return build(f, edges, *args, **kwargs)

    monkeypatch.setattr(scales, "segment_integrals", counted)
    return integrands, tails


@pytest.mark.parametrize("order", [0, 1, 2])
def test_one_tree_per_evaluation(geom6, ofa_data, monkeypatch, order):
    integrands, tails = _count_trees(monkeypatch, ofa_data)
    ofa_loglik(MIX_SIM, ofa_data, geom6, order=order)
    assert len(integrands) == 1 and len(tails) <= 2  # at most one tail per component
    height = {0: 1, 1: 4, 2: 10}[order]  # ggamma stack rows
    assert integrands[0](np.array([0.5, 2.0])).shape == (2 * 2 * height, 2)


@pytest.mark.parametrize("eps", [0.0, 1.0])
def test_single_component_tree_at_boundary_weight(geom6, ofa_data, monkeypatch, eps):
    integrands, tails = _count_trees(monkeypatch, ofa_data)
    mix = MixtureParams(eps, MIX_SIM.fines, MIX_SIM.fibers)
    p = mix.fines if eps == 1.0 else mix.fibers
    for order in (0, 1):
        integrands.clear()
        tails.clear()
        ofa_loglik(mix, ofa_data, geom6, order=order)
        assert len(integrands) == 1 and len(tails) <= 1
        y = np.array([0.5, 2.0, 7.0])
        w = 1.0 / (np.pi * geom6.r**2 + 2.0 * geom6.r * y)
        g = ggd_pdf(y, p)
        rows = integrands[0](y)
        assert rows.shape == (2 * (1 + 3 * order), 3)
        assert np.allclose(rows[0], g * w, rtol=1e-14, atol=0.0)
        assert np.allclose(rows[1 + 3 * order], g * y * w, rtol=1e-14, atol=0.0)


def test_per_point_diagnostics_in_input_order(geom6, ofa_data, tied_ofa_data):
    for data in (ofa_data, tied_ofa_data):
        ev = ofa_loglik(MIX_SIM, data, geom6)
        assert ev.per_point_loglik.shape == (data.n,)
        one = ofa_loglik(MIX_SIM, Dataset(data.values[:1], "X"), geom6)
        assert one.per_point_loglik[0] == pytest.approx(ev.per_point_loglik[0], abs=1e-12)


def test_init_tied_data(tied_ofa_data):
    data = tied_ofa_data
    t0 = _theta_of(MIX_SIM)
    ev = init_loglik(MIX_SIM, data, order=2)
    assert ev.loglik == math.fsum(ev.per_point_loglik.tolist())
    fines, fibers = ggd_pdf(data.values, MIX_SIM.fines), ggd_pdf(data.values, MIX_SIM.fibers)
    eps = MIX_SIM.eps
    assert np.array_equal(ev.per_point_loglik, np.log(eps * fines + (1.0 - eps) * fibers))
    fd = fd_gradient(lambda t: init_loglik(_unpack_ggd(t), data).loglik, t0, h=1e-6)
    assert rel_err(ev.gradient, fd) < 1e-6
    fd2 = fd_jacobian(lambda t: init_loglik(_unpack_ggd(t), data, order=1).gradient, t0, h=1e-4)
    assert rel_err(ev.hessian, fd2) < 1e-4
    assert np.array_equal(ev.hessian, ev.hessian.T)


@pytest.mark.parametrize("p", [GgdParams(2.4, 3.3, 1.5), LognParams(0.9, 0.35)])
def test_micro_and_single_component_init_tied_data(geom25, tied_micro_data, p):
    data = tied_micro_data
    if isinstance(p, GgdParams):
        t0, unpack = np.log([p.b, p.d, p.k]), lambda t: GgdParams(*np.exp(t))
    else:
        t0, unpack = np.array([p.mu, np.log(p.sigma)]), lambda t: LognParams(t[0], np.exp(t[1]))
    ev = micro_loglik(p, data, geom25, order=2)
    assert ev.loglik == math.fsum(ev.per_point_loglik.tolist())
    assert ev.per_point_loglik == pytest.approx(np.log(density_v(data.values, p, geom25)), abs=1e-9)
    fd = fd_gradient(lambda t: micro_loglik(unpack(t), data, geom25).loglik, t0, h=1e-5)
    assert rel_err(ev.gradient, fd) < 1e-4
    fd2 = fd_jacobian(lambda t: micro_loglik(unpack(t), data, geom25, order=1).gradient, t0, h=1e-4)
    assert rel_err(ev.hessian, fd2) < 1e-3
    assert np.array_equal(ev.hessian, ev.hessian.T)

    ev = init_loglik(p, data, order=2)
    assert ev.loglik == math.fsum(ev.per_point_loglik.tolist())
    fd = fd_gradient(lambda t: init_loglik(unpack(t), data).loglik, t0, h=1e-6)
    assert rel_err(ev.gradient, fd) < 1e-6
    fd2 = fd_jacobian(lambda t: init_loglik(unpack(t), data, order=1).gradient, t0, h=1e-4)
    assert rel_err(ev.hessian, fd2) < 1e-4
    assert np.array_equal(ev.hessian, ev.hessian.T)


@pytest.mark.parametrize("p", [GgdParams(2.4, 3.3, 1.5), LognParams(0.9, 0.35)])
def test_micro_is_the_component_pass_plus_normalizer_terms(geom25, tied_micro_data, p):
    # micro_loglik = init_loglik of the same component + sum counts log p_uc
    # - n log k_theta, its derivatives corrected by the normalizer's rows
    data, n, cn = tied_micro_data, tied_micro_data.n, _n_coords(p)
    log_puc = math.fsum(np.log(prob_uncut(data.values, geom25)).tolist())
    for order in (0, 1, 2):
        micro, init = micro_loglik(p, data, geom25, order=order), init_loglik(p, data, order=order)
        kint = scales._uncut_mass_stack(p, geom25, order, scales.segment_integrals)
        kj = kint[1 : 1 + cn] / kint[0]
        assert micro.loglik == pytest.approx(init.loglik + log_puc - n * np.log(kint[0]), rel=1e-12, abs=0.0)
        if order >= 1:
            assert rel_err(micro.gradient, init.gradient - n * kj) < 1e-12
        if order >= 2:
            norm = _packed_to_full(kint[1 + cn :], cn) / kint[0] - np.outer(kj, kj)
            assert rel_err(micro.hessian, init.hessian - n * norm) < 1e-12


@pytest.mark.parametrize("p", [GgdParams(2.4, 3.3, 1.5), LognParams(0.9, 0.35)])
def test_single_component_is_the_mixture_block_of_a_boundary_weight(tied_micro_data, p):
    # all weight on one slot: that slot's block is the single-component
    # evaluation, and the eps coordinate and the other slot read zero
    data, cn = tied_micro_data, _n_coords(p)
    q = GgdParams(0.1, 1.5, 2.0) if isinstance(p, GgdParams) else LognParams(-2.0, 0.5)
    for mix, own in ((MixtureParams(1.0, p, q), slice(1, 1 + cn)), (MixtureParams(0.0, q, p), slice(1 + cn, None))):
        rest = np.ones(1 + 2 * cn, dtype=bool)
        rest[own] = False
        for order in (0, 1, 2):
            single, both = init_loglik(p, data, order=order), init_loglik(mix, data, order=order)
            assert both.loglik == single.loglik
            assert np.array_equal(both.per_point_loglik, single.per_point_loglik)
            if order >= 1:
                assert rel_err(both.gradient[own], single.gradient) < 1e-12
                assert np.all(both.gradient[rest] == 0.0)
            if order >= 2:
                assert rel_err(both.hessian[own, own], single.hessian) < 1e-12
                assert np.all(both.hessian[rest] == 0.0) and np.all(both.hessian[:, rest] == 0.0)


def test_order2_score_overflow_is_an_evaluation_error():
    # a far-off trial point of a fit of sample_x seed 5009 of the benchmark
    # mixture (n = 300) in units of its median: orders 0 and 1 evaluate, but
    # the order-2 scores and their outer product overflow double range
    x = sample_x(SimSpec("X", MIX_SIM, CoreGeometry(6.0), 300, seed=5009))
    geom = CoreGeometry(6.0 / np.median(x))
    assert geom.r == 3.796059116019238
    data = Dataset(x / np.median(x), "X")
    mix = MixtureParams(
        0.2686952185445467,
        GgdParams(0.00014965085371900774, 5.729221465768613, 49.99999999999999),
        GgdParams(0.9639011670067588, 40.46722140081125, 0.2915675200207461),
    )
    for order in (0, 1):
        assert ofa_loglik(mix, data, geom, order=order).loglik == pytest.approx(-92873.504, abs=1e-3)
    with pytest.raises(EvaluationError, match="overflow"):
        ofa_loglik(mix, data, geom, order=2)


def test_weighted_fsum_exact_for_large_counts():
    # pairs c1 * v and c2 * (-c1 v / c2) nearly cancel, so the exact sum is
    # of the order of the products' rounding errors
    rng = np.random.default_rng(17)
    v = rng.uniform(-700.0, 50.0, 100)
    c1 = rng.integers(1, 2**40, v.size).astype(float)
    c2 = rng.integers(1, 2**40, v.size).astype(float)
    values = np.concatenate([v, -(c1 * v) / c2, [0.1, -1e-12]])
    counts = np.concatenate([c1, c2, [2.0**40, 2.0**40 - 1.0]])
    exact = sum(Fraction(c) * Fraction(x) for c, x in zip(counts.tolist(), values.tolist()))
    assert _weighted_fsum(values, counts) == float(exact)
    assert _weighted_fsum(values, np.ones_like(values)) == math.fsum(values.tolist())


def test_exact_sum_matches_fsum():
    # magnitudes across the double range, near-cancelling pairs and sizes
    # from 1 to 50 000 terms
    rng = np.random.default_rng(18)
    sizes = np.unique(np.geomspace(1, 50_000, 40).astype(int))
    for i, n in enumerate(sizes.tolist()):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        if i % 2:
            x[1::2] = -x[: n // 2 * 2 : 2] * (1.0 + 1e-15 * rng.standard_normal(n // 2))
        for terms in (x, rng.uniform(-700.0, 50.0, n), np.concatenate([x, -x[::-1], [1e-300]])):
            assert _exact_sum(terms) == math.fsum(terms.tolist())


def test_fd_agreement_random_battery(geom6):
    # randomized spot checks across both families and data types
    rng = np.random.default_rng(13)
    x = Dataset(np.clip(rng.gamma(2.0, 0.9, 40), 1e-3, 11.9), "X")
    for _ in range(20):
        t = np.concatenate(
            [rng.normal(0, 0.7, 1), rng.uniform(-1.5, 0.4, 3), rng.uniform(-0.3, 1.0, 3)]
        )
        mix = _unpack_ggd(t)
        ev = ofa_loglik(mix, x, geom6, order=1)
        fd = fd_gradient(lambda tt: ofa_loglik(_unpack_ggd(tt), x, geom6).loglik, t, h=1e-5)
        assert rel_err(ev.gradient, fd) < 1e-4


def test_fd_agreement_lognormal_battery(geom6):
    rng = np.random.default_rng(14)
    x = Dataset(np.clip(rng.gamma(2.0, 0.9, 40), 1e-3, 11.9), "X")
    v = Dataset(np.clip(rng.gamma(3.0, 0.7, 30), 1e-2, 11.9), "V")
    for _ in range(20):
        t = np.array([
            rng.normal(0.0, 0.7),
            rng.uniform(-2.5, -0.5), rng.uniform(-1.0, 0.5),
            rng.uniform(0.3, 1.3), rng.uniform(-1.8, -0.5),
        ])
        mix = _unpack_logn(t)
        ev = ofa_loglik(mix, x, geom6, order=1)
        fd = fd_gradient(lambda tt: ofa_loglik(_unpack_logn(tt), x, geom6).loglik, t, h=1e-5)
        assert rel_err(ev.gradient, fd) < 1e-4

        tm = t[3:5]
        p = LognParams(tm[0], np.exp(tm[1]))
        evm = micro_loglik(p, v, geom6, order=1)
        fdm = fd_gradient(
            lambda tt: micro_loglik(LognParams(tt[0], np.exp(tt[1])), v, geom6).loglik, tm, h=1e-5
        )
        assert rel_err(evm.gradient, fdm) < 1e-4


def _whole_array_reference(mix, data, geom, order):
    """(loglik, per-point terms, gradient, Hessian) from whole-array reads of the suffix tree.

    Every stack row of both components is read at every unique point at
    once through ``PanelTree.suffix()`` plus the tail constants past the
    largest point, and the mixture is assembled per
    point, as the streamed evaluation never does: the value rows clamped by
    one reverse running maximum over all points, the scores and the
    Hessian rows summed per point.
    """
    x, w, eps, r = data.unique, data.counts, mix.eps, geom.r
    parts, cn = (mix.fines, mix.fibers), _n_coords(mix.fines)
    stacks = scales._CensoredStacks(x, list(parts), geom, order)
    h = stacks.height
    TS = (stacks.tree.suffix() + stacks.tail[:, None]).reshape(2, 2, h, x.size)
    TS[:, :, 0] = np.maximum.accumulate(np.maximum(TS[:, :, 0, ::-1], 0.0), axis=-1)[..., ::-1]
    root = np.sqrt(4.0 * r * r - x * x)
    puc = prob_uncut(x, geom)
    f = [_stack_rows(p, order)(x) * puc + (8.0 * r * r - 3.0 * x * x) / root * TS[i, 0] + x / root * TS[i, 1]
         for i, p in enumerate(parts)]
    fc = eps * f[0][0] + (1.0 - eps) * f[1][0]
    per_point = np.log(fc)
    loglik = math.fsum((w * per_point).tolist())
    if order == 0:
        return loglik, per_point[data.inverse], None, None
    de, v = eps - eps * eps, w / fc
    score = np.concatenate([[de * (f[0][0] - f[1][0])], eps * f[0][1 : 1 + cn], (1.0 - eps) * f[1][1 : 1 + cn]]) / fc
    grad = score @ w
    if order == 1:
        return loglik, per_point[data.inverse], grad, None
    d2 = np.zeros((1 + 2 * cn, 1 + 2 * cn))
    d2[0, 0] = de * (1.0 - 2.0 * eps) * ((f[0][0] - f[1][0]) @ v)
    d2[0, 1 : 1 + cn] = d2[1 : 1 + cn, 0] = de * (f[0][1 : 1 + cn] @ v)
    d2[0, 1 + cn :] = d2[1 + cn :, 0] = -de * (f[1][1 : 1 + cn] @ v)
    d2[1 : 1 + cn, 1 : 1 + cn] = eps * _packed_to_full(f[0][1 + cn :] @ v, cn)
    d2[1 + cn :, 1 + cn :] = (1.0 - eps) * _packed_to_full(f[1][1 + cn :] @ v, cn)
    return loglik, per_point[data.inverse], grad, d2 - (w * score) @ score.T


def _close(a, b, tol):
    return np.abs(a - b).max() <= tol * (1.0 + np.abs(b).max())


@pytest.mark.parametrize("mix", [MIX_SIM, MIX_LOGN], ids=["ggamma", "lognormal"])
def test_order2_hessian_equals_per_point_reference(geom6, ofa_data, tied_ofa_data, blocks_data, mix):
    # the Hessian rows enter only through sums against counts / f_X inside
    # the tree; reading them at every point gives the same Hessian
    for data in (ofa_data, tied_ofa_data, blocks_data[2 * _BLOCK + 1]):
        hess = ofa_loglik(mix, data, geom6, order=2).hessian
        assert _close(hess, _whole_array_reference(mix, data, geom6, 2)[3], 1e-10)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_streamed_blocks_match_whole_array_reference(geom6, blocks_data, order):
    for data in blocks_data.values():
        ev = ofa_loglik(MIX_SIM, data, geom6, order=order)
        loglik, per_point, grad, hess = _whole_array_reference(MIX_SIM, data, geom6, order)
        assert abs(ev.loglik - loglik) <= 1e-12 * abs(loglik)
        assert np.all(np.abs(ev.per_point_loglik - per_point) <= 4.0 * np.spacing(np.abs(per_point)))
        assert order == 0 or _close(ev.gradient, grad, 1e-10)
        assert order < 2 or _close(ev.hessian, hess, 1e-10)


def test_evaluation_working_set_is_bounded():
    # n = 20 000 unique points of the benchmark mixture: every per-point
    # quantity lives one block at a time, so the traced peak stays far below
    # the whole-array temporaries (8.3 MB at order 1, 16.2 MB at order 2)
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 20_000, seed=1001)), "X")
    for order, limit in ((1, 4e6), (2, 8e6)):
        ofa_loglik(MIX_SIM, data, geom, order=order)  # fills the per-parameter caches
        tracemalloc.start()
        try:
            ofa_loglik(MIX_SIM, data, geom, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit
