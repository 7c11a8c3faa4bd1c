import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, polygamma, psi

from fiberfit import (
    GgdParams,
    LognParams,
    MixtureParams,
    ParamVector,
    decode,
    encode,
    ggd_grad_theta,
    ggd_hess_theta,
    ggd_pdf,
    logn_grad_theta,
    logn_hess_theta,
    logn_pdf,
)
from fiberfit.densities import _stack_rows
from conftest import fd_gradient, fd_jacobian, rel_err

# golden density values
GGD_GOLDEN = {2.5: 0.6689186996, 5.0: 0.0000692969}
LOGN_GOLDEN = {0.1: 6.643761, 0.45: 0.09882040}


def test_ggd_golden_values():
    p = GgdParams(1.8, 2.7, 2.6)
    for y, want in GGD_GOLDEN.items():
        assert ggd_pdf(y, p) == pytest.approx(want, abs=1e-9)


def test_logn_golden_values():
    p = LognParams(-2.0, 0.5)
    for y, want in LOGN_GOLDEN.items():
        assert logn_pdf(y, p) == pytest.approx(want, abs=1e-6)


def test_ggd_at_zero():
    assert ggd_pdf(0.0, GgdParams(1.8, 2.7, 2.6)) == 0.0  # d*k > 1
    # d*k = 1 has a finite positive limit
    assert ggd_pdf(0.0, GgdParams(2.0, 1.0, 1.0)) == pytest.approx(0.5)


def test_logn_mode_value():
    mu, sig = -0.3, 0.7
    p = LognParams(mu, sig)
    want = 1.0 / (np.exp(mu) * sig * np.sqrt(2.0 * np.pi))
    assert logn_pdf(np.exp(mu), p) == pytest.approx(want, rel=1e-14)


def test_param_validation():
    for bad in [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, np.inf)]:
        with pytest.raises(ValueError):
            GgdParams(*bad)
    with pytest.raises(ValueError):
        LognParams(0.0, 0.0)
    with pytest.raises(ValueError):
        MixtureParams(1.5, GgdParams(1, 1, 1), GgdParams(2, 2, 2))
    with pytest.raises(ValueError):
        MixtureParams(0.5, GgdParams(1, 1, 1), LognParams(0.0, 1.0))


def test_domain_errors():
    with pytest.raises(ValueError):
        ggd_pdf(-0.1, GgdParams(1, 1, 1))
    with pytest.raises(ValueError):
        logn_pdf(0.0, LognParams(0.0, 1.0))


def test_encode_decode_structure():
    pv = encode(MixtureParams(0.5, GgdParams(2, 2, 2), GgdParams(1, 1, 1)))
    assert pv.values[0] == 0.0  # logit(1/2)
    assert pv.values[1:4] == (np.log(2.0),) * 3
    assert decode(pv).eps == 0.5
    with pytest.raises(ValueError):
        encode(MixtureParams(0.0, GgdParams(1, 1, 1), GgdParams(2, 2, 2)))
    with pytest.raises(ValueError):
        encode(MixtureParams(1.0, GgdParams(1, 1, 1), GgdParams(2, 2, 2)))


def test_round_trip_random_points():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        eps = rng.uniform(0.01, 0.99)
        if i % 2 == 0:
            mix = MixtureParams(
                eps,
                GgdParams(*np.exp(rng.uniform(-2, 1.6, 3))),
                GgdParams(*np.exp(rng.uniform(-2, 1.6, 3))),
            )
            back = decode(encode(mix))
            worst = max(
                worst,
                abs(back.eps - mix.eps),
                abs(back.fines.b - mix.fines.b),
                abs(back.fines.d - mix.fines.d),
                abs(back.fibers.k - mix.fibers.k),
            )
        else:
            mix = MixtureParams(
                eps,
                LognParams(rng.uniform(-3, 2), float(np.exp(rng.uniform(-2, 0.7)))),
                LognParams(rng.uniform(-3, 2), float(np.exp(rng.uniform(-2, 0.7)))),
            )
            back = decode(encode(mix))
            worst = max(
                worst,
                abs(back.eps - mix.eps),
                abs(back.fines.mu - mix.fines.mu),
                abs(back.fibers.sigma - mix.fibers.sigma),
            )
    assert worst < 1e-14


def test_param_vector_masks_and_validation():
    with pytest.raises(ValueError):
        ParamVector("ggamma", (0.0, 1.0))  # wrong length
    with pytest.raises(ValueError):
        ParamVector("weibull", (0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ParamVector("ggamma", (np.inf, 0.0, 0.0))  # non-finite free coord
    # fixed coordinates may sit at the boundary
    pv = ParamVector("ggamma", (-np.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                     (True, False, False, False, False, False, False))
    assert decode(pv).eps == 0.0


def test_ggd_normalizes():
    # change of variables t = (y/b)^d: small d concentrates mass at scales
    # far below float resolution in y, but the t integrand stays tame
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = GgdParams(*np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3)))

        def integrand(t):
            y = p.b * t ** (1.0 / p.d)
            return ggd_pdf(y, p) * (p.b / p.d) * t ** (1.0 / p.d - 1.0)

        val = quad(integrand, 0.0, p.k + 50.0, points=[p.k], limit=400)[0]
        assert val == pytest.approx(1.0, abs=1e-8)


def test_logn_normalizes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = LognParams(rng.uniform(-3, 2), rng.uniform(0.1, 2.0))
        val = quad(lambda y: logn_pdf(y, p), 0.0, np.inf, limit=300)[0]
        assert val == pytest.approx(1.0, abs=1e-8)


def _ggd_from_theta(t):
    return GgdParams(*np.exp(t))


def _logn_from_theta(t):
    return LognParams(t[0], np.exp(t[1]))


def test_ggd_gradient_special_zeros():
    # d f / d(log b) vanishes where (y/b)^d = k
    b, d, k = 2.0, 2.5, 1.7
    y = b * k ** (1.0 / d)
    g = ggd_grad_theta(y, GgdParams(b, d, k))
    assert g[0] == pytest.approx(0.0, abs=1e-14)


def test_logn_gradient_special_zeros():
    p = LognParams(0.4, 0.9)
    g = logn_grad_theta(np.exp(0.4), p)
    assert g[0] == pytest.approx(0.0, abs=1e-14)


def test_logn_hessian_mu_mu_at_mode():
    p = LognParams(0.4, 0.9)
    h = logn_hess_theta(np.exp(0.4), p)
    f = logn_pdf(np.exp(0.4), p)
    assert h[0, 0] == pytest.approx(-f / p.sigma**2, rel=1e-12)


def test_ggd_derivatives_match_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = rng.uniform(-1.0, 1.3, 3)
        p = _ggd_from_theta(t)
        y = float(rng.uniform(0.2, 3.0) * p.b * max(p.k, 1.0) ** (1.0 / p.d))
        g = ggd_grad_theta(y, p)
        gfd = fd_gradient(lambda tt: ggd_pdf(y, _ggd_from_theta(tt)), t, h=1e-6)
        assert rel_err(g, gfd, floor=1e-8) < 1e-5
        H = ggd_hess_theta(y, p)
        assert np.array_equal(H, H.T)
        Hfd = fd_jacobian(lambda tt: ggd_grad_theta(y, _ggd_from_theta(tt)), t, h=1e-4)
        assert rel_err(H, Hfd, floor=1e-8) < 1e-4


def test_logn_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = np.array([rng.uniform(-1.5, 1.0), rng.uniform(-1.5, 0.5)])
        p = _logn_from_theta(t)
        y = float(np.exp(rng.normal(p.mu, p.sigma)))
        g = logn_grad_theta(y, p)
        gfd = fd_gradient(lambda tt: logn_pdf(y, _logn_from_theta(tt)), t, h=1e-6)
        assert rel_err(g, gfd, floor=1e-8) < 1e-5
        H = logn_hess_theta(y, p)
        Hfd = fd_jacobian(lambda tt: logn_grad_theta(y, _logn_from_theta(tt)), t, h=1e-4)
        assert rel_err(H, Hfd, floor=1e-8) < 1e-4


def test_extreme_shape_no_overflow():
    # scale 1e-3 with d*k ~ 1.5 and far-tail arguments must stay finite
    p = GgdParams(0.001, 0.2921, 5.2519)
    y = np.array([1e-6, 0.01, 1.0, 100.0, 1e6])
    f = ggd_pdf(y, p)
    assert np.all(np.isfinite(f)) and np.all(f >= 0.0)
    g = ggd_grad_theta(y, p)
    assert np.all(np.isfinite(g))


def test_vector_shapes():
    p = GgdParams(1.8, 2.7, 2.6)
    y = np.array([0.5, 1.0, 2.0])
    assert ggd_pdf(y, p).shape == (3,)
    assert ggd_grad_theta(y, p).shape == (3, 3)
    assert ggd_hess_theta(y, p).shape == (3, 3, 3)
    pl = LognParams(0.0, 1.0)
    assert logn_grad_theta(y, pl).shape == (3, 2)
    assert logn_hess_theta(y, pl).shape == (3, 2, 2)


# ---------------------------------------------------------------------------
# kernel oracle: the stack rows, formula by formula, as separate arrays
# ---------------------------------------------------------------------------


def _ref_ggd_rows(y, p, order, standardized):
    """Reference GGD stack: the row formulas evaluated one array at a time, then stacked."""
    b, d, k = p.b, p.d, p.k
    if standardized:
        L = y
    else:
        ly = np.log(y)
        L = d * (ly - np.log(b))
    with np.errstate(over="ignore"):
        c1 = np.exp(L)
    head = k * L if standardized else np.log(d) - d * k * np.log(b) + (d * k - 1.0) * ly
    logf = head - c1 - gammaln(k)
    f = np.where(logf > -700.0, np.exp(np.minimum(logf, 700.0)), 0.0)
    if order < 1:
        return np.array([f])
    psi_k = psi(k)
    live = f > 0.0
    c1s = np.where(live, c1, 0.0)
    Ls = np.where(live, L, 0.0)
    g = [d * (c1s - k), 1.0 + Ls * (k - c1s), k * (Ls - psi_k)]
    rows = [f] + [f * gi for gi in g]
    if order < 2:
        return np.array(rows)
    hlog = [
        -d * d * c1s,
        d * (c1s - k) + d * c1s * Ls,
        np.full_like(Ls, -d * k),
        Ls * (k - c1s) - c1s * Ls * Ls,
        k * Ls,
        k * Ls - k * psi_k - k * k * polygamma(1, k),
    ]
    i, j = np.triu_indices(3)
    return np.array(rows + [f * (g[a] * g[c]) + f * h for a, c, h in zip(i, j, hlog)])


def _ref_logn_rows(y, p, order, standardized):
    """Reference lognormal stack, theta = (mu, log sigma)."""
    mu, sig = p.mu, p.sigma
    if standardized:
        z, head = y, 0.0
    else:
        ly = np.log(y)
        z, head = (ly - mu) / sig, -ly - np.log(sig)
    logf = head - 0.5 * np.log(2.0 * np.pi) - 0.5 * z * z
    f = np.where(logf > -700.0, np.exp(logf), 0.0)
    if order < 1:
        return np.array([f])
    g = [z / sig, z * z - 1.0]
    rows = [f] + [f * gi for gi in g]
    if order < 2:
        return np.array(rows)
    hlog = [np.broadcast_to(-1.0 / sig**2, np.shape(y)), -2.0 * z / sig, -2.0 * z * z]
    i, j = np.triu_indices(2)
    return np.array(rows + [f * (g[a] * g[c]) + f * h for a, c, h in zip(i, j, hlog)])


_REF_ROWS = {"ggamma": _ref_ggd_rows, "lognorm": _ref_logn_rows}


def _oracle_inputs(rng, standardized):
    """A seeded mix of ordinary lanes and extreme ones, plus 0-d and empty inputs."""
    if standardized:  # s > 709.8 overflows exp(s); s << 0 leaves only the k s term
        lanes = np.concatenate([rng.uniform(-40.0, 8.0, 40), [-800.0, -300.0, 0.0, 50.0, 709.0, 720.0, 800.0]])
    else:  # subnormal and huge lengths push log f far below -700 and, for GGD, above 700
        lanes = np.concatenate([np.exp(rng.uniform(-30.0, 30.0, 40)), [5e-324, 1e-310, 1e-300, 1e-30, 1e30, 1e300]])
    return [lanes, np.asarray(lanes[3]), np.asarray(lanes[-1]), np.empty(0)]


@pytest.mark.parametrize("standardized", [False, True])
@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_stack_kernels_match_row_formulas_bit_for_bit(family, standardized):
    rng = np.random.default_rng(20261019)
    checked = masked = 0
    for _ in range(60):
        if family == "ggamma":
            p = GgdParams(*np.exp(rng.uniform(-9.0, 4.0, 3)))
        else:
            p = LognParams(rng.uniform(-10.0, 10.0), np.exp(rng.uniform(-7.0, 2.3)))
        for y in _oracle_inputs(rng, standardized):
            for order in (0, 1, 2):
                got = _stack_rows(p, order, standardized)(y)
                want = _REF_ROWS[family](y, p, order, standardized)
                assert got.shape == want.shape == (want.shape[0],) + y.shape
                assert np.array_equal(got, want, equal_nan=True), (p, order, y)
                checked += 1
                masked += bool(np.any(want[0] == 0.0))
    assert checked == 60 * 4 * 3 and masked > 0


@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_public_density_layout_from_the_stack(family):
    rng = np.random.default_rng(7)
    fns = {"ggamma": (ggd_pdf, ggd_grad_theta, ggd_hess_theta), "lognorm": (logn_pdf, logn_grad_theta, logn_hess_theta)}
    p = GgdParams(1.8, 2.7, 2.6) if family == "ggamma" else LognParams(-0.3, 0.7)
    pdf, grad, hess = (lambda y, fn=fn: fn(y, p) for fn in fns[family])
    cn = 3 if family == "ggamma" else 2
    y = np.concatenate([np.exp(rng.uniform(-4.0, 3.0, 9)), [1e-300, 1e300]])
    ref = _REF_ROWS[family](y, p, 2, False)
    i, j = np.triu_indices(cn)
    full = np.zeros((y.size, cn, cn))
    full[:, i, j] = ref[1 + cn :].T
    full[:, j, i] = ref[1 + cn :].T
    assert np.array_equal(pdf(y), ref[0]) and pdf(y).shape == (y.size,)
    assert np.array_equal(grad(y), ref[1 : 1 + cn].T) and grad(y).shape == (y.size, cn)
    assert np.array_equal(hess(y), full) and hess(y).shape == (y.size, cn, cn)
    assert isinstance(pdf(1.3), float) and pdf(1.3) == pdf(np.array([1.3]))[0]
    assert grad(1.3).shape == (cn,) and np.array_equal(grad(1.3), grad(np.array([1.3]))[0])
    assert hess(1.3).shape == (cn, cn) and np.array_equal(hess(1.3), hess(np.array([1.3]))[0])
    assert pdf(np.empty(0)).shape == (0,) and grad(np.empty(0)).shape == (0, cn) and hess(np.empty(0)).shape == (0, cn, cn)
