"""Shared test helpers: finite differences and independent quadrature oracles.

Oracles deliberately avoid the package's own integration engine: expected
values come from scipy.integrate (QUADPACK / composite rules) or closed
forms, so the engine and the densities are checked against an independent
path.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad, quad_vec
from scipy.interpolate import PchipInterpolator

from fiberfit import CoreGeometry, GgdParams, LognParams, MixtureParams


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return out


def fd_jacobian(f, x, h=1e-4):
    """Central-difference Jacobian of vector-valued f at x."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def rel_err(a, b, floor=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b).max() / max(np.abs(b).max(), floor)


def quad_oracle(f, a, b, **kw):
    """QUADPACK integral, independent of the package's engine."""
    kw.setdefault("limit", 300)
    return quad(f, a, b, **kw)[0]


def x_scale_integral_oracle(pdf_x, r, **kw):
    """Integrate an X-scale density over (0, 2r) via the sine substitution.

    The substitution x = 2r sin(phi) removes the inverse-square-root endpoint
    factor, leaving a smooth integrand for QUADPACK.
    """
    def g(phi):
        x = 2.0 * r * np.sin(phi)
        x = min(max(x, 1e-13), 2.0 * r * (1.0 - 1e-15))
        return pdf_x(x) * 2.0 * r * np.cos(phi)

    return quad_oracle(g, 0.0, np.pi / 2.0, **kw)


def x_density_oracle(x, pdf_y, r):
    """X-scale density p_uc(x) f_Y(x) + int_x^inf k(x|y) f_Y(y) dy at every x.

    The cut-length kernel is written out here, and the tail integral runs in
    y = x + s with one vector integrand for all x: s over (0, 1), then
    s = e^u over u in (0, 50), each by scipy's adaptive quad_vec.
    """
    x = np.asarray(x, dtype=float)
    root = np.sqrt(4.0 * r * r - x * x)

    def g(s):
        y = x + s
        return (8.0 * r * r - 3.0 * x * x + y * x) / ((np.pi * r * r + 2.0 * r * y) * root) * pdf_y(y)

    kw = dict(epsabs=1e-16, epsrel=1e-13, norm="max", limit=5000)
    near = quad_vec(g, 0.0, 1.0, **kw)[0]
    far = quad_vec(lambda u: g(np.exp(u)) * np.exp(u), 0.0, 50.0, **kw)[0]
    p_uc = (2.0 * r * r * np.arcsin(root / (2.0 * r)) - 0.5 * x * root) / (np.pi * r * r + 2.0 * r * x)
    return p_uc * pdf_y(x) + near + far


def cdf_interpolator(pdf_vectorized, lo, hi, n=8193, x_scale_r=None):
    """Monotone-cubic CDF built from a dense cumulative-trapezoid grid.

    For X/V-scale densities pass x_scale_r to integrate in the phi variable
    where the endpoint factor cancels.
    """
    if x_scale_r is not None:
        r = x_scale_r
        phi = np.linspace(0.0, np.pi / 2.0, n)
        x = 2.0 * r * np.sin(phi)
        xin = np.clip(x, 1e-13, 2.0 * r * (1.0 - 1e-15))
        integrand = pdf_vectorized(xin) * 2.0 * r * np.cos(phi)
        cdf = np.concatenate([[0.0], cumulative_trapezoid(integrand, phi)])
        grid = x
    else:
        grid = np.linspace(lo, hi, n)
        gin = np.clip(grid, 1e-13, None)
        vals = pdf_vectorized(gin)
        cdf = np.concatenate([[0.0], cumulative_trapezoid(vals, grid)])
    cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
    # strictly increasing grid required; drop duplicate leading points if any
    interp = PchipInterpolator(grid, cdf)
    return lambda q: np.clip(interp(np.clip(q, grid[0], grid[-1])), 0.0, 1.0)


# parameter battery spanning both families, including hard shapes: a tiny
# scale with d*k near 1, a heavy lognormal tail, and a plain gamma (d = 1)
BATTERY = [
    (GgdParams(2.4, 3.3, 1.5), 2.5),
    (GgdParams(1.8, 2.7, 2.6), 2.5),
    (GgdParams(2.0014, 2.8224, 2.2236), 6.0),
    (GgdParams(0.001, 0.2921, 5.2519), 6.0),
    (GgdParams(0.1, 1.5, 2.0), 6.0),
    (GgdParams(2.0, 1.0, 3.0), 2.5),
    (LognParams(0.9152, 0.2382), 6.0),
    (LognParams(-1.58, 1.555), 6.0),
    (LognParams(-2.0, 0.5), 6.0),
    (LognParams(0.5, 0.8), 2.5),
]

MIX_GGD_R6 = MixtureParams(
    0.298, GgdParams(0.001, 0.2921, 5.2519), GgdParams(2.0014, 2.8224, 2.2236)
)
MIX_LOGN_R6 = MixtureParams(
    0.2928, LognParams(-1.58, 1.555), LognParams(0.9152, 0.2382)
)
MIX_SIM = MixtureParams(0.3, GgdParams(0.1, 1.5, 2.0), GgdParams(2.0, 2.8, 2.2))


@pytest.fixture
def geom25():
    return CoreGeometry(2.5)


@pytest.fixture
def geom6():
    return CoreGeometry(6.0)
