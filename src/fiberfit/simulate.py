"""Seed-controlled samplers for the four cell-length populations.

Sampling strategies mirror the densities they target:

* Y - direct draws: Bernoulli(eps) component choice, then b * G^(1/d) with
  G ~ Gamma(k, 1) for the generalized gamma, exp(mu + sigma Z) for the
  lognormal,
* W - rejection from the Y proposal with acceptance pi r / (pi r + 2 w)
  (the length-bias weight, bounded at w = 0),
* V - Y draws for the fiber component thinned by the uncut probability,
* X - hierarchical: draw y, keep it uncut with probability p_uc(y), else
  invert the cut-kernel CDF by bisection on its elementary antiderivative.

Streams are reproducible: a given (spec, seed) always produces the same
vector, chunk by chunk, on any platform with IEEE doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import FAMILIES, ComponentParams, MixtureParams
from .geometry import CoreGeometry, _prob_uncut_unchecked, cut_kernel_cdf

__all__ = ["SimSpec", "sample_y", "sample_w", "sample_v", "sample_x"]

_CHUNK = 8192
_MIN_ACCEPT = 1e-4
_ACCEPT_AUDIT = 100_000


@dataclass(frozen=True)
class SimSpec:
    """What to draw: scale W/Y/X/V, parameters, geometry, count and seed."""

    scale: str
    params: MixtureParams | ComponentParams
    geom: CoreGeometry
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.scale not in ("W", "Y", "X", "V"):
            raise ValueError("scale must be one of W, Y, X, V")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.scale == "V" and isinstance(self.params, MixtureParams):
            raise ValueError("the V scale draws uncut fibers: pass single fiber-component params")
        if self.scale == "X" and not isinstance(self.params, MixtureParams):
            raise ValueError("the X scale observes the full mixture: pass MixtureParams")


def _draw_y(rng: np.random.Generator, params, n: int) -> np.ndarray:
    sample = FAMILIES[params.family].sample
    if not isinstance(params, MixtureParams):
        return sample(rng, params, n)
    take_fines = rng.random(n) < params.eps
    out = np.empty(n)
    n_fines = int(take_fines.sum())
    # fines block first, then fibers, so the stream layout is deterministic
    out[take_fines] = sample(rng, params.fines, n_fines)
    out[~take_fines] = sample(rng, params.fibers, n - n_fines)
    return out


def sample_y(spec: SimSpec) -> np.ndarray:
    """True lengths of cells at least partially inside the core."""
    rng = np.random.default_rng(spec.seed)
    return _draw_y(rng, spec.params, spec.n)


def _rejection(spec: SimSpec, weight_fn) -> np.ndarray:
    """Accept Y proposals with probability weight_fn(y) in [0, 1]."""
    rng = np.random.default_rng(spec.seed)
    out = np.empty(spec.n)
    got = 0
    proposed = 0
    while got < spec.n:
        y = _draw_y(rng, spec.params, _CHUNK)
        acc = y[rng.random(_CHUNK) < weight_fn(y)]
        take = min(acc.size, spec.n - got)
        out[got : got + take] = acc[:take]
        got += take
        proposed += _CHUNK
        if proposed >= _ACCEPT_AUDIT and got / proposed < _MIN_ACCEPT:
            raise RuntimeError(
                f"rejection acceptance rate {got / proposed:.2e} is below {_MIN_ACCEPT}; "
                "review the parameters and geometry"
            )
    return out


def sample_w(spec: SimSpec) -> np.ndarray:
    """True cell lengths in the standing tree (de-length-biased)."""
    pir = np.pi * spec.geom.r
    return _rejection(spec, lambda y: pir / (pir + 2.0 * y))


def sample_v(spec: SimSpec) -> np.ndarray:
    """Uncut fiber lengths in the core: Y draws thinned by p_uc."""
    r = spec.geom.r
    return _rejection(spec, lambda y: _prob_uncut_unchecked(y, r))


def _invert_cut_kernel(rng: np.random.Generator, y: np.ndarray, geom: CoreGeometry) -> np.ndarray:
    """Draw observed lengths for cut cells of true lengths y by inverse CDF.

    Solves cut_kernel_cdf(x, y) = u * (1 - p_uc(y)) for x in (0, min(y, 2r))
    by bisection; the CDF is strictly increasing so convergence is guaranteed.
    """
    r = geom.r
    hi = np.minimum(y, 2.0 * r)
    lo = np.zeros_like(y)
    target = rng.random(y.size) * (1.0 - _prob_uncut_unchecked(y, r))
    for _ in range(60):  # 2r / 2^60 ~ 1e-17, beyond the 1e-12 requirement
        mid = 0.5 * (lo + hi)
        below = cut_kernel_cdf(mid, y, geom) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample_x(spec: SimSpec) -> np.ndarray:
    """Observed lengths in the core: uncut cells keep y, cut cells get a piece."""
    rng = np.random.default_rng(spec.seed)
    y = _draw_y(rng, spec.params, spec.n)
    uncut = rng.random(spec.n) < _prob_uncut_unchecked(y, spec.geom.r)
    out = np.where(uncut, y, 0.0)
    cut_idx = np.nonzero(~uncut)[0]
    if cut_idx.size:
        out[cut_idx] = _invert_cut_kernel(rng, y[cut_idx], spec.geom)
    return out
