"""Gamma-family special functions on the positive half line.

Thin validated wrappers around scipy.special, which provides Lanczos-grade
accuracy for log-gamma and series/asymptotic switching for the psi functions.
All three functions accept scalars or arrays and require strictly positive,
finite arguments.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = ["log_gamma", "digamma", "trigamma"]


def _validated(k):
    arr = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("argument must be finite and strictly positive")
    return arr


def _as_input(result, k):
    return float(result) if np.isscalar(k) or np.ndim(k) == 0 else result


def log_gamma(k):
    """ln Gamma(k) for k > 0."""
    return _as_input(_sp.gammaln(_validated(k)), k)


def digamma(k):
    """Psi(k) = d/dk ln Gamma(k) for k > 0."""
    return _as_input(_sp.psi(_validated(k)), k)


def _trigamma(k):
    """Psi1(k) = zeta(2, k), unchecked: the bits of polygamma(1, k) at about a seventh of its cost."""
    return _sp.zeta(2.0, k)


def trigamma(k):
    """Psi1(k) = d/dk Psi(k) for k > 0."""
    return _as_input(_trigamma(_validated(k)), k)
