"""Increment-core censoring geometry.

An increment core of radius ``r`` is bored horizontally through vertically
aligned cells, so a cell of true length ``y`` may be cut once or twice.  This
module provides the closed forms governing that mechanism:

* ``area_factor``    t(y) = pi*r^2 + 2*r*y, the sampling-area weight,
* ``prob_uncut``     probability that a length-y cell is left uncut,
* ``cut_kernel``     sub-density of the observed (cut) length given y,
* ``cut_kernel_cdf`` its elementary antiderivative, used for inverse-CDF
  sampling and completeness checks.

All functions broadcast over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoreGeometry",
    "area_factor",
    "prob_uncut",
    "cut_kernel",
    "cut_kernel_cdf",
]


@dataclass(frozen=True)
class CoreGeometry:
    """Increment core of radius ``r`` (mm); 2r is the longest observable length.

    The closed forms square r, so r must keep r^2 a normal double and 8 r^2
    finite: roughly 1.5e-154 <= r <= 4.7e153.
    """

    r: float

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r <= 0.0:
            raise ValueError("core radius r must be finite and positive")
        r = float(self.r)  # a Python float squares without an overflow warning
        if r * r < np.finfo(float).tiny or not np.isfinite(8.0 * r * r):
            raise ValueError(
                f"core radius r = {r:g} is outside about [1.5e-154, 4.7e153], where r^2 and 8 r^2 are normal"
            )

    @property
    def diameter(self) -> float:
        return 2.0 * self.r


def _check_nonneg(y):
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("length must be finite and nonnegative")
    return arr


def area_factor(y, geom: CoreGeometry):
    """t(y) = pi*r^2 + 2*r*y for y >= 0."""
    arr = _check_nonneg(y)
    out = np.pi * geom.r**2 + 2.0 * geom.r * arr
    return float(out) if np.ndim(y) == 0 else out


def prob_uncut(y, geom: CoreGeometry):
    """Probability that a cell of true length y is uncut by the core.

    Equals 1 at y = 0 (analytic limit), 0 for y > 2r, and

        [2 r^2 arcsin(sqrt(4r^2 - y^2) / (2r)) - (y/2) sqrt(4r^2 - y^2)] / t(y)

    in between.  Strictly decreasing on (0, 2r].
    """
    arr = _check_nonneg(y)
    out = _prob_uncut_unchecked(arr, geom.r)
    return float(out) if np.ndim(y) == 0 else out


def _prob_uncut_unchecked(y, r):
    y = np.asarray(y, dtype=float)
    # radicand can underflow slightly negative for y ~ 2r
    rad = np.clip(4.0 * r * r - y * y, 0.0, None)
    root = np.sqrt(rad)
    # arctan2(root, y) = arcsin(root / 2r), well conditioned at both ends
    num = 2.0 * r * r * np.arctan2(root, y) - 0.5 * y * root
    p = num / (np.pi * r * r + 2.0 * r * y)
    p = np.where(y > 2.0 * r, 0.0, p)
    return np.clip(p, 0.0, 1.0)


def cut_kernel(x, y, geom: CoreGeometry):
    """Conditional sub-density of the observed cut length x given true length y.

        k(x | y) = (8 r^2 - 3 x^2 + y x) / (t(y) sqrt(4 r^2 - x^2))

    Defined for 0 < x < min(y, 2r); its integral over x plus prob_uncut(y)
    is 1 for y <= 2r, and 1 alone for y > 2r.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(x_arr >= 2.0 * geom.r):
        raise ValueError("observed length x must lie strictly inside (0, 2r)")
    if np.any(x_arr >= y_arr):
        raise ValueError("observed cut length x must be strictly less than y")
    out = _cut_kernel_unchecked(x_arr, y_arr, geom.r)
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def _cut_kernel_unchecked(x, y, r):
    t = np.pi * r * r + 2.0 * r * y
    return (8.0 * r * r - 3.0 * x * x + y * x) / (t * np.sqrt(4.0 * r * r - x * x))


def cut_kernel_cdf(x, y, geom: CoreGeometry):
    """Integral of cut_kernel(. | y) from 0 to x (the sub-CDF of cut lengths).

    Elementary antiderivative:

        [2 r^2 arcsin(x / (2r)) + (3x/2 - y) sqrt(4r^2 - x^2) + 2 r y] / t(y)

    Tends to 1 - prob_uncut(y) as x -> min(y, 2r).
    """
    r = geom.r
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any(x_arr < 0.0) or np.any(x_arr > 2.0 * r):
        raise ValueError("x must lie in [0, 2r]")
    rad = np.clip(4.0 * r * r - x_arr * x_arr, 0.0, None)
    root = np.sqrt(rad)
    num = (
        2.0 * r * r * np.arcsin(np.clip(x_arr / (2.0 * r), 0.0, 1.0))
        + (1.5 * x_arr - y_arr) * root
        + 2.0 * r * y_arr
    )
    out = num / (np.pi * r * r + 2.0 * r * y_arr)
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out
