"""The public signatures: one fixed set of quadrature tolerances, so no function takes options for them.

``cfg`` is only ever the ``FitConfig`` of :func:`fiberfit.fit` and
:func:`fiberfit.initialize`; the summaries are those of the fit's own
geometry, and a likelihood's derivative order is passed by keyword.
"""

import inspect

import numpy as np
import pytest

import fiberfit
from fiberfit import CoreGeometry, Dataset, GgdParams, init_loglik, likelihood, micro_loglik, ofa_loglik, quadrature
from fiberfit import scales, summary
from conftest import MIX_SIM

MODULES = (fiberfit, scales, likelihood, summary, quadrature)


def _public_callables():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
                yield f"{module.__name__}.{name}", obj


def test_no_public_callable_takes_quadrature_options():
    for name, obj in _public_callables():
        params = inspect.signature(obj).parameters
        if name in ("fiberfit.fit", "fiberfit.initialize"):
            assert params["cfg"].annotation in ("FitConfig", fiberfit.FitConfig), name
        else:
            assert "cfg" not in params, name
    assert not hasattr(fiberfit, "QuadratureConfig") and not hasattr(quadrature, "QuadratureConfig")


@pytest.mark.parametrize("fn", [summary.summary_stats, summary.summary_ses])
def test_summaries_take_the_fit_alone(fn):
    assert list(inspect.signature(fn).parameters) == ["fit"]


def test_the_derivative_order_is_keyword_only():
    geom = CoreGeometry(6.0)
    x, v = np.array([0.5, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    p = GgdParams(2.4, 3.3, 1.5)
    calls = [
        lambda: ofa_loglik(MIX_SIM, Dataset(x, "X"), geom, 2),
        lambda: micro_loglik(p, Dataset(v, "V"), geom, 2),
        lambda: init_loglik(MIX_SIM, Dataset(x, "X"), 2),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert ofa_loglik(MIX_SIM, Dataset(x, "X"), geom, order=2).hessian is not None
