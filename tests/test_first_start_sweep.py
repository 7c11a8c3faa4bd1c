"""Every first start of a sweep of small OFA fits is a known optimum reached by Newton steps (slow: about 60 s).

Deselected by default; run it with ``pytest -m slow tests``.  The fits are
n = 300 generalized gamma and lognormal mixture fits of ``sample_x`` seeds
5000-5229, the mixture ``MIX_SIM`` on r = 6, with the default
``FitConfig``: some of their initializations end on a face of the box, and
some Newton steps land where an order-2 evaluation fails and are halved.
Each must still end on one certified start, reached by Newton steps on every point.
"""

import pytest

from fiberfit import CoreGeometry, Dataset, FitConfig, ModelSpec, SimSpec, fit, sample_x
from conftest import MIX_SIM


@pytest.mark.slow
@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_every_first_start_of_the_n300_sweep_is_a_known_optimum(family):
    geom = CoreGeometry(6.0)
    model = ModelSpec(family, "ofa", geom)
    failed = []
    for seed in range(5000, 5230):
        res = fit(Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 300, seed=seed)), "X"), model, FitConfig())
        message = res.trace[0].message
        if res.convergence != "success" or res.starts_tried != 1 or "stopped" in message:
            failed.append((seed, res.convergence, res.starts_tried, message))
    assert not failed
