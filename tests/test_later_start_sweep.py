"""Every start of fits given a ``par_start`` is what its status says (slow: about 25 s).

Deselected by default; run it with ``pytest -m slow tests``.  Each fit
starts from its own :func:`initialize` output as ``par_start``, so all
five starts run:
- OFA generalized gamma and lognormal mixtures, n = 300 and 3 000
  ``sample_x`` seeds 5000-5029 of ``MIX_SIM`` on r = 6, jitter seed 1;
- microscopy generalized gamma and lognormal fits, n = 300 ``sample_v``
  seeds 0-9 of GgdParams(2.4, 3.3, 1.5) on r = 2.5, jitter seeds 0-4, where
  later starts reach flat corners of the box.

No fit may raise or warn.  Its log likelihood must be at least the default
fit's less 1e-9: below 8 192 distinct values start 0 takes the default
fit's path.  Every ``success`` and ``duplicate`` start must end on a known
optimum.
"""

import warnings

import numpy as np
import pytest

from fiberfit import CoreGeometry, Dataset, FitConfig, GgdParams, ModelSpec, SimSpec, fit, initialize, sample_v, sample_x
from conftest import MIX_SIM, assert_known_optima, start_ends

SWEEPS = {  # (data type, n): (geometry, sample seeds, jitter seeds)
    ("ofa", 300): (CoreGeometry(6.0), range(5000, 5030), (1,)),
    ("ofa", 3000): (CoreGeometry(6.0), range(5000, 5030), (1,)),
    ("microscopy", 300): (CoreGeometry(2.5), range(10), range(5)),
}


@pytest.mark.slow
@pytest.mark.parametrize("data_type, n", list(SWEEPS))
@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_every_start_given_a_par_start_is_what_its_status_says(data_type, n, family, monkeypatch):
    geom, seeds, jitters = SWEEPS[data_type, n]
    model = ModelSpec(family, data_type, geom)
    ends = start_ends(monkeypatch)
    for seed in seeds:
        if data_type == "ofa":
            data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, n, seed=seed)), "X")
        else:
            data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, n, seed=seed)), "V")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default = fit(data, model, FitConfig())
            par_start = tuple(model.from_theta(initialize(data, model).values))
            for jitter in jitters:
                ends.clear()
                res = fit(data, model, FitConfig(par_start=par_start, n_starts=5, seed=jitter))
                assert res.starts_tried == 5 and np.isfinite(res.loglik), (seed, jitter)
                assert res.loglik >= default.loglik - 1e-9, (seed, jitter, res.loglik, default.loglik)
                assert_known_optima(res, ends)
