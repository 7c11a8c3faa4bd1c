"""The coarse-to-fine first start of fits on many distinct values (``fitting._grouped``).

Above one streamed block of distinct values (``scales._BLOCK`` = 8 192) the
initialization and the first start's Newton steps converge on 1 024
equal-count groups of the unitless data, and Newton steps on every point
finish the start from that optimum (L-BFGS-B on every point from where
they stopped when either stops short).
The groups must be equal-count, whole in their ties and made of data values;
fits must reach the optimum of the full-data path, with fewer evaluations on
every point, and not depend on data order; smaller data must never touch
groups.  The unitless dataset is built from the distinct values
and must equal the one built from every point.
"""

import logging

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    Dataset,
    EvaluationError,
    FitConfig,
    GgdParams,
    ModelSpec,
    SimSpec,
    fit,
    sample_v,
    sample_x,
)
from fiberfit import fitting
from fiberfit.scales import _BLOCK
from conftest import MIX_SIM

GEOM = CoreGeometry(6.0)
OFA_GGAMMA = ModelSpec("ggamma", "ofa", GEOM)
# log likelihoods of the full-data path (no groups) on n = 20 000 `sample_x`
# samples of the benchmark mixture, FitConfig(n_starts=1)
FULL_PATH = {7001: -19_904.864089509694, 7002: -19_774.144755664005, 7003: -19_991.770959501915}
# the log likelihood of the rounded sample below, FitConfig(n_starts=1), reached by
# L-BFGS-B in the BHHH-scaled coordinates before the Newton first start replaced it
ROUNDED = -29_565.088932882187


def _rounded():
    """An ofa_binned-like sample: 30 000 lengths on a 0.01 grid, a few hundred distinct values."""
    x = np.round(sample_x(SimSpec("X", MIX_SIM, GEOM, 30_000, seed=1)), 2).clip(0.01, 11.99)
    return Dataset(x, "X")


def _ofa(n, seed):
    return Dataset(sample_x(SimSpec("X", MIX_SIM, GEOM, n, seed=seed)), "X")


def _same(a, b):
    """Two Datasets whose four arrays are equal bit for bit, dtypes included."""
    return all(
        np.array_equal(getattr(a, k), getattr(b, k)) and getattr(a, k).dtype == getattr(b, k).dtype
        for k in ("values", "unique", "counts", "inverse")
    ) and a.scale == b.scale


def _counting(monkeypatch, points=None):
    """Record (distinct values, order) of every censored evaluation the fit makes, and its parameters in ``points``."""
    calls = []
    original = fitting.ofa_loglik

    def counted(*a, **k):
        calls.append((a[1].unique.size, a[4]))
        if points is not None:
            points.append((a[1].unique.size, a[4], repr(a[0])))
        return original(*a, **k)

    monkeypatch.setattr(fitting, "ofa_loglik", counted)
    return calls


def test_groups_hold_equal_counts_of_data_values():
    data = _ofa(20_000, 7001)
    assert data.unique.size == data.n
    groups = fitting._grouped(data)
    assert groups.unique.size == fitting._GROUPS
    assert set(groups.counts) == {19.0, 20.0} and groups.counts.sum() == data.n
    assert np.all(np.isin(groups.unique, data.unique))
    # each group's value is its count median: the lower median of its sorted points
    ends = np.cumsum(groups.counts).astype(int)
    for lo, hi, value in zip(np.r_[0, ends[:-1]], ends, groups.unique):
        assert value == data.unique[lo + (hi - lo - 1) // 2]
    assert groups.n == data.n and np.array_equal(groups.values, np.repeat(groups.unique, 19 + (groups.counts == 20)))


def test_groups_keep_ties_whole():
    rng = np.random.default_rng(4)
    x = np.r_[rng.uniform(0.1, 5.0, 9_000), np.round(rng.uniform(0.1, 5.0, 6_000), 2), np.full(70, 2.5)]
    data = Dataset(x, "X")
    groups = fitting._grouped(data)
    # every group boundary is the end of a distinct value: no value is split
    assert np.all(np.isin(np.cumsum(groups.counts), np.cumsum(data.counts)))
    assert groups.counts.sum() == data.n and groups.unique.size <= fitting._GROUPS
    assert np.all(np.isin(groups.unique, data.unique)) and np.all(np.diff(groups.unique) > 0.0)
    # without its last value, a group holds fewer points than an equal-count group
    ends = np.cumsum(groups.counts)
    last = data.counts[np.searchsorted(np.cumsum(data.counts), ends)]
    assert np.all(groups.counts - last < np.ceil(data.n / fitting._GROUPS))
    assert 2.5 in groups.unique  # the 70 points at 2.5 fill a group of their own


def test_dataset_from_counts_equals_the_dataset_of_its_points():
    x = np.round(np.random.default_rng(1).uniform(0.1, 3.0, 500), 1)
    data = Dataset(x, "V")
    assert _same(Dataset._from_counts(data.unique, data.counts, "V", data.inverse), data)
    repeated = Dataset._from_counts(data.unique, data.counts, "V")
    assert _same(repeated, Dataset(np.sort(x), "V"))
    with pytest.raises(ValueError):
        Dataset._from_counts([2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Dataset._from_counts([1.0, 2.0], [1.0, 0.5])


@pytest.mark.parametrize("case", ["continuous", "rounded", "merged"])
def test_unitless_dataset_is_that_of_the_divided_points(case):
    rng = np.random.default_rng(2)
    if case == "continuous":
        x = sample_x(SimSpec("X", MIX_SIM, GEOM, 3_000, seed=3))
    elif case == "rounded":
        x = np.round(sample_x(SimSpec("X", MIX_SIM, GEOM, 3_000, seed=3)), 2).clip(0.01, 11.99)
    else:
        # neighbours one ulp apart near 1.9, divided by about 1.9: the quotients
        # above 1 are closer than their ulp, so division merges some of them
        x = rng.permutation(np.repeat(1.9 + np.arange(41) * np.spacing(1.9), rng.integers(1, 4, 41)))
    data = Dataset(x, "X")
    unit_data, *_ = fitting._unitless(data, OFA_GGAMMA)
    s0 = np.median(x)
    assert _same(unit_data, Dataset(x / s0, "X"))
    if case == "merged":
        assert unit_data.unique.size < data.unique.size


@pytest.mark.parametrize("n, grouped", [(_BLOCK, False), (_BLOCK + 1, True)])
def test_groups_only_above_one_block_of_distinct_values(n, grouped, monkeypatch):
    calls = _counting(monkeypatch)
    data = _ofa(n, 11)
    assert data.unique.size == n
    res = fit(data, OFA_GGAMMA, FitConfig(n_starts=1))
    assert res.convergence == "success"
    assert {size for size, _ in calls} == ({n, fitting._GROUPS} if grouped else {n})


def test_rounded_data_never_touch_groups(monkeypatch):
    data = _rounded()
    assert data.unique.size <= _BLOCK
    grouped = []
    monkeypatch.setattr(fitting, "_grouped", lambda d: grouped.append(d) or None)
    res = fit(data, OFA_GGAMMA, FitConfig(n_starts=1))
    assert res.convergence == "success" and not grouped


def test_newton_first_start_on_rounded_data(monkeypatch):
    # Newton steps from the initialization reach the known optimum that L-BFGS-B
    # reached, with order-2 evaluations alone
    calls = _counting(monkeypatch)
    res = fit(_rounded(), OFA_GGAMMA, FitConfig(n_starts=1))
    assert res.convergence == "success" and "not a known optimum" not in res.trace[0].message
    assert res.trace[0].message.startswith("Newton start on every point")
    assert res.loglik == pytest.approx(ROUNDED, abs=1e-7)
    orders = [order for _, order in calls]
    assert orders.count(1) == 0 and orders.count(2) <= 12


@pytest.mark.parametrize("seed", sorted(FULL_PATH))
def test_large_fits_reach_the_full_path_optimum_with_few_full_evaluations(seed, monkeypatch):
    calls = _counting(monkeypatch)
    res = fit(_ofa(20_000, seed), OFA_GGAMMA, FitConfig(n_starts=1))
    assert res.convergence == "success"
    assert res.loglik == pytest.approx(FULL_PATH[seed], abs=1e-7)
    full = [order for size, order in calls if size == 20_000]
    assert full.count(1) == 0  # the full-data path makes about 21
    assert full.count(2) <= 5  # the Newton finish, the polish and its Newton step
    groups = [order for size, order in calls if size == fitting._GROUPS]
    assert len(groups) == len(calls) - len(full) and 1 not in groups  # Newton steps, their halvings at order 0


def test_grouped_and_full_paths_agree_within_their_standard_errors(monkeypatch):
    data = _ofa(20_000, 7004)
    res = fit(data, OFA_GGAMMA, FitConfig(n_starts=1))
    monkeypatch.setattr(fitting, "_BLOCK", 10**9)  # the full-data path
    ref = fit(data, OFA_GGAMMA, FitConfig(n_starts=1))
    assert res.convergence == ref.convergence == "success"
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)
    assert np.all(np.abs(res.theta_tilde - ref.theta_tilde) <= 0.01 * ref.se_tilde)
    assert res.trace[0].n_iter > ref.trace[0].n_iter  # the groups' iterations count toward the start


def test_shuffled_data_give_the_same_fit_bit_for_bit():
    x = sample_x(SimSpec("X", MIX_SIM, GEOM, 20_000, seed=7005))
    a = fit(Dataset(x, "X"), OFA_GGAMMA, FitConfig(n_starts=2))
    b = fit(Dataset(np.random.default_rng(0).permutation(x), "X"), OFA_GGAMMA, FitConfig(n_starts=2))
    assert a.loglik == b.loglik and a.convergence == b.convergence == "success"
    for field in ("theta_tilde", "cov_theta", "se_tilde"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("family", ["ggamma", "lognorm"])
def test_microscopy_follows_the_same_rule(family, monkeypatch):
    # the lognormal has no (m, log s, log k) block, so its Newton finish steps in theta
    geom = CoreGeometry(2.5)
    data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 9_000, seed=2)), "V")
    model = ModelSpec(family, "microscopy", geom)
    sizes = []
    original = fitting.micro_loglik
    monkeypatch.setattr(fitting, "micro_loglik", lambda *a, **k: sizes.append(a[1].unique.size) or original(*a, **k))
    res = fit(data, model, FitConfig(n_starts=1))
    assert fitting._GROUPS in sizes and data.n in sizes
    monkeypatch.setattr(fitting, "_BLOCK", 10**9)
    ref = fit(data, model, FitConfig(n_starts=1))
    assert res.convergence == ref.convergence == "success"
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)


def test_failed_grouped_run_falls_back_to_every_point(monkeypatch, caplog):
    original = fitting.ofa_loglik

    def failing_on_groups(*a, **k):
        if a[1].unique.size == fitting._GROUPS:
            raise EvaluationError("injected failure on the groups")
        return original(*a, **k)

    monkeypatch.setattr(fitting, "ofa_loglik", failing_on_groups)
    with caplog.at_level(logging.WARNING, logger="fiberfit.fitting"):
        res = fit(_ofa(20_000, 7001), OFA_GGAMMA, FitConfig(n_starts=1))
    assert "failed (injected failure on the groups)" in caplog.text
    assert res.convergence == "success"
    assert res.loglik == pytest.approx(FULL_PATH[7001], abs=1e-7)


def test_failed_newton_finish_falls_back_to_lbfgsb_on_every_point(monkeypatch):
    original = fitting.ofa_loglik
    orders, points = [], []

    def failing_first_full_order_2(*a, **k):
        if a[1].unique.size == 20_000:
            orders.append(a[4])
            points.append(a[0])
            if orders == [2]:
                raise EvaluationError("injected failure of the first order-2 evaluation on every point")
        return original(*a, **k)

    monkeypatch.setattr(fitting, "ofa_loglik", failing_first_full_order_2)
    res = fit(_ofa(20_000, 7001), OFA_GGAMMA, FitConfig(n_starts=1))
    assert "Newton finish on every point stopped (an order-2 evaluation failed)" in res.trace[0].message
    assert orders.count(1) > 0  # L-BFGS-B on every point
    assert orders[1] == 1 and points[1] == points[0]  # from where the Newton steps on the groups ended
    assert res.convergence == "success"
    assert res.loglik == pytest.approx(FULL_PATH[7001], abs=1e-7)


def test_grouped_run_on_a_face_falls_back_to_every_point():
    # k2 capped below its estimate, about 2.2: the grouped optimum lies on that face,
    # and the first start reaches on every point what the theta path reaches there
    data = _ofa(10_000, 11)
    lo, hi = (1e-4,) * 7, (1.0 - 1e-4,) + (50.0,) * 5 + (1.8,)
    cfg = FitConfig(lower=lo, upper=hi, n_starts=1)
    res = fit(data, OFA_GGAMMA, cfg)
    assert "Newton finish on every point" in res.trace[0].message
    start = tuple(OFA_GGAMMA.from_theta(fitting.initialize(data, OFA_GGAMMA, cfg).values))
    ref = fit(data, OFA_GGAMMA, FitConfig(lower=lo, upper=hi, par_start=start, n_starts=1))
    assert res.convergence == ref.convergence == "success"
    assert res.theta_tilde[6] == pytest.approx(1.8, rel=1e-12)
    assert res.loglik == pytest.approx(ref.loglik, abs=1e-8)
