"""Per-point constants held for one fit (``scales._CensoredPoints``) and the datasets that carry them.

``fitting.fit`` attaches one object to the unitless dataset it builds, so
its ~50 censored evaluations share the kernel constants p_uc, c1 and c2, the
microscopy log p_uc and the Chebyshev readout bases of the last suffix-tree
layout.  Evaluations through it must equal fresh one-shot evaluations bit
for bit, it must die with the fit, and public calls must attach nothing.
"""

import gc
import weakref

import numpy as np
import pytest

from fiberfit import (
    CoreGeometry,
    Dataset,
    FitConfig,
    GgdParams,
    LognParams,
    MixtureParams,
    ModelSpec,
    SimSpec,
    density_x_component,
    density_x_mixture,
    fit,
    init_loglik,
    micro_loglik,
    ofa_loglik,
    sample_v,
    sample_x,
)
from fiberfit import scales
from fiberfit.scales import _BLOCK
from conftest import MIX_SIM

MIX_LOGN = MixtureParams(0.35, LognParams(-1.5, 0.8), LognParams(0.9, 0.25))
# (wide, narrow) mixtures; the narrow fines is a spike between the points of
# the n = 300 sample, so its suffix tree splits at every order and the wide
# one's does not split the same way
LAYOUTS = {
    "ggamma": (MIX_SIM, MixtureParams(0.3, GgdParams(0.1, 20.0, 2.0), GgdParams(2.0, 2.8, 2.2))),
    "lognormal": (MIX_LOGN, MixtureParams(0.35, LognParams(-1.5, 0.05), LognParams(0.9, 0.25))),
}


def _scoped(x, scale, geom):
    """A dataset carrying one object for all its evaluations on geom, as ``fitting.fit`` builds it."""
    data = Dataset(x, scale)
    data._points = scales._CensoredPoints(data.unique, geom.r)
    return data


def _bits(ev):
    """Every number of an evaluation as bytes, so that equal means bit-identical."""
    arrays = (ev.loglik, ev.gradient, ev.hessian, ev.per_point_loglik)
    return tuple(None if a is None else np.asarray(a, dtype=float).tobytes() for a in arrays)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("family", LAYOUTS)
def test_layout_change_and_return_read_bit_identically(geom6, family, order):
    wide, narrow = LAYOUTS[family]
    x = sample_x(SimSpec("X", MIX_SIM, geom6, 300, seed=3))
    data = _scoped(x, "X", geom6)
    layouts = []
    for mix in (wide, wide, wide, narrow, narrow, wide, wide):
        got = ofa_loglik(mix, data, geom6, order=order)
        assert _bits(got) == _bits(ofa_loglik(mix, Dataset(x, "X"), geom6, order=order))
        layouts.append(data._points._layout[0])
    assert not np.array_equal(layouts[3], layouts[0])  # the narrow tree split
    assert np.array_equal(layouts[5], layouts[0])  # and the wide layout came back
    assert data._points._bases  # its bases were kept and read again


@pytest.mark.parametrize("order", [0, 1, 2])
def test_datasets_and_radii_interleaved_read_bit_identically(order):
    g6, g7 = CoreGeometry(6.0), CoreGeometry(7.0)
    xs = [sample_x(SimSpec("X", MIX_SIM, g6, 300, seed=s)) for s in (3, 4)]
    scoped = [_scoped(x, "X", g6) for x in xs]
    for mix in (MIX_SIM, MIX_LOGN, MIX_SIM, MIX_LOGN):
        for x, data in zip(xs, scoped):
            for geom in (g6, g7):  # at r = 7 the held object does not apply and stays as it was
                got = ofa_loglik(mix, data, geom, order=order)
                assert _bits(got) == _bits(ofa_loglik(mix, Dataset(x, "X"), geom, order=order))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_held_bases_of_every_block_read_bit_identically(geom6, order):
    x = sample_x(SimSpec("X", MIX_SIM, geom6, 2 * _BLOCK + 1, seed=43))
    data = _scoped(x, "X", geom6)
    for _ in range(3):
        got = ofa_loglik(MIX_SIM, data, geom6, order=order)
        assert _bits(got) == _bits(ofa_loglik(MIX_SIM, Dataset(x, "X"), geom6, order=order))
    assert len(data._points._bases) == 3 and len(data._points._kernel) == 3


@pytest.mark.parametrize("order", [0, 1, 2])
def test_microscopy_log_puc_reads_bit_identically(order):
    g25, g3 = CoreGeometry(2.5), CoreGeometry(3.0)
    v = sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), g25, 300, seed=7))
    data = _scoped(v, "V", g25)
    for p in (GgdParams(2.4, 3.3, 1.5), LognParams(0.5, 0.4), GgdParams(2.4, 3.3, 1.5)):
        for geom in (g25, g3):
            got = micro_loglik(p, data, geom, order=order)
            assert _bits(got) == _bits(micro_loglik(p, Dataset(v, "V"), geom, order=order))


@pytest.fixture
def made(monkeypatch):
    """Weak references to every ``_CensoredPoints`` made while the test runs."""
    refs = []
    init = scales._CensoredPoints.__init__

    def recording_init(self, *args):
        init(self, *args)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(scales._CensoredPoints, "__init__", recording_init)
    return refs


def _attached(data):
    return {name: id(value) for name, value in vars(data).items()}


@pytest.mark.parametrize("data_type", ["ofa", "microscopy"])
def test_nothing_held_outlives_the_fit(made, data_type):
    if data_type == "ofa":
        geom = CoreGeometry(6.0)
        data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 300, seed=3)), "X")
    else:
        geom = CoreGeometry(2.5)
        data = Dataset(sample_v(SimSpec("V", GgdParams(2.4, 3.3, 1.5), geom, 300, seed=7)), "V")
    before = _attached(data)
    gc.disable()  # the object must die by reference counting, not wait for a collection
    try:
        result = fit(data, ModelSpec("ggamma", data_type, geom), FitConfig(n_starts=2))
        assert len(made) == 1 and made[0]() is None
    finally:
        gc.enable()
    assert result.convergence == "success"
    assert _attached(data) == before and data._points is None


def test_nothing_held_outlives_a_grouped_fit(made):
    # above _BLOCK distinct values the fit's problem holds two datasets, the groups
    # and every point, each with its object; a reference cycle through the problem
    # would keep both alive until a collection
    geom = CoreGeometry(6.0)
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom, 20_000, seed=7001)), "X")
    assert data.unique.size > _BLOCK
    before = _attached(data)
    gc.disable()
    try:
        result = fit(data, ModelSpec("ggamma", "ofa", geom), FitConfig(n_starts=2))
        assert len(made) == 2 and all(ref() is None for ref in made)
    finally:
        gc.enable()
    assert result.convergence == "success"
    assert _attached(data) == before and data._points is None


def test_public_calls_attach_nothing(made, geom6):
    data = Dataset(sample_x(SimSpec("X", MIX_SIM, geom6, 300, seed=3)), "X")
    before = _attached(data)
    for order in (0, 1, 2):
        ofa_loglik(MIX_SIM, data, geom6, order=order)
        init_loglik(MIX_SIM, data, order=order)
    density_x_mixture(data.values, MIX_SIM, geom6)
    density_x_component(data.values, MIX_SIM.fibers, geom6)
    micro = Dataset(np.array([0.5, 1.0, 2.0, 3.0]), "V")
    micro_before = _attached(micro)
    micro_loglik(GgdParams(2.4, 3.3, 1.5), micro, CoreGeometry(2.5), order=2)
    assert _attached(data) == before and data._points is None
    assert _attached(micro) == micro_before and micro._points is None
    assert len(made) == 6 and all(ref() is None for ref in made)  # one fresh object per call on (0, 2r)


def test_dataset_owns_a_read_only_copy_of_its_values():
    raw = np.array([0.4, 1.1, 1.1, 2.5, 3.2])
    data = Dataset(raw, "X")
    raw[0] = 3.0  # the caller edits its array after construction
    assert data.values[0] == 0.4 and np.array_equal(data.unique[data.inverse], data.values)
    fresh = Dataset(np.array([0.4, 1.1, 1.1, 2.5, 3.2]), "X")
    assert init_loglik(MIX_SIM, data).loglik == init_loglik(MIX_SIM, fresh).loglik
    for arr in (data.values, data.unique, data.counts, data.inverse):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_dataset_fields_cannot_be_reassigned():
    data = Dataset(np.array([1.0, 2.0]), "X")
    for name, value in [("values", np.array([5.0, 6.0, 7.0])), ("scale", "V"), ("unique", np.array([5.0])),
                        ("counts", np.array([3.0])), ("inverse", np.array([0]))]:
        with pytest.raises(AttributeError):
            setattr(data, name, value)
    assert data.n == 2 and data.scale == "X" and np.array_equal(data.unique[data.inverse], data.values)
    data._points = scales._CensoredPoints(data.unique, 6.0)  # what fit attaches stays assignable
    data._points = None


def test_datasets_are_equal_only_to_themselves():
    a, b = Dataset(np.array([1.0, 2.0])), Dataset(np.array([1.0, 2.0]))
    assert a == a and not a == b and a != b  # no elementwise array comparison
    assert len({a, b, a}) == 2
