"""Checks of the benchmark harness itself, not of fiberfit.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracing  # noqa: E402
from fiberfit import cli, fitting, likelihood, quadrature, scales, summary  # noqa: E402
from fiberfit.likelihood import Dataset  # noqa: E402

SMALL_OFA = harness.OfaWorkload("ofa_small", n=1500, binned=False, pool=2, trace_pool=2)
PACKAGE_MODULES = (cli, fitting, likelihood, quadrature, scales, summary)
COUNTS = [
    "fitting.nit",
    "fitting.nfev",
    "likelihood.calls_o0",
    "likelihood.calls_o1",
    "likelihood.calls_o2",
    "likelihood.init_calls",
] + [
    f"quadrature.{site}.{what}"
    for _, site in tracing.QUADRATURE_SITES
    for what in ("calls", "segments", "panels", "splits")
]


@pytest.mark.parametrize("name", ["ofa_small", "micro_cli"])
def test_traced_counts_repeat_exactly(name, monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "ofa_small", SMALL_OFA)
    first, _, _ = harness.run(name, 3, 1.0, True, ROOT)
    second, _, _ = harness.run(name, 3, 1.0, True, ROOT)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["fitting.nit"] > 0 and first["likelihood.calls_o1"] > 0
    busy_site = "suffix" if name == "ofa_small" else "normalizer"
    assert first[f"quadrature.{busy_site}.panels"] > 0


def test_wrappers_are_removed_after_tracing():
    before = {m: dict(vars(m)) for m in PACKAGE_MODULES}
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert fitting.fit is not before[fitting]["fit"]
            assert scales.segment_integrals is not before[scales]["segment_integrals"]
            raise RuntimeError("leave the block early")
    for module, attrs in before.items():
        assert all(vars(module)[k] is v for k, v in attrs.items()), module.__name__


def test_seed_changes_the_inputs(tmp_path):
    a, warm_a, _ = SMALL_OFA.generate(1, tmp_path)
    again, _, _ = SMALL_OFA.generate(1, tmp_path)
    b, _, _ = SMALL_OFA.generate(2, tmp_path)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a, again))
    assert not any(np.array_equal(x.values, y.values) for x, y in zip(a, b))
    assert not any(np.array_equal(x.values, warm_a.values) for x in a)

    micro = harness.WORKLOADS["micro_cli"]
    texts = []
    for seed in (1, 2):
        workdir = tmp_path / f"micro{seed}"
        workdir.mkdir()
        texts.append([case.path.read_text() for case in micro.generate(seed, workdir)[0]])
    assert texts[0] != texts[1]


def test_failures_count_against_attempts(tmp_path):
    cases, _, _ = SMALL_OFA.generate(1, tmp_path)
    outside = harness.Case("bad", np.array([1.0, 13.0]), data=Dataset(np.array([1.0, 13.0]), "X"))
    assert harness.attempt(SMALL_OFA, outside).failure.startswith("raised")
    assert harness.gate("ofa_small", cases[0], "max_iter", [1.0], 0.0) == "convergence max_iter"
    assert harness.gate("ofa_small", cases[0], "success", None, 0.0) == "no standard errors"
    far = harness.wald_distance([1.0], [0.1], np.array([0.0]))
    assert far is not None and "SE from the truth" in far
