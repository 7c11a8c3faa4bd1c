"""fiberfit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload ofa_exact --seed 1 --seconds 24 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, each
with its unit.  The line before it names the inputs (datasets, n, share of
unique values).  Scratch files go to ``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one thread per process: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "fiberfit" / "__init__.py").is_file():
        print(f"error: no fiberfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness

    metrics, attempts, inputs = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    failures = [a.failure for a in attempts if a.failure is not None]
    for failure in failures:
        print(f"failed fit: {failure}", file=sys.stderr)
    print(inputs)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(attempts),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
