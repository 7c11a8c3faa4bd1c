"""Record the reference log likelihood of every input a run can reach.

    python3 bench/make_references.py --seeds 0-20 [--workloads ofa_exact micro_cli]

The gate fails a fit whose log likelihood falls below its reference by more
than the harness's tolerance.  Entries are merged into references/<workload>.json, so
workloads and seed ranges can be recorded in separate invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range a-b")
    parser.add_argument("--workloads", nargs="+", default=list(harness.WORKLOADS), choices=list(harness.WORKLOADS))
    args = parser.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))

    failed = 0
    harness.REFERENCES_DIR.mkdir(exist_ok=True)
    for name in args.workloads:
        wl = harness.WORKLOADS[name]
        refs = dict(harness.load_references(name))
        workdir = ROOT / ".bench_run" / f"references-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            for seed in range(first, last + 1):
                cases, _, _ = wl.generate(seed, workdir)
                for case in cases:
                    att = harness.attempt(wl, case)
                    if att.failure is not None:
                        failed += 1
                        print(f"{name} {case.key}: FAILED {att.failure}", flush=True)
                        continue
                    refs[case.key] = wl.loglik_of(case, att.outcome)
                    print(f"{name} {case.key}: {refs[case.key]!r} ({att.seconds:.2f} s)", flush=True)
                path = harness.REFERENCES_DIR / f"{name}.json"
                path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
