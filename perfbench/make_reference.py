"""Regenerate ``perfbench/reference.json``, the stored values the checks use.

    PYTHONPATH=src python3 perfbench/make_reference.py

``aw`` holds the adapted distance of each pair shape for seeds 0-99; runs
with other seeds skip that one check.  ``hedge`` holds the seed-independent
values of the hedge operations (its inputs differ between seeds only by a
translation that leaves them unchanged).  Rerun only when a change to the
library is meant to change these numbers, and say so in its change notes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

import workloads

AW_SEEDS = range(100)


def aw_values(seed: int) -> tuple[int, dict]:
    work = workloads.AW(seed)
    return seed, {name: op().distance for name, op in work.ops}


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        aw = dict(pool.map(aw_values, AW_SEEDS))
    hedge = workloads.Hedge(0)
    ops = dict(hedge.ops)
    ref = {
        "aw": {str(s): aw[s] for s in AW_SEEDS},
        "hedge": {
            "robust_curve": ops["robust_curve"]().first_order,
            "utility_first_order": ops["utility_first_order"]().first_order,
            "solve_value": ops["solve_value"]().value,
        },
    }
    path = os.path.join(workloads.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
