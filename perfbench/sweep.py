"""Repeat ``run.py`` over seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workloads aw curve hedge cli --seeds 0-9 \
        --seconds 25 --out .perfbench_out/sweep.json

For every workload and end-to-end metric it reports the median over the
runs, the quartiles from ``statistics.quantiles(values, n=4)`` and the
spread (q3 - q1) / median, the figure the benchmark's bounds are set
against.  With ``--trace 1`` it runs the traced process instead and
reports whether every count repeated across the runs of one seed set.
Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr.decode()[-2000:]}")
    lines = proc.stdout.decode().strip().splitlines()
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])["detail"]}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["aw", "curve", "hedge", "cli"])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {"environment": environment(), "seconds": args.seconds, "seeds": args.seeds,
               "trace": args.trace}
    for workload in args.workloads:
        runs = [run(workload, s, args.seconds, args.trace) for s in seeds(args.seeds)]
        names = runs[0]["result"]["metrics"]
        entry = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {k: spread([r["result"]["metrics"][k]["value"] for r in runs])
                        for k in names},
        }
        if args.trace:
            entry["counts_repeat"] = all(r["detail"]["counts_repeat"] for r in runs)
        else:
            entry["pass_times"] = [r["detail"]["wall_s"]["samples"] for r in runs]
            # the same runs unscaled, to show what the speed probes take out
            entry["raw"] = {k: spread([r["detail"][f"raw_{k}"]["median"] for r in runs])
                            for k in ("wall_s", "setup_s")}
            entry["op_s"] = {op: statistics.median(r["detail"]["op_s"][op] for r in runs)
                             for op in runs[0]["detail"]["op_s"]}
        summary[workload] = entry
        print(workload, json.dumps({k: {"median": round(v["median"], 4),
                                        "spread": round(v["spread"], 4)}
                                    for k, v in entry["metrics"].items()
                                    if not args.trace or k.endswith(("_s", ".calls"))}),
              "raw", json.dumps({k: {"median": round(v["median"], 4),
                                      "spread": round(v["spread"], 4)}
                                  for k, v in entry.get("raw", {}).items()}),
              f"correct={entry['correct']}", flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
