"""awsens benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload aw --seed 0 --seconds 25 --trace 0

Run from the repository root (any checkout holding ``src/awsens`` and
``fixtures``).  Workloads: ``aw``, ``curve`` and ``hedge`` run the library
in process, ``cli`` runs the command line; see ``perfbench/README.md`` for
what each one runs and why.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median seconds
per pass over the workload's operations), ``setup_s`` (median, over
several fresh processes, of the time from spawning the workload process
to its first timed operation) and ``peak_rss_mb`` (peak resident memory of
the workload process, or of its largest CLI child).  Both times are
reported at the reference host speed: speed probes run alongside and
scale them (``calibrate.py``); the raw times are in the details.
``--trace 1`` runs the separate traced process and reports the per-layer
metrics instead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (every pass time, raw and scaled, quartiles, sample counts,
failure messages).  This process and its children are pinned to one CPU
and run one at a time, with BLAS and OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys

import calibrate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("aw", "curve", "hedge", "cli")
SETUP_SAMPLES = 5  # fresh processes whose setup time is measured per run
SETUP_TIMEOUT = 60
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONNOUSERSITE"] = "1"
    for var in THREAD_PINS:
        env[var] = "1"
    return env


def spawn(args, mode: str, timeout: float) -> tuple[float, float, dict]:
    """Run one worker; return its setup seconds, raw and scaled, and its report.

    Until the worker prints its ready line, this process probes the speed
    of the CPU both are pinned to; setup is the time to that line less the
    probes, and its scaled value is at the reference speed.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    probe = calibrate.SpeedProbe()
    t0 = calibrate.now()
    deadline = t0 + timeout
    probe.start()
    # its own session, so a timeout also ends the CLI children it started;
    # unbuffered, so reading the ready line takes nothing after it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True, bufsize=0)
    try:
        try:
            first = _ready_line(proc, deadline)
        finally:
            probe.stop()
        stdout, stderr = proc.communicate(timeout=max(deadline - calibrate.now(), 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not first:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                         + stderr.decode(errors="replace")[-2000:])
    report = json.loads(stdout.decode().strip().splitlines()[-1])
    raw, scaled = probe.scaled(t0, json.loads(first)["ready"])
    return raw, scaled, report


def _ready_line(proc, deadline: float) -> bytes:
    """The worker's first stdout line, or b"" if it exits before printing one."""
    line = b""
    while not line.endswith(b"\n"):
        left = deadline - calibrate.now()
        if left <= 0:
            raise subprocess.TimeoutExpired(proc.args, 0)
        if select.select([proc.stdout], [], [], left)[0]:
            byte = proc.stdout.read(1)
            if not byte:
                return b""
            line += byte
    return line


def summary(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src/awsens/__init__.py", "fixtures/expected"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from an awsens checkout",
                  file=sys.stderr)
            return 2

    calibrate.pin_one_cpu()
    budget = args.seconds + 120
    try:
        if args.trace:
            _, _, report = spawn(args, "trace", budget)
            metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]}
                       for k, v in report["layers"].items()}
            detail = {"traced_passes": report["traced_passes"],
                      "counts_repeat": report["counts_repeat"]}
        else:
            runs = [spawn(args, "setup", SETUP_TIMEOUT) for _ in range(SETUP_SAMPLES - 1)]
            runs.append(spawn(args, "measure", budget))
            report = runs[-1][2]
            setups = [scaled for _, scaled, _ in runs]
            wall = summary(report["pass_times"])
            metrics = {
                "wall_s": {"value": wall["median"], "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            }
            detail = {"wall_s": wall, "setup_s": summary(setups),
                      "raw_wall_s": summary(report["raw_pass_times"]),
                      "raw_setup_s": summary([raw for raw, _, _ in runs]),
                      "op_s": report["op_s"], "probes": report["probes"]}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    detail.update(workload=args.workload, seed=args.seed, failures=report["failures"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
