"""One workload process, started by ``run.py``.

Setup is everything before the first timed operation: the interpreter,
``import awsens`` (``awsens.cli`` for the cli workload) and building the
workload's inputs.  The process prints, as its first line on stdout, the
CLOCK_MONOTONIC reading at the end of setup, so the parent can time setup
from the moment it spawned the process; its last line is the report.

Modes:

* ``setup``: stop after setup.
* ``measure``: run passes over the workload's operations, one after another
  in a closed loop, until the next pass would end after ``--seconds``.
  Speed probes (``calibrate.py``) run throughout, and each operation's time
  is reported at the reference speed.  Every operation's output is checked
  after its pass, outside the timed region.
* ``trace``: alternate untraced and traced passes for ``--seconds``; the
  traced passes give the per-layer numbers, and the ratio of the two pass
  times gives the tracing overhead.  No probes run here, so spans hold
  only the library's time; these times are raw.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback

import calibrate
import tracing
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    import awsens

    if args.workload == "cli":
        import awsens.cli  # noqa: F401  (the cli workload's setup includes it)

    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(awsens.__file__).startswith(src + os.sep):
        print(f"awsens was imported from {awsens.__file__}, not from {src}", file=sys.stderr)
        return 2

    work = workloads.WORKLOADS[args.workload](args.seed)
    # the parent times setup up to this line and stops its probes on it
    print(json.dumps({"ready": calibrate.now()}), flush=True)
    report = {}
    if args.mode == "measure":
        report.update(measure(work, args.workload, args.seconds))
    elif args.mode == "trace":
        report.update(trace(work, args.workload, args.seed, args.seconds))
    print(json.dumps(report))
    return 0


class Tally:
    def __init__(self, work, probe: calibrate.SpeedProbe | None = None):
        self.work = work
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {name: [] for name, _ in work.ops}
        self.raw_passes: list[float] = []

    def run_pass(self, after=None) -> float:
        """Time one pass; check every output afterwards, outside the timer.

        With a probe, the pass time returned is the sum of the operations'
        times at the reference speed (``SpeedProbe.scaled``) and the raw sum
        goes to ``raw_passes``; without one, both are the raw sum.
        """
        results = []
        raw = scaled = 0.0
        for name, op in self.work.ops:
            first = len(self.probe.samples) if self.probe else 0
            s = calibrate.now()
            try:
                results.append((name, op(), None))
            except Exception:  # an operation that raises counts as failed
                results.append((name, None, traceback.format_exc(limit=3)))
            e = calibrate.now()
            if after is not None:
                after(name, s, e, results[-1][1])
            op_raw, op_s = self.probe.scaled(s, e, first) if self.probe else (e - s, e - s)
            self.op_times[name].append(op_s)
            raw += op_raw
            scaled += op_s
        self.raw_passes.append(raw)
        for name, res, err in results:
            self.attempted += 1
            try:
                bad = [f"{name}: raised {err}"] if err else self.work.check(name, res)
            except Exception:  # output not of the shape the check expects
                bad = [f"{name}: check raised {traceback.format_exc(limit=3)}"]
            if bad:
                self.failures.append("; ".join(bad))
        return scaled

    def finish(self) -> dict:
        try:
            late = self.work.finish()
        except Exception:
            late = [f"final checks raised {traceback.format_exc(limit=3)}"]
        if late:
            # run-level checks cover every operation of the run
            self.failures.extend(late)
            failed = self.attempted
        else:
            failed = len(self.failures)
        return {"attempted": self.attempted, "failed": failed, "failures": self.failures[:20]}


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def measure(work, workload: str, seconds: float) -> dict:
    probe = calibrate.SpeedProbe()
    tally = Tally(work, probe)
    times: list[float] = []
    start = calibrate.now()
    probe.start()
    try:
        while True:
            times.append(tally.run_pass())
            used = calibrate.now() - start
            if used * (len(times) + 1) / len(times) > seconds:
                break
    finally:
        probe.stop()
    elapsed = calibrate.now() - start
    out = tally.finish()
    samples = [d for _, d in probe.samples]
    out.update(pass_times=times, raw_pass_times=tally.raw_passes,
               peak_rss_mb=_peak_rss_mb(workload),
               op_s={k: statistics.median(v) for k, v in tally.op_times.items()},
               probes={"n": len(samples), "median_s": statistics.median(samples),
                       "share": sum(samples) / elapsed})
    return out


def trace(work, workload: str, seed: int, seconds: float) -> dict:
    tracer = tracing.Tracer()
    tally = Tally(work)
    plain: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    start = calibrate.now()
    while True:
        plain.append(tally.run_pass())
        first = len(tracer.spans)
        if workload == "cli":
            work.importtime = True
            wall = tally.run_pass(after=lambda name, s, e, res: _cli_spans(tracer, name, s, e, res))
            work.importtime = False
        else:
            tracer.install()
            try:
                wall = tally.run_pass()
            finally:
                tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracing.layer_metrics(tracer.spans, first, len(tracer.spans)))
        used = calibrate.now() - start
        if used * (len(traced) + 1) / len(traced) > seconds:
            break
    out = tally.finish()
    layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    layers["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    out.update(layers=layers, traced_passes=len(traced),
               counts_repeat=all(_counts(p) == _counts(per_pass[0]) for p in per_pass))
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(workloads.OUT_DIR, f"trace-{workload}-seed{seed}.json"))
    return out


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if tracing.LAYER_METRICS[k] == "count"}


def _cli_spans(tracer, name, start, end, res) -> None:
    tracer.add(f"cli.{name}", "cli", start, end)
    if res is not None and res.import_s:
        tracer.add("cli.import", "cli", start, start + res.import_s)


if __name__ == "__main__":
    sys.exit(main())
