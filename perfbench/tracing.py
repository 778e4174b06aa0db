"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` finds every binding of each traced function or class in
the loaded ``awsens`` modules (the defining module and every module that
imported the name) and rebinds it to a timing wrapper tagged with that
binding's module, its *site*.  ``uninstall`` restores the originals, so
traced and untraced passes alternate in one process.

A span is ``[name, site, start, end, parent, extra]``: ``parent`` is the
index of the span open when it started (or -1) and ``extra`` a count the
wrapper read from the call (node pairs, solver iterations).  Spans stay in
memory; ``layer_metrics`` reduces one pass's spans and ``dump`` writes all
of them out at the end.  A traced name the library no longer defines is
skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

FUNCTIONS = [
    ("discrete_ot", "solve_sorted_1d"),
    ("discrete_ot", "solve_exact"),
    ("adapted_wasserstein", "aw_distance"),
    ("adapted_wasserstein", "_bicausalize_pairs"),
    ("multistage_opt", "solve_value"),
    ("optimal_stopping", "solve_stopping"),
    ("process_tree", "conditional_expectation"),
    ("robust_oracle", "robust_curve"),
    ("sensitivity", "sensitivity_terminal"),
    ("sensitivity", "sensitivity_control"),
    ("sensitivity", "sensitivity_stopping"),
    ("sensitivity", "utility_first_order"),
]
CLASSES = [
    ("adapted_wasserstein", "CouplingTree"),
    ("process_tree", "ScenarioTree"),
]
FIRST_ORDER = {"sensitivity." + n for n in (
    "sensitivity_terminal", "sensitivity_control", "sensitivity_stopping", "utility_first_order")}
CLI_COMMANDS = ("aw", "sens", "stop", "value", "curve")

# name -> unit; every traced run reports all of them, 0 where a layer is idle
LAYER_METRICS = {
    "discrete_ot.solve_sorted_1d.calls": "count",
    "discrete_ot.solve_sorted_1d.self_s": "s",
    "discrete_ot.solve_sorted_1d.us_per_call": "us",
    "discrete_ot.solve_exact.calls": "count",
    "discrete_ot.solve_exact.self_s": "s",
    "discrete_ot.solve_exact.us_per_call": "us",
    "adapted_wasserstein.aw_distance.calls": "count",
    "adapted_wasserstein.aw_distance.s": "s",
    "adapted_wasserstein.aw_distance.self_s": "s",
    "adapted_wasserstein.node_pairs": "count",
    "adapted_wasserstein.us_per_pair": "us",
    "adapted_wasserstein.CouplingTree.calls": "count",
    "adapted_wasserstein.CouplingTree.s": "s",
    "robust_oracle.robust_curve.s": "s",
    "robust_oracle.robust_curve.self_s": "s",
    "robust_oracle.aw_calls": "count",
    "robust_oracle.value_solves": "count",
    "robust_oracle.candidate_trees": "count",
    "robust_oracle.repairs": "count",
    "robust_oracle.aw_share": "ratio",
    "multistage_opt.solve_value.calls": "count",
    "multistage_opt.solve_value.s": "s",
    "multistage_opt.solve_value.iterations": "count",
    "multistage_opt.solve_value.us_per_iter": "us",
    "optimal_stopping.solve_stopping.calls": "count",
    "optimal_stopping.solve_stopping.s": "s",
    "process_tree.ScenarioTree.calls": "count",
    "process_tree.ScenarioTree.s": "s",
    "process_tree.conditional_expectation.calls": "count",
    "process_tree.conditional_expectation.s": "s",
    "sensitivity.first_order.s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_COMMANDS},
    "trace.overhead": "ratio",
}


def _node_pairs(args) -> int:
    """Synchronized node pairs the backward recursion visits: sum over t < T."""
    P, Q = args[0], args[1]
    return sum(len(P.levels[t]) * len(Q.levels[t]) for t in range(P.horizon))


def _iterations(result) -> int:
    return int(getattr(result, "iterations", 0))


EXTRA_IN = {"adapted_wasserstein.aw_distance": _node_pairs}
EXTRA_OUT = {"multistage_opt.solve_value": _iterations}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap_function(self, orig, name, site):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extra_in, extra_out = EXTRA_IN.get(name), EXTRA_OUT.get(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = [name, site, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if extra_in is not None:
                rec[5] = extra_in(args)
            if extra_out is not None:
                rec[5] = extra_out(result)
            return result

        return traced

    def _wrap_class(self, orig, name, site):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def __init__(obj, *args, **kwargs):
            rec = [name, site, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                orig.__init__(obj, *args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return type(orig.__name__, (orig,), {
            "__slots__": (), "__init__": __init__,
            "__module__": orig.__module__, "__qualname__": orig.__qualname__,
        })

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [(n, m) for n, m in list(sys.modules.items())
                   if m is not None and (n == "awsens" or n.startswith("awsens."))]
        for targets, wrap in ((FUNCTIONS, self._wrap_function), (CLASSES, self._wrap_class)):
            for home, attr in targets:
                mod = sys.modules.get("awsens." + home)
                orig = getattr(mod, attr, None) if mod is not None else None
                if orig is None:
                    continue
                name = f"{home}.{attr}"
                for mod_name, m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            site = mod_name.rpartition(".")[2]
                            self.saved.append((m, key, orig))
                            setattr(m, key, wrap(orig, name, site))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self.saved):
            setattr(m, key, orig)
        self.saved.clear()

    def add(self, name: str, site: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a CLI child's run or import)."""
        self.spans.append([name, site, start, end, -1, 0])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "site", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def layer_metrics(spans: list[list], first: int, stop: int) -> dict[str, float]:
    """Per-layer numbers of the spans ``spans[first:stop]`` (a pass or a part of one)."""
    child = defaultdict(float)
    for rec in spans[first:stop]:
        if rec[4] >= first:
            child[rec[4]] += rec[3] - rec[2]
    calls = defaultdict(int)
    total, self_s, extra = (defaultdict(float) for _ in range(3))
    site_calls, site_total = defaultdict(int), defaultdict(float)
    for k in range(first, stop):
        name, site, start, end, _, ex = spans[k]
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child[k]
        extra[name] += ex
        site_calls[name, site] += 1
        site_total[name, site] += dur

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    aw, sv = "adapted_wasserstein.aw_distance", "multistage_opt.solve_value"
    out = {}
    for short in ("solve_sorted_1d", "solve_exact"):
        name = "discrete_ot." + short
        out[name + ".calls"] = calls[name]
        out[name + ".self_s"] = self_s[name]
        out[name + ".us_per_call"] = per(total[name], calls[name], 1e6)
    out[aw + ".calls"] = calls[aw]
    out[aw + ".s"] = total[aw]
    out[aw + ".self_s"] = self_s[aw]
    out["adapted_wasserstein.node_pairs"] = extra[aw]
    out["adapted_wasserstein.us_per_pair"] = per(total[aw], extra[aw], 1e6)
    ct = "adapted_wasserstein.CouplingTree"
    out[ct + ".calls"], out[ct + ".s"] = calls[ct], total[ct]
    rc = "robust_oracle.robust_curve"
    out[rc + ".s"], out[rc + ".self_s"] = total[rc], self_s[rc]
    out["robust_oracle.aw_calls"] = site_calls[aw, "robust_oracle"]
    out["robust_oracle.value_solves"] = (site_calls[sv, "robust_oracle"]
                                         + site_calls["optimal_stopping.solve_stopping",
                                                      "robust_oracle"])
    repairs = site_calls["adapted_wasserstein._bicausalize_pairs", "robust_oracle"]
    out["robust_oracle.candidate_trees"] = (
        site_calls["process_tree.ScenarioTree", "robust_oracle"] + repairs)
    out["robust_oracle.repairs"] = repairs
    out["robust_oracle.aw_share"] = per(site_total[aw, "robust_oracle"], total[rc])
    out[sv + ".calls"], out[sv + ".s"] = calls[sv], total[sv]
    out[sv + ".iterations"] = extra[sv]
    out[sv + ".us_per_iter"] = per(total[sv], extra[sv], 1e6)
    ss = "optimal_stopping.solve_stopping"
    out[ss + ".calls"], out[ss + ".s"] = calls[ss], total[ss]
    st = "process_tree.ScenarioTree"
    out[st + ".calls"], out[st + ".s"] = calls[st], total[st]
    ce = "process_tree.conditional_expectation"
    out[ce + ".calls"], out[ce + ".s"] = calls[ce], total[ce]
    out["sensitivity.first_order.s"] = sum(total[n] for n in FIRST_ORDER)
    out["cli.import_s"] = per(total["cli.import"], calls["cli.import"])
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = total[f"cli.{c}"]
    return out
