"""Inputs, operations and correctness checks of the benchmark workloads.

Every workload builds its inputs from the seed alone and hands the library
only the generated trees (or, for ``cli``, the committed fixture files).
A workload object exposes

* ``ops``: the fixed list of ``(name, callable)`` pairs one pass runs;
* ``check(name, result)``: the checks of one operation's output, run
  outside the timed region; it returns a list of failure messages;
* ``finish()``: the checks that need a reference computed once per run
  (flat transport LPs, stored values), also outside the timed region.

The library is always reached through attributes of the ``awsens`` package
at call time, so the tracer's rebinding of those attributes sees the calls.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import awsens

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(ROOT, "fixtures")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

P = 2.0
REL_TOL = 1e-9  # stored values and identities that hold up to rounding
SOLVER_TOL = 1e-9  # the library's default projected-gradient tolerance
SLOPE_TOL = 0.01  # acceptance criterion 3's slope tolerance


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def dyadic_offset(seed: int) -> float:
    """Seed-derived translation in [-4, 4), a multiple of 2^-10.

    Trees built from values that are multiples of 2^-20 stay exactly
    representable after the shift, so their increments are bit-identical
    for every seed.
    """
    rng = np.random.default_rng([seed, 0xC0FFEE])
    return int(rng.integers(-4096, 4096)) / 1024.0


def translated(tree, offset: float):
    """The tree with every node value moved by ``offset``."""
    nodes = [
        awsens.Node(n.id, n.time, None if n.parent is None else n.value + offset,
                    n.cond_prob, n.parent)
        for n in tree.nodes
    ]
    return awsens.ScenarioTree(tree.horizon, nodes)


def _marginal_bound(A, B, p: float) -> float:
    """sum_t W_p^p(law X_t, law Y_t): a lower bound on every coupling's cost.

    Each term is a 1-d transport computed by merging the two quantile
    functions, independently of the library's solvers.
    """
    total = 0.0
    for t in range(A.horizon):
        xv, xw = A.paths.values[:, t], A.paths.probs
        yv, yw = B.paths.values[:, t], B.paths.probs
        ox, oy = np.argsort(xv, kind="stable"), np.argsort(yv, kind="stable")
        cx, cy = np.cumsum(xw[ox]), np.cumsum(yw[oy])
        levels = np.unique(np.concatenate([cx, cy]))
        levels = levels[levels < 1.0 - 1e-15]
        grid = np.concatenate([[0.0], levels, [1.0]])
        mass = np.diff(grid)
        mid = 0.5 * (grid[:-1] + grid[1:])
        ix = np.minimum(np.searchsorted(cx, mid), len(cx) - 1)
        iy = np.minimum(np.searchsorted(cy, mid), len(cy) - 1)
        total += float(mass @ np.abs(xv[ox][ix] - yv[oy][iy]) ** p)
    return total


def _flat_pth_power(A, B, p: float) -> float:
    """Flat transport cost over whole paths by an independent LP (HiGHS)."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    xs, ys = A.paths, B.paths
    cost = (np.abs(xs.values[:, None, :] - ys.values[None, :, :]) ** p).sum(axis=2)
    m, n = cost.shape
    a_eq = sp.vstack([
        sp.kron(sp.eye(m), np.ones((1, n))),
        sp.kron(np.ones((1, m)), sp.eye(n)),
    ]).tocsr()
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([xs.probs, ys.probs]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"flat reference LP failed: {res.message}")
    return float(res.fun)


class AW:
    """Full ``aw_distance`` (distance, coupling, per-stage costs) on three pair shapes."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0xA1])
        base = awsens.gen_binomial(8, 0.0, 1.0, -1.0, 0.5, 0.0)
        moved = awsens.gen_binomial(
            8, 0.0,
            1.0 + float(rng.uniform(-0.1, 0.1)),
            -1.0 + float(rng.uniform(-0.1, 0.1)),
            0.5 + float(rng.uniform(-0.05, 0.05)),
            float(rng.uniform(-0.05, 0.05)),
        )
        s = 4 * seed
        self.pairs = {
            "binomial_T8": (base, moved),
            "random_T3_b8": (awsens.gen_random(3, 8, s + 1), awsens.gen_random(3, 8, s + 2)),
            "random_T4_b4": (awsens.gen_random(4, 4, s + 3), awsens.gen_random(4, 4, s + 4)),
        }
        self.params = awsens.AWParams(P)
        self.ops = [(name, self._op(A, B)) for name, (A, B) in self.pairs.items()]
        self.seen: dict[str, set] = {name: set() for name in self.pairs}

    def _op(self, A, B):
        return lambda: awsens.aw_distance(A, B, self.params)

    def check(self, name, res) -> list[str]:
        bad = []
        if not awsens.is_bicausal(res.coupling):
            bad.append(f"{name}: coupling is not bicausal")
        if not _rel_close(res.pth_power, math.fsum(res.per_stage_costs)):
            bad.append(f"{name}: pth_power {res.pth_power!r} != sum of stage costs")
        self.seen[name].add((res.distance, res.pth_power, res.per_stage_costs))
        return bad

    def finish(self) -> list[str]:
        bad = []
        ref = load_reference()["aw"].get(str(self.seed))
        for name, (A, B) in self.pairs.items():
            if len(self.seen[name]) > 1:
                bad.append(f"{name}: passes disagree: {sorted(self.seen[name])[:2]}")
            # the path LP on 512 x 512 atoms outlasts a run, so that shape is
            # checked against the per-stage marginal bound, which flat is above
            lower = (_marginal_bound(A, B, P) if name == "random_T3_b8"
                     else _flat_pth_power(A, B, P))
            for dist, pth, _ in self.seen[name]:
                if pth < lower * (1.0 - REL_TOL) - REL_TOL:
                    bad.append(f"{name}: adapted {pth!r} below flat {lower!r}")
                if ref is not None and not _rel_close(dist, ref[name]):
                    bad.append(f"{name}: distance {dist!r} != stored {ref[name]!r}")
        return bad


def _curve_checks(name, curve, radii) -> list[str]:
    bad = []
    rows = curve.rows
    if len(rows) != len(radii) or not all(row.converged for row in rows):
        bad.append(f"{name}: not every radius converged")
        return bad
    lbs = [row.lower_bound for row in rows]
    if any(b < a for a, b in zip(lbs, lbs[1:])):
        bad.append(f"{name}: lower bounds decrease with r: {lbs}")
    for row in rows:
        if not row.distance <= row.radius * (1.0 + 1e-12):
            bad.append(f"{name}: distance {row.distance!r} exceeds r = {row.radius!r}")
    return bad


class Curve:
    """``robust_curve`` for the terminal and stopping classes on one T=3, b=3 tree.

    The tree is ``gen_random(3, 3, 0)`` translated by a seed-derived dyadic
    offset.  Adapted distances and both classes' decisions are translation
    invariant, so every seed poses the same problem; the seeds tried all
    made 158 and 207 ``aw_distance`` calls.  Over raw ``gen_random`` seeds
    the stopping curve made 145 to 237 calls, a spread in work wider than
    any bound the benchmark could hold.
    """

    RADII = (1e-3, 1e-2, 1e-1)

    def __init__(self, seed: int):
        self.tree = translated(awsens.gen_random(3, 3, 0), dyadic_offset(seed))
        self.queries = {
            "terminal": awsens.RobustQuery(
                "terminal", self.tree, awsens.make_cost_model("linear", None, 3), P, self.RADII),
            "stopping": awsens.RobustQuery(
                "stopping", self.tree,
                awsens.make_cost_model("markov_payoff", {"g": {"name": "identity"}}, 3),
                P, self.RADII),
        }
        self.ops = [(name, self._op(q)) for name, q in self.queries.items()]

    @staticmethod
    def _op(query):
        return lambda: awsens.robust_curve(query)

    def check(self, name, curve) -> list[str]:
        bad = _curve_checks(name, curve, self.RADII)
        rel = abs(curve.slope_estimate - curve.first_order) / max(abs(curve.first_order), 1e-12)
        if not rel <= SLOPE_TOL:
            bad.append(f"{name}: slope {curve.slope_estimate!r} vs first order "
                       f"{curve.first_order!r} (relative gap {rel:.3e})")
        return bad

    def finish(self) -> list[str]:
        return []


class Hedge:
    """The controlled class: a robust curve, a first-order term and a value solve.

    Utility with exponential loss and zero payoff.  The curve runs on
    ``gen_random(3, 3, 0)`` and the first-order term and the value solve on
    a binomial T=10 tree (2,047 nodes); both are translated by the seed's
    dyadic offset and the utility's x0 moves with them, so every increment
    is the same for all seeds.  Only the rounding of the ascent's candidate
    trees differs, which moved the solver's iteration count by about 3 %.
    Over raw ``gen_random`` seeds it varied tenfold.
    """

    RADII = (1e-2, 1e-1)
    BOUNDS_L = 10.0

    def __init__(self, seed: int):
        off = dyadic_offset(seed)
        self.tree = translated(awsens.gen_random(3, 3, 0), off)
        self.binomial = awsens.gen_binomial(10, off, 1.0, -1.0, 0.5, 0.0625)
        spec = {"loss": {"name": "exponential", "params": {"rate": 1.0}},
                "payoff": {"name": "zero"}, "x0": off}
        self.bounds = awsens.ControlBounds(self.BOUNDS_L)
        self.query = awsens.RobustQuery(
            "controlled", self.tree, awsens.make_cost_model("utility", spec, 3), P,
            self.RADII, bounds=self.bounds)
        self.utility = awsens.make_utility_model(spec, 10)
        self.cost = awsens.build_utility_cost(self.utility, 10)
        self.ops = [
            ("robust_curve", lambda: awsens.robust_curve(self.query)),
            ("utility_first_order",
             lambda: awsens.utility_first_order(self.binomial, self.utility, self.bounds, P)[0]),
            ("solve_value", lambda: awsens.solve_value(self.binomial, self.cost, self.bounds)),
        ]
        self.ref = load_reference()["hedge"]

    def check(self, name, res) -> list[str]:
        if name == "robust_curve":
            bad = _curve_checks(name, res, self.RADII)
            got = res.first_order
        elif name == "utility_first_order":
            bad, got = [], res.first_order
        else:
            bad, got = [], res.value
            if not res.kkt_residual <= SOLVER_TOL:
                bad.append(f"{name}: kkt residual {res.kkt_residual!r} above {SOLVER_TOL}")
        if not _rel_close(got, self.ref[name]):
            bad.append(f"{name}: {got!r} != stored {self.ref[name]!r}")
        return bad

    def finish(self) -> list[str]:
        return []


CLI_COMMANDS = {
    "aw": (["aw", "fixtures/split_dirac_p.json", "fixtures/split_dirac_q.json",
            "--p", "2.0", "--out", "{out}/aw.json"],
           {"aw.json": "aw_split_dirac.json"}),
    "sens": (["sens", "fixtures/iid_signs.json", "--config", "fixtures/config_sens_linear.json",
              "--out", "{out}/sens.json"],
             {"sens.json": "sens_linear.json"}),
    "stop": (["stop", "fixtures/drifted_binomial.json",
              "--config", "fixtures/config_stop_identity.json", "--out", "{out}/stop.json"],
             {"stop.json": "stop_drifted.json"}),
    "value": (["value", "fixtures/drifted_binomial.json",
               "--config", "fixtures/config_value_hedge.json", "--out", "{out}/value.json"],
              {"value.json": "value_hedge.json"}),
    "curve": (["curve", "fixtures/iid_signs.json", "--config", "fixtures/config_sens_linear.json",
               "--out-csv", "{out}/curve.csv", "--out-json", "{out}/curve.json"],
              {"curve.csv": "curve_linear.csv", "curve.json": "curve_linear.json"}),
}


@dataclass
class CliRun:
    """Outcome of one CLI child: exit code, output bytes, import time if traced."""

    code: int
    outputs: dict[str, bytes | None]
    stderr: bytes
    import_s: float | None


class Cli:
    """The five fixture commands, each a fresh ``python -m awsens.cli`` child.

    The fixtures are fixed by their committed expected bytes, so the seed
    only sets the order in which a pass runs the commands.  Children run
    one at a time.
    """

    def __init__(self, seed: int):
        order = list(CLI_COMMANDS)
        random.Random(seed).shuffle(order)
        self.out = os.path.join(OUT_DIR, "cli")
        os.makedirs(self.out, exist_ok=True)
        self.expected = {
            fname: _read_bytes(os.path.join(FIXTURES, "expected", fname))
            for _, files in CLI_COMMANDS.values() for fname in files.values()
        }
        self.importtime = False  # set by the traced run
        self.ops = [(name, self._op(name)) for name in order]

    def _op(self, name):
        return lambda: self.run(name)

    def run(self, name) -> CliRun:
        argv, files = CLI_COMMANDS[name]
        for fname in files:
            path = os.path.join(self.out, fname)
            if os.path.exists(path):
                os.remove(path)
        flags = ["-X", "importtime"] if self.importtime else []
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "awsens.cli", *[a.format(out=self.out) for a in argv]],
            cwd=ROOT, capture_output=True, timeout=120,
        )
        outputs = {fname: _read_bytes(os.path.join(self.out, fname)) for fname in files}
        import_s = _import_seconds(proc.stderr) if self.importtime else None
        return CliRun(proc.returncode, outputs, proc.stderr, import_s)

    def check(self, name, res) -> list[str]:
        if res.code != 0:
            return [f"{name}: exit code {res.code}: {res.stderr.decode(errors='replace')[-300:]}"]
        _, files = CLI_COMMANDS[name]
        return [f"{name}: {fname} differs from fixtures/expected/{exp}"
                for fname, exp in files.items() if res.outputs[fname] != self.expected[exp]]

    def finish(self) -> list[str]:
        return []


def _read_bytes(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _import_seconds(stderr: bytes) -> float:
    """Cumulative import time of the ``awsens`` package from ``-X importtime``.

    ``python -m awsens.cli`` imports the package (and through it numpy,
    scipy and every submodule) before running ``cli`` as ``__main__``, so
    the package's top-level entry is the start-up cost the CLI adds.
    """
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].rstrip() == " awsens":
            return int(parts[1]) / 1e6
    return 0.0


WORKLOADS = {"aw": AW, "curve": Curve, "hedge": Hedge, "cli": Cli}
