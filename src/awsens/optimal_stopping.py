"""Optimal stopping on a scenario tree by backward induction.

The value process is the pointwise minimum of the immediate stopping value
and the expected continuation value.  Stopping at time 0 is not allowed;
stopping times take values in 1..T.  Uniqueness of the optimal stopping time
is certified through a strict margin between stop and continuation values at
every interior node; ambiguous instances are refused rather than tie-broken,
because the sensitivity theory needs the unique optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_models import CostModel
from .errors import AmbiguousStopping, InvalidParams, TooLarge
from .process_tree import ScenarioTree

ENUM_MAX_POLICIES = 1_000_000


@dataclass(frozen=True)
class StoppingPolicy:
    """An antichain of stopping nodes meeting every path exactly once, plus
    the induced leaf -> stopping-time map."""

    stop_set: frozenset[int]
    tau: dict[int, int]


@dataclass(frozen=True)
class SnellTable:
    envelope: dict[int, float]
    continuation: dict[int, float]
    uniqueness_margin: float


def _stop_values(tree: ScenarioTree, model: CostModel) -> np.ndarray:
    """(n_paths, T) matrix of f(path, t); column t-1 is the stage-t value."""
    xs = tree.paths.values
    out = np.empty((xs.shape[0], tree.horizon))
    for t in range(1, tree.horizon + 1):
        out[:, t - 1] = model.value_fn(xs, t)
    return out


def _representative_path(tree: ScenarioTree) -> dict[int, int]:
    """Map node -> index of one path passing through it."""
    rep: dict[int, int] = {}
    for k, path in enumerate(tree.ancestor_matrix.tolist()):
        for nid in path:
            rep.setdefault(nid, k)
    return rep


def solve_stopping(
    tree: ScenarioTree, model: CostModel, tol: float = 1e-9
) -> tuple[float, StoppingPolicy, SnellTable]:
    """Backward induction; raises AmbiguousStopping when the margin is <= tol."""
    if model.kind != "stopping":
        raise InvalidParams(f"solve_stopping needs a stopping model, got {model.kind!r}")
    T = tree.horizon
    stop_vals = _stop_values(tree, model)
    rep = _representative_path(tree)
    _, time, cond = tree._fields()
    time, cond = time.tolist(), cond.tolist()

    envelope: dict[int, float] = {}
    continuation: dict[int, float] = {}
    for leaf in tree.leaves:
        envelope[leaf] = float(stop_vals[rep[leaf], T - 1])
    margin = math.inf
    for t in range(T - 1, 0, -1):
        for nid in tree.levels[t]:
            cont = sum(cond[c] * envelope[c] for c in tree.children[nid])
            sv = float(stop_vals[rep[nid], t - 1])
            continuation[nid] = cont
            envelope[nid] = min(sv, cont)
            margin = min(margin, abs(sv - cont))
    root_cont = sum(cond[c] * envelope[c] for c in tree.children[tree.root])
    continuation[tree.root] = root_cont
    envelope[tree.root] = root_cont

    if margin <= tol:
        raise AmbiguousStopping(
            f"stop and continuation values coincide within {tol} (margin {margin!r}); "
            "the optimal stopping time is not unique"
        )

    stop_set: set[int] = set()

    def descend(nid: int) -> None:
        if time[nid] == T:
            stop_set.add(nid)
            return
        if time[nid] >= 1 and stop_vals[rep[nid], time[nid] - 1] < continuation[nid]:
            stop_set.add(nid)
            return
        for c in tree.children[nid]:
            descend(c)

    for c in tree.children[tree.root]:
        descend(c)

    tau: dict[int, int] = {}
    anc = tree.ancestor_matrix
    for k, leaf in enumerate(tree.leaves):
        for t in range(1, T + 1):
            if int(anc[k, t]) in stop_set:
                tau[leaf] = t
                break
    policy = StoppingPolicy(frozenset(stop_set), tau)
    return envelope[tree.root], policy, SnellTable(envelope, continuation, margin)


def count_stopping_policies(tree: ScenarioTree) -> int:
    """Number of stopping antichains, capped to avoid overflow."""
    cap = 10 * ENUM_MAX_POLICIES

    def rec(nid: int) -> int:
        if tree.nodes[nid].time == tree.horizon:
            return 1
        prod = 1
        for c in tree.children[nid]:
            prod = min(cap, prod * rec(c))
        return prod if tree.nodes[nid].time == 0 else min(cap, prod + 1)

    return rec(tree.root)


def brute_force_stopping(
    tree: ScenarioTree, model: CostModel
) -> tuple[float, StoppingPolicy, bool]:
    """Exact minimum over all stopping antichains.

    Returns ``(value, policy, unique)`` where ``unique`` reports whether a
    single antichain attains the minimum (ties detected at 1e-12 scale).
    """
    if model.kind != "stopping":
        raise InvalidParams(f"brute_force_stopping needs a stopping model, got {model.kind!r}")
    if count_stopping_policies(tree) > ENUM_MAX_POLICIES:
        raise TooLarge(f"more than {ENUM_MAX_POLICIES} stopping policies")
    T = tree.horizon
    stop_vals = _stop_values(tree, model)
    leaf_pos = {leaf: k for k, leaf in enumerate(tree.leaves)}

    # contribution of stopping at nid: probability-weighted stage value below it
    contrib: dict[int, float] = {}

    def leaves_below(nid: int) -> list[int]:
        if tree.nodes[nid].time == T:
            return [nid]
        out: list[int] = []
        for c in tree.children[nid]:
            out.extend(leaves_below(c))
        return out

    for nid, nd in enumerate(tree.nodes):
        if nd.time >= 1:
            contrib[nid] = sum(
                tree.node_prob[leaf] * stop_vals[leaf_pos[leaf], nd.time - 1]
                for leaf in leaves_below(nid)
            )

    def enum(nid: int) -> list[tuple[float, frozenset[int]]]:
        nd = tree.nodes[nid]
        if nd.time == T:
            return [(contrib[nid], frozenset((nid,)))]
        combos: list[tuple[float, frozenset[int]]] = [(0.0, frozenset())]
        for c in tree.children[nid]:
            child_opts = enum(c)
            combos = [
                (v0 + v1, s0 | s1) for v0, s0 in combos for v1, s1 in child_opts
            ]
        if nd.time >= 1:
            combos.append((contrib[nid], frozenset((nid,))))
        return combos

    options = enum(tree.root)
    best_val, best_set = min(options, key=lambda vs: (vs[0], sorted(vs[1])))
    scale = 1e-12 * (1.0 + abs(best_val))
    ties = sum(1 for v, _ in options if v <= best_val + scale)
    tau: dict[int, int] = {}
    anc = tree.ancestor_matrix
    for k, leaf in enumerate(tree.leaves):
        for t in range(1, T + 1):
            if int(anc[k, t]) in best_set:
                tau[leaf] = t
                break
    return best_val, StoppingPolicy(best_set, tau), ties == 1
