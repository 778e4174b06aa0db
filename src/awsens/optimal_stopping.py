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
from .errors import AmbiguousStopping, InvalidParams, TooLarge, is_number
from .process_tree import ScenarioTree, _frozen, _memo

ENUM_MAX_POLICIES = 1_000_000


@dataclass(frozen=True, eq=False)
class StoppingPolicy:
    """An antichain of stopping nodes meeting every path exactly once, plus
    the induced stopping time."""

    stop_set: frozenset[int]
    tau: np.ndarray  # intp by node id, read-only: each leaf's stopping stage, 0 off the leaves


@dataclass(frozen=True, eq=False)
class SnellTable:
    envelope: np.ndarray  # by node id, read-only: min(stop, continuation), the value at the root
    continuation: np.ndarray  # by node id, read-only: +inf at the leaves, the value at the root
    uniqueness_margin: float


def _stopping_policy(tree: ScenarioTree, taus: np.ndarray) -> StoppingPolicy:
    """The policy stopping path k at stage ``taus[k]``."""
    anc = tree.ancestor_matrix
    tau = np.zeros(len(tree.node_prob), dtype=np.intp)
    tau[anc[:, -1]] = taus
    return StoppingPolicy(frozenset(anc[np.arange(len(taus)), taus].tolist()), _frozen(tau))


def _stop_values(tree: ScenarioTree, model: CostModel) -> np.ndarray:
    """(n_paths, T) matrix of f(path, t); column t-1 is the stage-t value."""
    xs = tree.paths.values
    out = np.empty((xs.shape[0], tree.horizon))
    for t in range(1, tree.horizon + 1):
        out[:, t - 1] = model.value_fn(xs, t)
    return out


def _first_paths(tree: ScenarioTree) -> np.ndarray:
    """Per node id: the index of the first path through it."""
    anc = tree.ancestor_matrix
    first = np.full(len(tree.node_prob), len(anc))
    np.minimum.at(first, anc.ravel(), np.repeat(np.arange(len(anc)), anc.shape[1]))
    return _frozen(first)


def solve_stopping(
    tree: ScenarioTree, model: CostModel, tol: float = 1e-9
) -> tuple[float, StoppingPolicy, SnellTable]:
    """Backward induction; raises AmbiguousStopping when the margin is <= tol.

    Continuation values come one level at a time from
    :meth:`ScenarioTree.average_children`.  A node's stopping value is read
    off the first path through it.
    """
    if model.kind != "stopping":
        raise InvalidParams(f"solve_stopping needs a stopping model, got {model.kind!r}")
    # a negative tol never refuses; NaN would never refuse either, silently
    if not (is_number(tol) and tol == tol):
        raise InvalidParams(f"tol must be a number, not NaN, got {tol!r}")
    T = tree.horizon
    stop_vals = _stop_values(tree, model)
    anc = tree.ancestor_matrix
    first = _memo(tree._shared, "first path", lambda: _first_paths(tree))
    # per node: whether stopping there beats continuing (always, at the horizon)
    better = np.ones(len(tree.node_prob), dtype=bool)

    env = stop_vals[:, T - 1]
    envelope = np.empty(len(tree.node_prob))
    continuation = np.full(len(tree.node_prob), math.inf)
    envelope[anc[:, T]] = env
    margin = math.inf
    for t in range(T - 1, 0, -1):
        cont = tree.average_children(t, env)
        ids = tree.levels[t]
        sv = stop_vals[first[ids], t - 1]
        env = np.where(cont < sv, cont, sv)  # min(sv, cont), sv on ties
        margin = min(margin, float(np.min(np.abs(sv - cont))))
        better[ids] = sv < cont
        continuation[ids] = cont
        envelope[ids] = env
    root_cont = float(tree.average_children(0, env)[0])
    continuation[tree.root] = envelope[tree.root] = root_cont

    if margin <= tol:
        raise AmbiguousStopping(
            f"stop and continuation values coincide within {tol} (margin {margin!r}); "
            "the optimal stopping time is not unique"
        )

    # each path stops at its first node where stopping beats continuing
    policy = _stopping_policy(tree, np.argmax(better[anc[:, 1:]], axis=1) + 1)
    return root_cont, policy, SnellTable(_frozen(envelope), _frozen(continuation), margin)


def count_stopping_policies(tree: ScenarioTree) -> int:
    """Number of stopping antichains, capped to avoid overflow."""
    cap = 10 * ENUM_MAX_POLICIES
    time = tree.time.tolist()

    def rec(nid: int) -> int:
        if time[nid] == tree.horizon:
            return 1
        prod = 1
        for c in tree.children[nid]:
            prod = min(cap, prod * rec(c))
        return prod if time[nid] == 0 else min(cap, prod + 1)

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
    time, n = tree.time.tolist(), len(tree.node_prob)

    # contribution of stopping at a node: probability-weighted stage value
    # below it, summed over its leaves in level order
    contrib = np.zeros(n)
    for t in range(1, T + 1):
        at = tree.levels[t]
        contrib[at] = np.bincount(tree.ancestor_matrix[:, t], minlength=n,
                                  weights=tree.paths.probs * stop_vals[:, t - 1])[at]
    contrib = contrib.tolist()

    def enum(nid: int) -> list[tuple[float, frozenset[int]]]:
        if time[nid] == T:
            return [(contrib[nid], frozenset((nid,)))]
        combos: list[tuple[float, frozenset[int]]] = [(0.0, frozenset())]
        for c in tree.children[nid]:
            child_opts = enum(c)
            combos = [
                (v0 + v1, s0 | s1) for v0, s0 in combos for v1, s1 in child_opts
            ]
        if time[nid] >= 1:
            combos.append((contrib[nid], frozenset((nid,))))
        return combos

    options = enum(tree.root)
    best_val, best_set = min(options, key=lambda vs: (vs[0], sorted(vs[1])))
    scale = 1e-12 * (1.0 + abs(best_val))
    ties = sum(1 for v, _ in options if v <= best_val + scale)
    # each path meets the antichain exactly once
    taus = np.argmax(np.isin(tree.ancestor_matrix[:, 1:], list(best_set)), axis=1) + 1
    return best_val, _stopping_policy(tree, taus), ties == 1
