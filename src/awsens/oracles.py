"""Independent brute-force references for every analytic route.

* The adapted distance: :func:`brute_force_bicausal`, one LP over joint path
  probabilities with explicit (cross-multiplied) causality constraints, and
  :func:`flat_wasserstein`, one transport problem over whole paths, which
  ignores both filtrations and so bounds it from below.
* The control solver: :func:`brute_force_value` sweeps a uniform control
  grid, whose gap :func:`control_grid_error_bound` bounds from
  :func:`objective_hessian`.
* The Snell recursion: :func:`brute_force_stopping` enumerates every
  stopping antichain, which :func:`count_stopping_policies` counts.

None reads the code it checks: no solver, stage, batched kernel, variable
layout, scatter sum, Hessian product, stage-value table or level average.
They share with the solvers only result records, the per-problem simplex
and the models' callbacks.  The node-to-control map comes from
``tree.level_order``: level order is the control solver's variable order,
which :func:`objective_hessian` takes and returns.
"""

from __future__ import annotations

import numpy as np

from .adapted_wasserstein import AWParams, AWResult, CouplingTree
from .cost_models import CostModel
from .discrete_ot import TransportProblem, solve_exact
from .errors import HorizonMismatch, Infeasible, InvalidParams, TooLarge
from .multistage_opt import ControlBounds
from .optimal_stopping import StoppingPolicy, _stopping_policy
from .process_tree import ScenarioTree

ORACLE_MAX_PAIRS = 10_000
ORACLE_MAX_HORIZON = 3
BRUTE_FORCE_MAX_POINTS = 1_000_000
ENUM_MAX_POLICIES = 1_000_000
# the oracle's path-pair masses below this are solver dust; its coupling's
# marginals are checked to the LP's accuracy
_ORACLE_MASS_TOL = 1e-12
_ORACLE_MARGINAL_TOL = 1e-7


def flat_wasserstein(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> tuple[float, float]:
    """Ordinary Wasserstein-p distance with cost sum_t |x_t - y_t|^p.

    One transport problem over whole paths, ignoring both filtrations.
    Returns ``(distance, pth_power)``.
    """
    if P.horizon != Q.horizon:
        raise HorizonMismatch(f"horizons differ: {P.horizon} vs {Q.horizon}")
    xp, yq = P.paths, Q.paths
    cost = np.abs(xp.values[:, None, :] - yq.values[None, :, :]) ** params.p
    plan = solve_exact(TransportProblem(xp.probs, yq.probs, cost.sum(axis=2)))
    return plan.objective ** (1.0 / params.p), plan.objective


def brute_force_bicausal(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> AWResult:
    """LP over joint path probabilities with explicit bicausality constraints.

    The causality identities are written multiplicatively, cleared of
    denominators: for paths x, x' sharing their time-t prefix and any time-t
    prefix class H of the other tree,
    ``pi(x, H) * w(x') == pi(x', H) * w(x)``.
    """
    import scipy.sparse as sp
    from scipy.optimize import linprog

    if P.horizon != Q.horizon:
        raise HorizonMismatch(f"horizons differ: {P.horizon} vs {Q.horizon}")
    T = P.horizon
    xp, yq = P.paths, Q.paths
    m, n = len(xp), len(yq)
    if m * n > ORACLE_MAX_PAIRS or T > ORACLE_MAX_HORIZON:
        raise TooLarge(
            f"oracle limited to {ORACLE_MAX_PAIRS} path pairs and horizon {ORACLE_MAX_HORIZON}"
        )

    cost = (np.abs(xp.values[:, None, :] - yq.values[None, :, :]) ** params.p).sum(axis=2)

    rows, cols, data, rhs = [], [], [], []

    def add_row(entries, b) -> None:
        for c, val in entries:
            rows.append(len(rhs))
            cols.append(c)
            data.append(val)
        rhs.append(b)

    for i in range(m):
        add_row([(i * n + j, 1.0) for j in range(n)], xp.probs[i])
    for j in range(n):
        add_row([(i * n + j, 1.0) for i in range(m)], yq.probs[j])
    for t in range(1, T):
        # path indices grouped by their time-t ancestor node
        gp, gq = ([np.flatnonzero(X.ancestor_matrix[:, t] == v) for v in X.levels[t]]
                  for X in (P, Q))
        for groups_a, groups_b, w, var in ((gp, gq, xp.probs, lambda a, b: a * n + b),
                                           (gq, gp, yq.probs, lambda a, b: b * n + a)):
            for rep, *others in groups_a:
                for other in others:
                    for gb in groups_b:
                        add_row([e for jb in gb for e in ((var(rep, jb), -w[other]),
                                                          (var(other, jb), w[rep]))], 0.0)

    A = sp.coo_matrix((data, (rows, cols)), shape=(len(rhs), m * n))
    res = linprog(
        c=cost.reshape(-1),
        A_eq=A.tocsr(),
        b_eq=np.array(rhs),
        bounds=(0.0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise Infeasible(f"bicausal oracle LP failed: {res.message}")
    pi, pth_power = res.x.reshape(m, n), float(res.fun)
    per_stage = tuple(
        float(np.sum(pi * np.abs(xp.values[:, None, t] - yq.values[None, :, t]) ** params.p))
        for t in range(T)
    )
    return AWResult(pth_power ** (1.0 / params.p), pth_power, per_stage,
                    coupling_from_path_matrix(P, Q, pi))


def coupling_from_path_matrix(P: ScenarioTree, Q: ScenarioTree, pi: np.ndarray) -> CouplingTree:
    """Fold a joint law over path pairs into a synchronized product tree.

    Entries below ``_ORACLE_MASS_TOL`` are dropped and each transition
    family is renormalized, so solver dust does not produce spurious pair
    nodes; the marginals are checked to ``_ORACLE_MARGINAL_TOL``.
    """
    T = P.horizon
    ancP, ancQ = P.ancestor_matrix, Q.ancestor_matrix
    # (parent, time, x node, y node, cond_prob) per pair, in id order
    rows = [(-1, 0, P.root, Q.root, 1.0)]

    def rec(pid: int, members: list[tuple[int, int]], t: int) -> None:
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, j in members:
            groups.setdefault((int(ancP[i, t]), int(ancQ[j, t])), []).append((i, j))
        masses = {key: sum(float(pi[i, j]) for i, j in grp) for key, grp in groups.items()}
        total = sum(masses.values())
        for key in sorted(groups):
            rows.append((pid, t, *key, masses[key] / total))
            if t < T:
                rec(len(rows) - 1, groups[key], t + 1)

    rec(0, list(zip(*np.nonzero(pi > _ORACLE_MASS_TOL))), 1)
    return CouplingTree(P, Q, *zip(*rows), marginal_tol=_ORACLE_MARGINAL_TOL)


def _control_index(tree: ScenarioTree) -> tuple[int, np.ndarray]:
    """The number of controls, one per non-leaf node in level order, and
    the (n_paths, T) matrix of the controls each path meets."""
    ids = tree.level_order[:len(tree.level_order) - len(tree.leaves)]
    var = np.zeros(len(tree.level_order), dtype=np.intp)
    var[ids] = np.arange(len(ids))
    return len(ids), var[tree.ancestor_matrix[:, :tree.horizon]]


def brute_force_value(tree: ScenarioTree, model: CostModel, bounds: ControlBounds,
                      grid_n: int) -> float:
    """Exhaustive minimum over a uniform control grid; upper-bounds the value."""
    if model.kind != "controlled":
        raise InvalidParams(f"brute_force_value needs a controlled model, got {model.kind!r}")
    if grid_n < 2:
        raise InvalidParams(f"grid_n must be >= 2, got {grid_n}")
    nvar, aidx = _control_index(tree)
    if grid_n**nvar > BRUTE_FORCE_MAX_POINTS:
        raise TooLarge(f"{grid_n}^{nvar} grid points exceed {BRUTE_FORCE_MAX_POINTS}")
    grid = np.linspace(-bounds.L, bounds.L, grid_n)
    combos = np.stack(np.meshgrid(*([grid] * nvar), indexing="ij"), axis=-1).reshape(-1, nvar)
    xs = tree.paths.values
    w = tree.paths.probs
    total = np.zeros(combos.shape[0])
    for k in range(xs.shape[0]):
        actions = combos[:, aidx[k]]
        xrow = np.broadcast_to(xs[k], actions.shape)
        total += w[k] * model.value_fn(xrow, actions)
    return float(total.min())


def objective_hessian(tree: ScenarioTree, model: CostModel, policy_vec: np.ndarray) -> np.ndarray:
    """Hessian of the expected cost in node-control space at the given point,
    both in level order, the control solver's variable order."""
    n, aidx = _control_index(tree)
    hw = tree.paths.probs[:, None, None] * model.hess_a(tree.paths.values, policy_vec[aidx])
    # flat (vi, vj) cells in (k, ti, tj) C order: each cell sums its terms in k order
    out = np.zeros(n * n)
    np.add.at(out, aidx[:, :, None] * n + aidx[:, None, :], hw)
    return out.reshape(n, n)


def control_grid_error_bound(tree: ScenarioTree, model: CostModel, bounds: ControlBounds,
                             policy_vec: np.ndarray, grid_n: int) -> float:
    """Curvature bound on the gap between the grid minimum and the true one.

    The nearest grid point sits within half a grid cell of the optimum per
    coordinate, so for objectives whose control Hessian does not depend on
    the control (all quadratic-in-a catalog entries) the excess cost is at
    most lambda_max/2 times the squared distance.
    """
    h = 2.0 * bounds.L / (grid_n - 1)
    H = objective_hessian(tree, model, policy_vec)
    lam = float(np.linalg.eigvalsh(H).max())
    return 0.5 * lam * H.shape[0] * (0.5 * h) ** 2 + 1e-12


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


def brute_force_stopping(tree: ScenarioTree,
                         model: CostModel) -> tuple[float, StoppingPolicy, bool]:
    """Exact minimum over all stopping antichains.

    Returns ``(value, policy, unique)`` where ``unique`` reports whether a
    single antichain attains the minimum (ties detected at 1e-12 scale).
    """
    if model.kind != "stopping":
        raise InvalidParams(f"brute_force_stopping needs a stopping model, got {model.kind!r}")
    if count_stopping_policies(tree) > ENUM_MAX_POLICIES:
        raise TooLarge(f"more than {ENUM_MAX_POLICIES} stopping policies")
    T = tree.horizon
    xs = tree.paths.values
    time, n = tree.time.tolist(), len(tree.node_prob)

    # contribution of stopping at a node: probability-weighted stage value
    # below it, summed over its leaves in level order
    contrib = np.zeros(n)
    for t in range(1, T + 1):
        at = tree.levels[t]
        contrib[at] = np.bincount(tree.ancestor_matrix[:, t], minlength=n,
                                  weights=tree.paths.probs * model.value_fn(xs, t))[at]
    contrib = contrib.tolist()

    def enum(nid: int) -> list[tuple[float, frozenset[int]]]:
        if time[nid] == T:
            return [(contrib[nid], frozenset((nid,)))]
        combos: list[tuple[float, frozenset[int]]] = [(0.0, frozenset())]
        for c in tree.children[nid]:
            child_opts = enum(c)
            combos = [(v0 + v1, s0 | s1) for v0, s0 in combos for v1, s1 in child_opts]
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
