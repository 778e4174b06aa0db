"""Independent references for the adapted distance at small scale.

:func:`brute_force_bicausal` is one LP over joint path probabilities with
explicit (cross-multiplied) causality constraints, and
:func:`flat_wasserstein` one transport problem over whole paths, which
ignores both filtrations and so bounds the adapted distance from below.
Neither reads the backward recursion of :mod:`awsens.adapted_wasserstein`,
its stages or its batched transport kernels: they share with it only the
result records, the coupling constructor and the per-problem simplex.
"""

from __future__ import annotations

import numpy as np

from .adapted_wasserstein import AWParams, AWResult, CouplingTree
from .discrete_ot import TransportProblem, solve_exact
from .errors import HorizonMismatch, Infeasible, TooLarge
from .process_tree import ScenarioTree

ORACLE_MAX_PAIRS = 10_000
ORACLE_MAX_HORIZON = 3
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
