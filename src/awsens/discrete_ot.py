"""Exact optimal transport between two finite weighted point sets.

This is the kernel invoked at every node pair of the adapted-distance
recursion, so it favors exact vertex solutions over regularized ones: a
transportation simplex with northwest-corner start, most-negative-entry
pricing and lexicographic leaving-cell tie-breaking (with a Bland fallback
after long degenerate runs).  Dual potentials come out of the spanning-tree
basis for free, which gives the complementary-slackness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Infeasible, InvalidParams

WEIGHT_TOL = 1e-10
_BLAND_TRIGGER = 64  # consecutive degenerate pivots before switching rules


@dataclass(frozen=True)
class TransportProblem:
    """Marginals ``mu``, ``nu`` (each summing to 1) and a finite cost matrix."""

    mu: np.ndarray
    nu: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        cost = np.asarray(self.cost, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "cost", cost)
        if mu.ndim != 1 or nu.ndim != 1 or cost.shape != (mu.size, nu.size):
            raise InvalidParams(
                f"cost must be |mu| x |nu|; got {cost.shape} for {mu.size} x {nu.size}"
            )
        if np.any(mu < 0.0) or np.any(nu < 0.0):
            raise Infeasible("weights must be nonnegative")
        if not np.all(np.isfinite(cost)):
            raise InvalidParams("cost entries must be finite")
        # written as the good case: a NaN weight fails every comparison
        if not (abs(mu.sum() - 1.0) <= WEIGHT_TOL and abs(nu.sum() - 1.0) <= WEIGHT_TOL):
            raise Infeasible(
                f"weights must be finite and sum to 1 within {WEIGHT_TOL}; "
                f"got {mu.sum()!r}, {nu.sum()!r}"
            )


@dataclass(frozen=True)
class TransportPlan:
    """A vertex of the transportation polytope with its dual potentials.

    ``basis`` lists the m+n-1 spanning-tree cells (some may carry zero mass);
    the support of ``plan`` is always contained in it.
    """

    plan: np.ndarray
    objective: float
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    basis: tuple[tuple[int, int], ...]


def _northwest_corner(mu: np.ndarray, nu: np.ndarray):
    """Initial basic feasible solution with exactly m+n-1 cells."""
    m, n = mu.size, nu.size
    plan = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    a = mu.copy()
    b = nu.copy()
    i = j = 0
    while True:
        w = min(a[i], b[j])
        plan[i, j] = w
        basis.append((i, j))
        a[i] -= w
        b[j] -= w
        if i == m - 1 and j == n - 1:
            break
        # advance exactly one pointer per step so the basis stays a tree
        if (a[i] <= b[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1
    return plan, basis


def _potentials_from_basis(cost: np.ndarray, basis: Sequence[tuple[int, int]]):
    """Solve u_i + v_j = c_ij on the spanning tree, rooted at row 0."""
    m, n = cost.shape
    u = np.zeros(m)
    v = np.zeros(n)
    row_adj: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    col_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j in basis:
        row_adj[i].append((j, i))
        col_adj[j].append((i, j))
    seen_rows = [False] * m
    seen_cols = [False] * n
    stack = [("r", 0)]
    seen_rows[0] = True
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j, i in row_adj[k]:
                if not seen_cols[j]:
                    seen_cols[j] = True
                    v[j] = cost[i, j] - u[i]
                    stack.append(("c", j))
        else:
            for i, j in col_adj[k]:
                if not seen_rows[i]:
                    seen_rows[i] = True
                    u[i] = cost[i, j] - v[j]
                    stack.append(("r", i))
    return u, v


def _find_cycle(basis: set[tuple[int, int]], enter: tuple[int, int], m: int, n: int):
    """Unique alternating cycle created by adding ``enter`` to the basis tree.

    Returns the cycle as a list of cells starting with ``enter``; odd
    positions lose mass when the entering cell gains.
    """
    i0, j0 = enter
    row_adj: list[list[int]] = [[] for _ in range(m)]
    col_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        row_adj[i].append(j)
        col_adj[j].append(i)
    # path from row i0 to col j0 through the tree
    parent: dict[tuple[str, int], tuple[str, int]] = {}
    start = ("r", i0)
    goal = ("c", j0)
    stack = [start]
    parent[start] = start
    while stack:
        node = stack.pop()
        if node == goal:
            break
        kind, k = node
        nbrs = (("c", j) for j in row_adj[k]) if kind == "r" else (("r", i) for i in col_adj[k])
        for nxt in nbrs:
            if nxt not in parent:
                parent[nxt] = node
                stack.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()  # r i0, c j1, r i1, ..., c j0
    cells = [enter]
    for a, b in zip(path, path[1:]):
        (ka, xa), (kb, xb) = a, b
        cells.append((xa, xb) if ka == "r" else (xb, xa))
    return cells


def solve_exact(prob: TransportProblem) -> TransportPlan:
    """Optimal vertex of the transportation polytope for an arbitrary cost."""
    mu = prob.mu
    # rescale the second marginal so both sides carry identical total mass
    nu = prob.nu * (prob.mu.sum() / prob.nu.sum())
    cost = prob.cost
    m, n = cost.shape
    plan, basis_list = _northwest_corner(mu, nu)
    basis = set(basis_list)
    scale = 1.0 + float(np.max(np.abs(cost)))
    tol = 1e-11 * scale
    degenerate_run = 0
    bland = False
    max_iter = 2000 + 40 * m * n
    for _ in range(max_iter):
        u, v = _potentials_from_basis(cost, basis)
        red = cost - u[:, None] - v[None, :]
        for i, j in basis:
            red[i, j] = 0.0
        if bland:
            cand = np.argwhere(red < -tol)
            if cand.size == 0:
                break
            enter = (int(cand[0, 0]), int(cand[0, 1]))
        else:
            flat = int(np.argmin(red))
            enter = (flat // n, flat % n)
            if red[enter] >= -tol:
                break
        cycle = _find_cycle(basis, enter, m, n)
        minus = cycle[1::2]
        theta = min(plan[c] for c in minus)
        leave = min(c for c in minus if plan[c] == theta)
        for k, c in enumerate(cycle):
            if k % 2 == 0:
                plan[c] += theta
            else:
                plan[c] -= theta
        plan[leave] = 0.0
        basis.remove(leave)
        basis.add(enter)
        if theta == 0.0:
            degenerate_run += 1
            if degenerate_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    else:
        raise InvalidParams("transportation simplex failed to terminate")
    np.clip(plan, 0.0, None, out=plan)
    u, v = _potentials_from_basis(cost, basis)
    return TransportPlan(
        plan=plan,
        objective=float(np.vdot(plan, cost)),
        row_potentials=u,
        col_potentials=v,
        basis=tuple(sorted(basis)),
    )


def solve_sorted_1d(
    mu_points: Sequence[float],
    mu_weights: Sequence[float],
    nu_points: Sequence[float],
    nu_weights: Sequence[float],
    p: float,
) -> TransportPlan:
    """Monotone (quantile) plan for real marginals and cost |x - y|^p, p > 1.

    For sorted atoms this cost is submodular, so the northwest-corner plan is
    already optimal; no pivoting is needed.
    """
    if p <= 1.0:
        raise InvalidParams(f"the monotone fast path needs p > 1, got {p}")
    x = np.asarray(mu_points, dtype=np.float64)
    y = np.asarray(nu_points, dtype=np.float64)
    if np.any(np.diff(x) < 0.0) or np.any(np.diff(y) < 0.0):
        raise InvalidParams("points must be sorted ascending")
    cost = np.abs(x[:, None] - y[None, :]) ** p
    prob = TransportProblem(np.asarray(mu_weights, float), np.asarray(nu_weights, float), cost)
    nu = prob.nu * (prob.mu.sum() / prob.nu.sum())
    plan, basis = _northwest_corner(prob.mu, nu)
    u, v = _potentials_from_basis(cost, basis)
    return TransportPlan(
        plan=plan,
        objective=float(np.vdot(plan, cost)),
        row_potentials=u,
        col_potentials=v,
        basis=tuple(sorted(basis)),
    )


def solve_sorted_1d_batch(
    x: np.ndarray, mu: np.ndarray, y: np.ndarray, nu: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Monotone plans of F independent 1-d problems of one shape at once.

    ``x``, ``mu`` have shape (F, m) and ``y``, ``nu`` shape (F, n); each row
    holds one problem's atoms, sorted ascending.  Returns the (F, m, n) plans
    and the (F,) objectives.  The north-west-corner walk runs in lockstep,
    m + n - 1 vectorised steps with the arithmetic of
    :func:`solve_sorted_1d`, and each objective is one batched ``matmul``
    row, which sums in the same order as that function's ``np.vdot``: every
    plan and objective equals it bit for bit.  The checks of
    :class:`TransportProblem` apply row by row.
    """
    F, m = mu.shape
    n = nu.shape[1]
    cost = np.abs(x[:, :, None] - y[:, None, :]) ** p
    if np.any(mu < 0.0) or np.any(nu < 0.0):
        raise Infeasible("weights must be nonnegative")
    if not np.all(np.isfinite(cost)):
        raise InvalidParams("cost entries must be finite")
    mu_sum, nu_sum = mu.sum(axis=1), nu.sum(axis=1)
    if not (np.all(np.abs(mu_sum - 1.0) <= WEIGHT_TOL)
            and np.all(np.abs(nu_sum - 1.0) <= WEIGHT_TOL)):
        raise Infeasible(f"weights must be finite and sum to 1 within {WEIGHT_TOL}")
    a = mu.copy()
    b = nu * (mu_sum / nu_sum)[:, None]
    plan = np.zeros((F, m, n))
    rows = np.arange(F)
    i = np.zeros(F, dtype=np.intp)
    j = np.zeros(F, dtype=np.intp)
    for step in range(m + n - 1):
        ai, bj = a[rows, i], b[rows, j]
        w = np.minimum(ai, bj)
        plan[rows, i, j] = w
        ai -= w
        bj -= w
        a[rows, i] = ai
        b[rows, j] = bj
        if step < m + n - 2:
            # the same one-pointer advance as _northwest_corner
            down = ((ai <= bj) & (i < m - 1)) | (j == n - 1)
            i += down
            j += ~down
    objective = np.matmul(plan.reshape(F, 1, m * n), cost.reshape(F, m * n, 1))
    return plan, objective.reshape(F)
