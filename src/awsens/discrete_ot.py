"""Exact optimal transport between two finite weighted point sets.

This is the kernel invoked at every node pair of the adapted-distance
recursion, so it favors exact vertex solutions over regularized ones: a
transportation simplex with northwest-corner start, most-negative-entry
pricing and lexicographic leaving-cell tie-breaking (with a Bland fallback
after long degenerate runs).  Dual potentials come out of the spanning-tree
basis for free, which gives the complementary-slackness certificate.

The basis tree and its potentials are kept across pivots: the entering
cell's cycle is read off the parent links, and a pivot recomputes the
potentials and reduced costs of the subtree that the leaving cell cuts off
and nothing else.  Every other value is exactly what a rebuild would give,
so plans, objectives, potentials and bases equal those of the simplex that
rebuilds its tree at every pivot, bit for bit.

A 2 x 2 problem needs at most one pivot, so :func:`transport_2x2_batch`
runs the simplex on many of them at once in closed form: the same
north-west start, pricing, pivot and clip, vectorised, with plans,
objectives and pivot decisions equal to :func:`transport_simplex` bit for
bit (its docstring has the proof).

:func:`solve_exact` checks a :class:`TransportProblem` and runs the core,
:func:`transport_simplex`; :func:`solve_sorted_1d_batch` checks its weights
and runs :func:`sorted_1d_batch_core`.  The adapted-distance recursion calls
the cores directly, after running the same checks (:func:`check_weights`,
:func:`check_cost`) once per size class of child families and once per
batch of costs.  A simplex that exceeds its pivot budget raises
``MaxIterations``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Infeasible, InvalidParams, MaxIterations

WEIGHT_TOL = 1e-10
_BLAND_TRIGGER = 64  # consecutive degenerate pivots before switching rules
_PIVOT_BUDGET = (2000, 40)  # pivots allowed per problem: a base plus so many per cell


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
        check_weights(mu)
        check_weights(nu)
        check_cost(cost)


def check_weights(w: np.ndarray) -> np.ndarray:
    """Check that weights are nonnegative, finite and sum to 1 along the
    last axis (``Infeasible`` otherwise); returns those sums."""
    if (w < 0.0).any():
        raise Infeasible("weights must be nonnegative")
    s = w.sum(axis=-1)
    # written as the good case: a NaN weight fails every comparison
    if not (np.abs(s - 1.0) <= WEIGHT_TOL).all():
        raise Infeasible(f"weights must be finite and sum to 1 within {WEIGHT_TOL}; got {s!r}")
    return s


def check_cost(cost: np.ndarray) -> None:
    """Check that every cost entry is finite (``InvalidParams`` otherwise)."""
    if not np.isfinite(cost).all():
        raise InvalidParams("cost entries must be finite")


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


# The simplex basis is a spanning tree on m + n nodes: node i < m is row i
# and node m + j is column j.  It hangs from row 0 (u_0 = 0), and each node
# takes its potential from its tree parent: v_j = c_ij - u_i below row i,
# u_i = c_ij - v_j below column j.  A potential thus depends only on the
# node's path to the root.


def _northwest_corner(mu: Sequence[float], nu: Sequence[float], C: list[list[float]]):
    """Initial basic feasible solution and its basis tree.

    Returns the m+n-1 cells, their masses, and per node its parent, depth
    and potential.  Each cell joins one new row or column to the staircase,
    hung from the node it meets.
    """
    m, n = len(mu), len(nu)
    cells: list[tuple[int, int]] = []
    masses: list[float] = []
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)
    parent[m], depth[m], pot[m] = 0, 1, C[0][0] - pot[0]
    a = list(mu)
    b = list(nu)
    i = j = 0
    while True:
        w = min(a[i], b[j])
        cells.append((i, j))
        masses.append(w)
        a[i] -= w
        b[j] -= w
        if i == m - 1 and j == n - 1:
            break
        # advance exactly one pointer per step so the basis stays a tree
        if (a[i] <= b[j] and i < m - 1) or j == n - 1:
            i += 1
            parent[i], depth[i], pot[i] = m + j, depth[m + j] + 1, C[i][j] - pot[m + j]
        else:
            j += 1
            parent[m + j], depth[m + j], pot[m + j] = i, depth[i] + 1, C[i][j] - pot[i]
    return cells, masses, parent, depth, pot


def _dense(cells: Sequence[tuple[int, int]], masses: Sequence[float], m: int, n: int):
    """The m x n plan holding ``masses`` at ``cells`` and zero elsewhere."""
    plan = np.zeros((m, n))
    for c, w in zip(cells, masses):
        plan[c] = w
    return plan


def _hang(C, adj, parent, depth, pot, m: int, s: int) -> list[int]:
    """Parent links, depths and potentials of the tree nodes below ``s``.

    ``adj`` lists each node's basis neighbours; ``s`` must already carry
    its parent, depth and potential.  Returns the nodes visited, ``s`` first.
    """
    seen = [s]
    stack = [s]
    while stack:
        k = stack.pop()
        pk = parent[k]
        dk = depth[k] + 1
        for l in adj[k]:
            if l != pk:
                parent[l] = k
                depth[l] = dk
                pot[l] = C[k][l - m] - pot[k] if k < m else C[l][k - m] - pot[k]
                stack.append(l)
                seen.append(l)
    return seen


def transport_simplex(mu: list[float], nu: list[float], cost: np.ndarray):
    """Transportation simplex from the north-west corner.

    ``mu`` and ``nu`` are lists of floats with equal total mass and
    ``cost`` is a float64 matrix; none of them is checked here.  Returns the
    clipped plan, its objective, the potentials ``[u_0..u_{m-1},
    v_0..v_{n-1}]`` and the basis cells.

    The basis tree is kept across pivots.  The entering cell's cycle is read
    off the parent links, and a pivot re-hangs only the subtree that the
    leaving cell cuts off: every other node keeps its root path, so its
    potential, and every reduced cost outside the subtree's rows and
    columns, is the value a rebuild from scratch would give.
    """
    m, n = cost.shape
    C = cost.tolist()
    cells, masses, parent, depth, pot = _northwest_corner(mu, nu, C)
    flow = dict(zip(cells, masses))
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    U = np.array(pot[:m])
    V = np.array(pot[m:])
    red = cost - U[:, None] - V[None, :]
    for c in cells:
        red[c] = 0.0
    scale = 1.0 + max(map(abs, itertools.chain.from_iterable(C)))
    tol = 1e-11 * scale
    degenerate_run = 0
    bland = False
    base, per_cell = _PIVOT_BUDGET
    max_iter = base + per_cell * m * n
    for _ in range(max_iter):
        if bland:
            cand = np.flatnonzero(red < -tol)
            if cand.size == 0:
                break
            i0, j0 = divmod(int(cand[0]), n)
        else:
            flat = int(red.argmin())
            if red.item(flat) >= -tol:
                break
            i0, j0 = divmod(flat, n)
        # the cycle is the tree path row i0 -> column j0, closed by the entering cell
        a, b = i0, m + j0
        up_a, up_b = [a], [b]
        while depth[a] > depth[b]:
            a = parent[a]
            up_a.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            up_b.append(b)
        while a != b:
            a = parent[a]
            up_a.append(a)
            b = parent[b]
            up_b.append(b)
        path = up_a + up_b[-2::-1]
        steps = [(x, y - m) if x < m else (y, x - m) for x, y in zip(path, path[1:])]
        minus = steps[0::2]  # these lose mass when the entering cell gains
        theta = min(flow[c] for c in minus)
        leave = min(c for c in minus if flow[c] == theta)
        flow[(i0, j0)] = theta
        for c in steps[1::2]:
            flow[c] += theta
        for c in minus:
            flow[c] -= theta
        del flow[leave]
        li, lj = leave
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[i0].append(m + j0)
        adj[m + j0].append(i0)
        # the leaving cell cuts off the side of the path that holds it
        if 2 * minus.index(leave) < len(up_a) - 1:
            s, o = i0, m + j0
        else:
            s, o = m + j0, i0
        parent[s] = o
        depth[s] = depth[o] + 1
        pot[s] = C[i0][j0] - pot[o]
        moved = _hang(C, adj, parent, depth, pot, m, s)
        rows = [k for k in moved if k < m]
        cols = [k - m for k in moved if k >= m]
        for i in rows:
            U[i] = pot[i]
        for j in cols:
            V[j] = pot[m + j]
        # one row or column by a view, several by one gather
        if len(rows) == 1:
            red[rows[0]] = cost[rows[0]] - U[rows[0]] - V
        elif rows:
            red[rows] = cost[rows] - U[rows][:, None] - V[None, :]
        if len(cols) == 1:
            red[:, cols[0]] = cost[:, cols[0]] - U - V[cols[0]]
        elif cols:
            red[:, cols] = cost[:, cols] - U[:, None] - V[cols][None, :]
        for k in moved:
            for l in adj[k]:
                red[(k, l - m) if k < m else (l, k - m)] = 0.0
        if theta == 0.0:
            degenerate_run += 1
            if degenerate_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degenerate_run = 0
            bland = False
    else:
        raise MaxIterations(f"transportation simplex did not terminate within {max_iter} pivots")
    keys = list(flow)
    plan = _dense(keys, [flow[c] for c in keys], m, n)
    np.maximum(plan, 0.0, out=plan)  # np.clip(plan, 0.0, None), without its wrapper
    return plan, float(np.vdot(plan, cost)), pot, keys


def solve_exact(prob: TransportProblem) -> TransportPlan:
    """Optimal vertex of the transportation polytope for an arbitrary cost."""
    mu = prob.mu
    # rescale the second marginal so both sides carry identical total mass
    nu = prob.nu * (prob.mu.sum() / prob.nu.sum())
    plan, objective, pot, basis = transport_simplex(mu.tolist(), nu.tolist(), prob.cost)
    m = mu.size
    return TransportPlan(
        plan=plan,
        objective=objective,
        row_potentials=np.array(pot[:m]),
        col_potentials=np.array(pot[m:]),
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
    m, n = cost.shape
    basis, masses, _, _, pot = _northwest_corner(prob.mu.tolist(), nu.tolist(), cost.tolist())
    plan = _dense(basis, masses, m, n)
    return TransportPlan(
        plan=plan,
        objective=float(np.vdot(plan, cost)),
        row_potentials=np.array(pot[:m]),
        col_potentials=np.array(pot[m:]),
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
    return sorted_1d_batch_core(x, mu, check_weights(mu), y, nu, check_weights(nu), p)


def sorted_1d_batch_core(
    x: np.ndarray, mu: np.ndarray, mu_sum: np.ndarray,
    y: np.ndarray, nu: np.ndarray, nu_sum: np.ndarray, p: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_sorted_1d_batch` for weights already checked, given
    with their row sums ``mu_sum`` and ``nu_sum`` as :func:`check_weights`
    returns them; only the cost is checked here."""
    F, m = mu.shape
    n = nu.shape[1]
    cost = np.abs(x[:, :, None] - y[:, None, :]) ** p
    check_cost(cost)
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


def _first_min(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Python's ``min(x, y)`` elementwise: ``y`` only where ``y < x``, so
    ties, signed zeros included, keep ``x``."""
    return np.where(y < x, y, x)


def transport_2x2_batch(
    mu: np.ndarray, nu: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`transport_simplex` on F independent 2 x 2 problems at once.

    ``mu`` and ``nu`` have shape (F, 2), with equal totals per row, and
    ``cost`` shape (F, 2, 2); none of them is checked here.  Returns the
    (F, 2, 2) plans, the (F,) objectives and the (F,) mask of the problems
    that pivoted.  Every step is the simplex's own arithmetic, vectorised:

    * the north-west start takes the same ``min`` (the first argument on
      ties) and the same subtractions, and goes down where ``a[0] <= b[0]``
      after the first cell, leaving (0, 1) non-basic, and right otherwise,
      leaving (1, 0) non-basic;
    * the potentials hang from row 0 as the basis tree gives them
      (``u_0 = 0``, ``v_0 = c_00 - 0.0``, ...), and the non-basic cell's
      reduced cost is ``(c - u) - v``, as the simplex's matrix computes it;
    * the problem pivots where that cost is below ``-1e-11 * (1 + max|c|)``;
      the cycle runs through all four cells, θ is the ``min`` of the two
      diagonal cells in the simplex's cycle order, the cell (0, 0) leaves
      when it holds θ and (1, 1) otherwise, and the off-diagonal cells gain
      θ while the diagonal ones lose it;
    * the plan is clipped at zero by the same ``np.maximum`` and each
      objective is summed over the row-major plan by one batched ``matmul``
      row, in the order ``np.vdot`` sums it.

    No problem pivots twice.  With either start, the reduced cost is
    ``r = (c_01 + c_10) - (c_00 + c_11)`` up to rounding, and after the
    pivot the only non-basic cell is the leaving diagonal one, whose reduced
    cost is ``-r`` up to rounding.  Each potential and reduced cost takes at
    most three roundings of values below ``4 max|c|``, so the two computed
    costs sum to within a few ulps of ``4 max|c|``, about ``1e-15 max|c|``,
    far less than the tolerance ``1e-11 (1 + max|c|)``.  A pivot needs
    ``r < -tol``, so the cost after it exceeds ``tol`` minus that error,
    which is above ``-tol``: the simplex stops after its first pivot, and
    Bland's rule, which picks among the same negative costs, has none to
    pick.  Plans, objectives and pivot decisions therefore equal
    :func:`transport_simplex` bit for bit.
    """
    a0, a1, b0, b1 = mu[:, 0], mu[:, 1], nu[:, 0], nu[:, 1]
    c00, c01, c10, c11 = (cost[:, i, j] for i in (0, 1) for j in (0, 1))
    # north-west corner: (0, 0), then (1, 0) going down or (0, 1) going
    # right, then (1, 1)
    f00 = _first_min(a0, b0)
    rest_a, rest_b = a0 - f00, b0 - f00
    down = rest_a <= rest_b
    mid = np.where(down, _first_min(a1, rest_b), _first_min(rest_a, b1))
    f11 = np.where(down, _first_min(a1 - mid, b1), _first_min(a1, b1 - mid))
    # potentials from row 0 along the staircase, then the non-basic cell's cost
    v0 = c00 - 0.0
    u1 = np.where(down, c10 - v0, c11 - (c01 - 0.0))
    v1 = np.where(down, c11 - u1, c01 - 0.0)
    red = np.where(down, (c01 - 0.0) - v1, (c10 - u1) - v0)
    tol = 1e-11 * (1.0 + np.abs(cost).reshape(-1, 4).max(axis=1))
    pivot = red < -tol
    # the cycle lists (0, 0) first going down and (1, 1) first going right
    theta = np.where(down, _first_min(f00, f11), _first_min(f11, f00))
    theta = np.where(pivot, theta, 0.0)
    leave00 = f00 == theta
    plan = np.empty_like(cost)
    plan[:, 0, 0] = np.where(pivot & leave00, 0.0, np.where(pivot, f00 - theta, f00))
    plan[:, 1, 1] = np.where(pivot & ~leave00, 0.0, np.where(pivot, f11 - theta, f11))
    gained = np.where(pivot, mid + theta, mid)
    plan[:, 0, 1] = np.where(down, theta, gained)
    plan[:, 1, 0] = np.where(down, gained, theta)
    np.maximum(plan, 0.0, out=plan)
    objective = np.matmul(plan.reshape(-1, 1, 4), cost.reshape(-1, 4, 1))
    return plan, objective.reshape(-1), pivot
