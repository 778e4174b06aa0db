"""Exact optimal transport between two finite weighted point sets.

This is the kernel invoked at every node pair of the adapted-distance
recursion, so it favors exact vertex solutions over regularized ones: a
transportation simplex with northwest-corner start, most-negative-entry
pricing and lexicographic leaving-cell tie-breaking (with a Bland fallback
after long degenerate runs).  Dual potentials come out of the spanning-tree
basis for free, which gives the complementary-slackness certificate.
Problems of at most ``_PRICE_SCALAR_MAX`` cells are priced in Python
floats, where numpy's per-call cost would dominate; larger ones, such as
whole path sets in :func:`solve_exact`, on a numpy matrix, which is faster
there.  Both branches pick the same entering cells bit for bit.

:func:`transport_simplex` pivots one problem from a given start to its
optimal flow; :func:`transport_simplex_batch` runs the same simplex on
many problems of one shape in lockstep, one vectorised pivot round for
all of them, and equals it bit for bit (its docstring has the argument).
:func:`solve_exact` checks a :class:`TransportProblem`, starts the former
from the north-west corner and makes the clipped plan and its objective
of the flow; :func:`solve_sorted_1d_batch` checks its weights and runs
the north-west walk that the batched simplex starts from
(:func:`_northwest_batch`).  The adapted-distance recursion calls these
cores directly, after running the same checks (:func:`check_weights`,
:func:`check_cost`) once per size class of child families and once per
batch of costs, and keeps the starts of trees of one structure.  A
simplex that exceeds its pivot budget raises ``MaxIterations``.
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
_PRICE_SCALAR_MAX = 256  # most cells transport_simplex prices in Python floats (break-even)


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


def _northwest_corner(mu: Sequence[float], nu: Sequence[float]):
    """The initial basic feasible solution: a tuple of its m + n - 1 cells,
    each joining one new row or column to the staircase, and one of their
    masses."""
    m, n = len(mu), len(nu)
    cells: list[tuple[int, int]] = []
    masses: list[float] = []
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
            return tuple(cells), tuple(masses)
        # advance exactly one pointer per step so the basis stays a tree
        if (a[i] <= b[j] and i < m - 1) or j == n - 1:
            i += 1
        else:
            j += 1


def _hang(C: list[list[float]], cells, m: int, n: int):
    """Per node of the basis tree on ``cells``, hung from row 0: its parent
    (-1 at the root), depth and potential.  ``cells`` must come in hanging
    order, as :func:`_northwest_corner` walks them: the first holds row 0
    and each later one joins one new row or column to those before it, so
    one pass over them hangs every node below its parent."""
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    for i, j in cells:
        c = m + j
        if depth[c]:  # the column hangs already (columns never sit at the root)
            parent[i], depth[i], pot[i] = c, depth[c] + 1, C[i][j] - pot[c]
        else:
            parent[c], depth[c], pot[c] = i, depth[i] + 1, C[i][j] - pot[i]
    return parent, depth, pot


def _tree(C: list[list[float]], adj: list[list[int]], m: int):
    """:func:`_hang` of the basis tree given by its adjacency lists ``adj``
    (node i < m is row i, node m + j column j), in any order: one
    depth-first search from row 0."""
    parent, depth, pot = [-1] * len(adj), [0] * len(adj), [0.0] * len(adj)
    stack = [0]
    while stack:
        k = stack.pop()
        for l in adj[k]:
            if l != parent[k]:
                parent[l], depth[l] = k, depth[k] + 1
                pot[l] = C[k][l - m] - pot[k] if k < m else C[l][k - m] - pot[k]
                stack.append(l)
    return parent, depth, pot


def _dense(cells: Sequence[tuple[int, int]], masses: Sequence[float], m: int, n: int):
    """The m x n plan holding ``masses`` at ``cells`` and zero elsewhere."""
    plan = np.zeros((m, n))
    for c, w in zip(cells, masses):
        plan[c] = w
    return plan


def _price(C: list[list[float]], pot: list[float], flow, m: int, tol: float, bland: bool):
    """The entering cell, priced in Python floats: the first cell in
    row-major order of least reduced cost ``(c - u) - v`` below ``-tol``
    (under Bland's rule the first below ``-tol``), or None at optimality.
    Basis cells, priced 0.0 by the numpy branch, never enter."""
    best, enter = -tol, None
    v = pot[m:]
    cols = range(len(v))
    for i in range(m):
        u, row = pot[i], C[i]
        for j in cols:  # indexing beats zip and enumerate here
            r = row[j] - u - v[j]
            if r < best and (i, j) not in flow:
                if bland:
                    return i, j
                best, enter = r, (i, j)
    return enter


def transport_simplex(cells: Sequence[tuple[int, int]], masses: Sequence[float],
                      cost: np.ndarray):
    """Transportation simplex from the basic feasible solution ``masses``
    on the spanning-tree ``cells``, listed in the hanging order of
    :func:`_hang`, such as :func:`_northwest_corner` returns; none of them
    is checked here, nor the float64 ``cost``.

    Returns the optimal flow, unclipped, as a dict from basis cell to mass
    (so ``list(flow)`` is the basis), the potentials ``[u_0..u_{m-1},
    v_0..v_{n-1}]``, the pivots taken and the switches to Bland's rule.
    The callers build the plan and objective: :func:`solve_exact` one at a
    time, the adapted-distance recursion a batch of flows at once.  The
    start hangs from row 0 in the order of its cells; each pivot then adds
    the entering edge to the basis adjacency, drops the leaving one and
    hangs the whole tree from row 0 afresh (:func:`_tree`), and reads the
    next entering cell's cycle off its parent links.  A potential depends
    only on its node's path to row 0, so it has the same bits however the
    tree is walked.

    Up to ``_PRICE_SCALAR_MAX`` cells the entering cell is priced in Python
    floats over ``C`` (:func:`_price`), above it on a numpy matrix.  Both
    compute ``(c - u) - v`` in binary64, and the first least entry in
    row-major order (``argmin``), the first entry below ``-tol``
    (``flatnonzero``) and a basis cell's forced 0.0 mean the same in
    both, so either branch takes the same pivots bit for bit while the
    potentials are finite.
    """
    m, n = cost.shape
    C = cost.tolist()
    flow = dict(zip(cells, masses))
    tol = 1e-11 * (1.0 + max(map(abs, itertools.chain.from_iterable(C))))
    degenerate_run = pivots = switches = 0
    bland = False
    base, per_cell = _PIVOT_BUDGET
    max_iter = base + per_cell * m * n
    # a small matrix is mostly numpy call overhead per pivot, a large one
    # is mostly the per-cell work that numpy does faster than Python
    scalar = m * n <= _PRICE_SCALAR_MAX
    parent, depth, pot = _hang(C, cells, m, n)
    adj = None  # the basis adjacency, from the first pivot on
    for pivots in range(max_iter):
        if scalar:
            enter = _price(C, pot, flow, m, tol, bland)
            if enter is None:
                break
            i0, j0 = enter
        else:
            u_v = np.array(pot)
            red = cost - u_v[:m, None] - u_v[m:]
            red[tuple(zip(*flow))] = 0.0
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
        while a != b:  # climb the deeper end, until both meet
            if depth[a] >= depth[b]:
                a = parent[a]
                up_a.append(a)
            else:
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
        if adj is None:
            adj = [[] for _ in range(m + n)]
            for i, j in cells:
                adj[i].append(m + j)
                adj[m + j].append(i)
        adj[i0].append(m + j0)
        adj[m + j0].append(i0)
        i, j = leave
        adj[i].remove(m + j)
        adj[m + j].remove(i)
        parent, depth, pot = _tree(C, adj, m)
        if theta == 0.0:
            degenerate_run += 1
            if degenerate_run >= _BLAND_TRIGGER and not bland:
                bland = True
                switches += 1
        else:
            degenerate_run = 0
            bland = False
    else:
        raise MaxIterations(f"transportation simplex did not terminate within {max_iter} pivots")
    return flow, pot, pivots, switches


def solve_exact(prob: TransportProblem) -> TransportPlan:
    """Optimal vertex of the transportation polytope for an arbitrary cost."""
    m, n = prob.cost.shape
    # rescale the second marginal so both sides carry identical total mass
    nu = prob.nu * (prob.mu.sum() / prob.nu.sum())
    flow, pot, *_ = transport_simplex(*_northwest_corner(prob.mu.tolist(), nu.tolist()), prob.cost)
    plan = _dense(flow, flow.values(), m, n)
    np.maximum(plan, 0.0, out=plan)  # np.clip(plan, 0.0, None), without its wrapper
    return TransportPlan(plan, float(np.vdot(plan, prob.cost)), np.array(pot[:m]),
                         np.array(pot[m:]), tuple(sorted(flow)))


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
    basis, masses = _northwest_corner(prob.mu.tolist(), nu.tolist())
    pot = _hang(cost.tolist(), basis, m, n)[2]
    plan = _dense(basis, masses, m, n)
    return TransportPlan(plan, float(np.vdot(plan, cost)), np.array(pot[:m]), np.array(pot[m:]),
                         tuple(sorted(basis)))


def solve_sorted_1d_batch(
    x: np.ndarray, mu: np.ndarray, y: np.ndarray, nu: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Monotone plans of F independent 1-d problems of one shape at once.

    ``x``, ``mu`` have shape (F, m) and ``y``, ``nu`` shape (F, n); each row
    holds one problem's atoms, sorted ascending.  Returns the (F, m, n) plans
    and the (F,) objectives, equal to :func:`solve_sorted_1d`'s bit for
    bit (see :func:`_northwest_batch` and :func:`_objectives`).  The checks
    of :class:`TransportProblem` apply row by row.
    """
    ratio = check_weights(mu) / check_weights(nu)
    cost = np.abs(x[:, :, None] - y[:, None, :]) ** p
    check_cost(cost)
    plan, _ = _northwest_batch(mu.copy(), nu * ratio[:, None])
    return plan, _objectives(plan, cost)


def _northwest_batch(a: np.ndarray, b: np.ndarray):
    """The walk of :func:`_northwest_corner` on the rows of ``a`` (F, m)
    and ``b`` (F, n) in lockstep, m + n - 1 vectorised steps that consume
    ``a`` and ``b``.  Returns the (F, m, n) plans and the basis cells in
    walk order, as pairs of (F,) row and column arrays."""
    F, m = a.shape
    n = b.shape[1]
    plan = np.zeros((F, m, n))
    rows = np.arange(F)
    i = j = np.zeros(F, dtype=np.intp)
    cells = []
    for step in range(m + n - 1):
        ai, bj = a[rows, i], b[rows, j]
        w = np.where(bj < ai, bj, ai)  # Python's min: ties, signed zeros too, keep ai
        plan[rows, i, j] = w
        cells.append((i, j))
        ai -= w
        bj -= w
        a[rows, i] = ai
        b[rows, j] = bj
        if step < m + n - 2:
            # the same one-pointer advance as _northwest_corner
            down = ((ai <= bj) & (i < m - 1)) | (j == n - 1)
            i, j = i + down, j + ~down
    return plan, cells


def _objectives(plan: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Each plan's cost as one batched ``matmul`` row, which sums the
    row-major plan in the order ``np.vdot`` sums it."""
    F = len(cost)
    return np.matmul(plan.reshape(F, 1, -1), cost.reshape(F, -1, 1)).reshape(F)


def transport_simplex_batch(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray):
    """:func:`transport_simplex` on F independent problems of one shape.

    ``mu`` (F, m) and ``nu`` (F, n) have equal totals per row and ``cost``
    is (F, m, n); none of them is checked here.  Returns the (F, m, n)
    plans, the (F,) objectives, and per problem its pivots and its switches
    to Bland's rule.  One round pivots every problem not yet optimal, with
    the simplex's own arithmetic and tie rules: the north-west start of
    :func:`_northwest_batch`, pricing on ``(c - u) - v`` with basis cells
    at 0.0, θ as the first of the least losing flows in cycle order (zeros
    of either sign are legal masses), the leaving cell as the smallest flat
    index among losing cells holding θ, the degenerate run, Bland switch
    and pivot budget per problem, the clip and :func:`_objectives`.

    The basis tree hangs from row 0 as an ancestor mask (node y is on node
    x's root path).  Row i0's and column j0's masks differ exactly on the
    cycle's tree edges, named by their lower ends; the losing ones end in
    a row on row i0's side or a column on column j0's side.  A pivot
    re-hangs the subtree below the leaving edge from the entering cell: a
    node there takes its path to the entering end (the symmetric difference
    of the two paths plus their common ancestor) under the other end's
    path, and its potential ``c - (parent's)`` level by level from the
    entering cell.  A rooted tree has unique parents and a potential
    depends only on its root path, so every potential and reduced cost,
    and with them the plans, objectives, pivots and switches, equal
    :func:`transport_simplex`'s bit for bit.
    """
    F, m, n = cost.shape
    N, K, L = m + n, m * n, (m + 1) * n
    rows = np.arange(F)
    node = np.arange(N)
    is_row = node < m
    at_n, at_l = rows * N, rows * L
    # Arrays are used flat, problem after problem: node x of problem f is
    # f * N + x.  The cells are padded by one row, whose first cell, K,
    # stands for the root's missing edge.
    flow, padded, red = np.zeros((3, F, m + 1, n))
    flow[:, :m], cells = _northwest_batch(mu.copy(), nu.copy())
    padded[:, :m] = cost
    flow, padded = flow.reshape(-1), padded.reshape(-1)
    red_v, red2 = red.reshape(-1), red.reshape(F, L)
    anc = np.zeros((F * N, N), dtype=bool)
    anc[at_n, 0] = True
    parent, depth = np.zeros((2, F * N), dtype=np.intp)  # parents within the problem
    pot = np.zeros(F * N)
    depth2, pot2 = depth.reshape(F, N), pot.reshape(F, N)
    # each cell of the walk hangs a new row (going down) or column from the node it meets
    last_i = cells[0][0]
    for i, j in cells:
        down = i != last_i
        new, old = at_n + np.where(down, i, m + j), at_n + np.where(down, m + j, i)
        pot[new] = cost[rows, i, j] - pot[old]
        anc[new] = anc[old]
        anc[new, new - at_n] = True
        parent[new] = old - at_n
        depth[new] = depth[old] + 1
        last_i = i
    # the cell of a node's edge to its parent is lead + stride * parent
    lead = np.where(is_row, node * n - m, node - m)
    stride = np.where(is_row, 1, n)
    lead[0], stride[0] = K, 0
    lead, stride = (lead + at_l[:, None]).reshape(-1), np.tile(stride, F)

    def basis_costs():
        edge = lead + stride * parent
        np.subtract(cost - pot2[:, :m, None], pot2[:, None, m:], out=red[:, :m])
        red_v[edge] = 0.0
        return edge

    edge = basis_costs()
    tol = 1e-11 * (1.0 + np.abs(cost).reshape(F, -1).max(axis=1))
    run, pivots, switches = np.zeros((3, F), dtype=np.intp)
    bland = np.zeros(F, dtype=bool)
    base, per_cell = _PIVOT_BUDGET
    max_iter = base + per_cell * K
    for _ in range(max_iter):
        enter = red2.argmin(axis=1)
        active = red_v[at_l + enter] < -tol
        if not active.any():
            break
        if bland.any():
            enter = np.where(bland, (red2 < -tol[:, None]).argmax(axis=1), enter)
        i0, j0 = at_n + enter // n, at_n + m + enter % n
        # the cycle's tree edges, by lower end, and the losing ones among them
        on = active[:, None]
        up_i, up_j = anc[i0], anc[j0]
        side_i, side_j = (up_i > up_j) & on, (up_j > up_i) & on
        lose = np.where(is_row, side_i, side_j)
        cell = edge.reshape(F, N)
        held = flow[cell]
        least = np.where(lose, held, np.inf).min(axis=1)
        tied = lose & (held == least[:, None])
        # cycle order: up from row i0 to the common ancestor, then down to column j0
        first = np.where(tied, np.where(side_i, -depth2, depth2 + N), 2 * N).argmin(axis=1)
        theta = held.reshape(-1)[at_n + first]
        q = at_n + np.where(tied, cell, F * L).argmin(axis=1)
        th = theta[:, None]
        flow[cell] = np.where(lose, held - th, np.where(side_i | side_j, held + th, held))
        act = rows[active]
        flow[at_l[act] + enter[act]] = theta[act]
        flow[edge[q[act]]] = 0.0
        # re-hang the subtree below the leaving edge from the entering cell:
        # the links from there up to the leaving edge turn over
        from_i = side_i.reshape(-1)[q]
        s, o = np.where(from_i, i0, j0), np.where(from_i, j0, i0)
        cut = anc.reshape(-1)[(q + at_n * (N - 1))[:, None] + node * N] & on
        turn = anc[s] & cut
        turn.reshape(-1)[q] = False
        turned = np.flatnonzero(turn)
        moved = np.flatnonzero(cut)
        sm, om = s[moved // N], o[moved // N]
        ax, us = anc[moved], anc[sm]
        common = ax & us
        meet = common.sum(axis=1) - 1
        at = depth[moved] + (depth[sm] + depth[om] + 1) - 2 * meet
        anc[moved] = (ax ^ us) | (common & (depth2[moved // N] == meet[:, None])) | anc[om]
        depth[moved] = at
        parent[turned - turned % N + parent[turned]] = turned % N
        parent[s[act]] = o[act] - at_n[act]
        # their potentials, level by level down from the entering cell
        order = np.argsort(at, kind="stable")
        moved, at = moved[order], at[order]
        up = moved - moved % N + parent[moved]
        below = padded[lead[moved] + stride[moved] * parent[moved]]
        bounds = [0, *(np.flatnonzero(np.diff(at)) + 1).tolist(), len(at)]
        for lo, hi in zip(bounds, bounds[1:]):
            pot[moved[lo:hi]] = below[lo:hi] - pot[up[lo:hi]]
        edge = basis_costs()
        # the degenerate run and the switch to Bland's rule, per problem
        degenerate = active & (theta == 0.0)
        run = np.where(active, (run + 1) * degenerate, run)
        now = np.where(active, degenerate & (bland | (run >= _BLAND_TRIGGER)), bland)
        switches += now > bland
        bland = now
        pivots += active
    else:
        raise MaxIterations(f"transportation simplex did not terminate within {max_iter} pivots")
    plan = np.maximum(flow.reshape(F, m + 1, n)[:, :m], 0.0)
    return plan, _objectives(plan, cost), pivots, switches
