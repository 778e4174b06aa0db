"""Exact optimal transport between two finite weighted point sets.

This is the kernel invoked at every node pair of the adapted-distance
recursion, so it favors exact vertex solutions over regularized ones: a
transportation simplex with northwest-corner start, most-negative-entry
pricing and lexicographic leaving-cell tie-breaking (with a Bland fallback
after long degenerate runs).  Dual potentials come out of the spanning-tree
basis for free, which gives the complementary-slackness certificate.
Entering cells are priced on a numpy matrix.

:func:`transport_simplex` pivots one problem from a given start to its
optimal flow; :func:`transport_simplex_batch` runs the same simplex on
many problems of one shape in lockstep, one vectorised pivot round for
all of them, and equals it bit for bit (its docstring has the argument).
Both start from the one north-west walk, :func:`_northwest_batch`
(:func:`_starts` reads it out per problem).  :func:`solve_batch` solves
a batch of unchecked problems and alone chooses the kernel, by the
batch's size; :func:`solve_exact` checks one :class:`TransportProblem`.
The adapted-distance recursion calls :func:`solve_batch` after running
the checks (:func:`check_weights`, :func:`check_cost`) once per size
class of child families and once per batch of costs; its last stage
takes the north-west plans of the sorted weights, which are optimal
there.  A simplex that exceeds its pivot budget raises ``MaxIterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Infeasible, InvalidParams, MaxIterations

WEIGHT_TOL = 1e-10
_BLAND_TRIGGER = 64  # consecutive degenerate pivots before switching rules
_PIVOT_BUDGET = (2000, 40)  # pivots allowed per problem: a base plus so many per cell
# problems per batch from which the lockstep simplex beats one solve at a time
_SIMPLEX_BATCH_MIN = 16


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


def _tree(C: list[list[float]], cells, m: int, n: int):
    """Per node of the basis tree on ``cells``, in any order, hung from row
    0 by one depth-first search: its parent (-1 at the root), depth and
    potential."""
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth, pot = [-1] * (m + n), [0] * (m + n), [0.0] * (m + n)
    stack = [0]
    while stack:
        k = stack.pop()
        for l in adj[k]:
            if l != parent[k]:
                parent[l], depth[l] = k, depth[k] + 1
                pot[l] = C[k][l - m] - pot[k] if k < m else C[l][k - m] - pot[k]
                stack.append(l)
    return parent, depth, pot


def transport_simplex(cells: Sequence[tuple[int, int]], masses: Sequence[float],
                      cost: np.ndarray):
    """Transportation simplex from the basic feasible solution ``masses``
    on the spanning-tree ``cells``, in any order, such as :func:`_starts`
    gives; none of them is checked here, nor the float64 ``cost``.

    Returns the optimal flow, unclipped, as a dict from basis cell to mass
    (so ``list(flow)`` is the basis), the potentials ``[u_0..u_{m-1},
    v_0..v_{n-1}]``, the pivots taken and the switches to Bland's rule.
    :func:`_per_problem` builds the plans of a batch of flows at once, for
    :func:`solve_exact` and :func:`solve_batch`.  The entering cell is the
    first least reduced cost ``(c - u) - v`` in row-major order on a numpy
    matrix, basis cells at 0.0 (under Bland's rule the first below
    ``-tol``).  Before each pricing the basis tree
    hangs from row 0 afresh (:func:`_tree`), and the entering cell's cycle
    is read off its parent links.  A potential depends only on its node's
    path to row 0, so it has the same bits however the cells are ordered.
    """
    m, n = cost.shape
    C = cost.tolist()
    flow = dict(zip(cells, masses))
    tol = 1e-11 * (1.0 + float(np.abs(cost).max()))
    degenerate_run = pivots = switches = 0
    bland = False
    base, per_cell = _PIVOT_BUDGET
    max_iter = base + per_cell * m * n
    for pivots in range(max_iter):
        parent, depth, pot = _tree(C, flow, m, n)
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
    m = prob.mu.size
    # rescale the second marginal so both sides carry identical total mass
    nu = prob.nu * (prob.mu.sum() / prob.nu.sum())
    plans, ((flow, pot),) = _per_problem(prob.mu[None], nu[None], prob.cost[None])
    obj = _objectives(plans, prob.cost[None])[0]
    return TransportPlan(plans[0], float(obj), np.array(pot[:m]), np.array(pot[m:]),
                         tuple(sorted(flow)))


def _northwest_batch(a: np.ndarray, b: np.ndarray):
    """The north-west corner walk on the rows of ``a`` (F, m) and ``b``
    (F, n) in lockstep: m + n - 1 vectorised steps that consume ``a`` and
    ``b``, each advancing one pointer, so the cells span a tree.  Returns
    the (F, m, n) plans and the cells in walk order, as pairs of (F,) row
    and column arrays."""
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
            down = ((ai <= bj) & (i < m - 1)) | (j == n - 1)
            i, j = i + down, j + ~down
    return plan, cells


def _starts(mu: np.ndarray, nu: np.ndarray) -> list:
    """Each problem's north-west start, as :func:`transport_simplex` takes
    it: its cells in walk order and their masses, as Python lists read off
    :func:`_northwest_batch` on copies of ``mu`` (F, m) and ``nu`` (F, n)."""
    plan, cells = _northwest_batch(mu.copy(), nu.copy())
    i, j = np.array(cells).transpose(1, 2, 0)  # each (F, m + n - 1)
    mass = plan[np.arange(len(plan))[:, None], i, j]
    return [(list(zip(r, c)), w) for r, c, w in zip(i.tolist(), j.tolist(), mass.tolist())]


def _objectives(plan: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Each plan's cost as one batched ``matmul`` row, which sums the
    row-major plan in the order ``np.vdot`` sums it."""
    F = len(cost)
    return np.matmul(plan.reshape(F, 1, -1), cost.reshape(F, -1, 1)).reshape(F)


def transport_simplex_batch(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray):
    """:func:`transport_simplex` on F independent problems of one shape.

    ``mu`` (F, m) and ``nu`` (F, n) have equal totals per row and ``cost``
    is (F, m, n); none of them is checked here.  Returns the (F, m, n)
    plans and per problem its pivots and its switches to Bland's rule.
    One round pivots every problem not yet optimal, with the simplex's own
    arithmetic and tie rules: the north-west start of
    :func:`_northwest_batch`, pricing on ``(c - u) - v`` with basis cells
    at 0.0, θ as the first of the least losing flows in cycle order (zeros
    of either sign are legal masses), the leaving cell as the smallest flat
    index among losing cells holding θ, the degenerate run, Bland switch
    and pivot budget per problem, and the clip.

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
    and with them the plans, pivots and switches, equal
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
    return plan, pivots, switches


def _per_problem(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray):
    """:func:`transport_simplex` on each problem of :func:`solve_batch`'s
    arguments from its start in :func:`_starts`, one at a time.  Returns
    the plans, built from all the optimal flows at once as
    :func:`transport_simplex_batch` builds them (one scatter and one clip),
    and each problem's flow and potentials."""
    _, m, n = cost.shape
    solved = [transport_simplex(cells, masses, c)[:2]
              for (cells, masses), c in zip(_starts(mu, nu), cost)]
    plans = np.zeros(cost.shape)
    plans.reshape(-1)[[(k * m + i) * n + j for k, (flow, _) in enumerate(solved)
                       for i, j in flow]] = [w for flow, _ in solved for w in flow.values()]
    np.maximum(plans, 0.0, out=plans)  # np.clip(plans, 0.0, None), without its wrapper
    return plans, solved


def solve_batch(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray):
    """The optimal plans (F, m, n) of the problems that
    :func:`transport_simplex_batch` takes, unchecked: in lockstep from
    ``_SIMPLEX_BATCH_MIN`` problems up, else one at a time
    (:func:`_per_problem`), which is faster there, with the same bits.  The
    caller sums the objectives with :func:`_objectives`."""
    if len(cost) >= _SIMPLEX_BATCH_MIN:
        return transport_simplex_batch(mu, nu, cost)[0]
    return _per_problem(mu, nu, cost)[0]
