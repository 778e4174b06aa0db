"""Adapted (bicausal) Wasserstein distance between scenario trees.

The distance is computed exactly by a backward recursion over synchronized
node pairs: at each pair of time-t nodes, one finite transport problem is
solved between the two child distributions, with the transported cost equal
to the stage cost |x - y|^p plus the already-computed value of the child
pair.  The recursion's optimal plans assemble into a coupling tree that is
bicausal by construction.

At the last stage the cost is |x - y|^p alone, so every pair of child
families is a sorted 1-d problem; all of them are solved at once per pair
of family sizes by the lockstep north-west-corner kernel.  Interior stages
run the transportation simplex per node pair, on costs gathered from one
block per x node and with the transport checks run once per family and
block rather than per pair.  One recursion serves two
entries: :func:`aw_distance` (distance, per-stage costs, coupling) and the
distance-only :func:`aw_pth_power`, which keeps no plans.  Batching never
changes a summation order: each objective is summed over the row-major
plan as ``np.vdot`` sums it, so results are bit-identical to solving one
node pair at a time.

A brute-force LP over joint path probabilities with explicit (cross-
multiplied) causality constraints serves as an independent oracle for the
same quantity at small scale.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .discrete_ot import (
    TransportProblem,
    check_cost,
    check_weights,
    solve_exact,
    solve_sorted_1d_batch,
    transport_simplex,
)
from .errors import (
    DeltaTooSmall,
    HorizonMismatch,
    Infeasible,
    InvalidCoupling,
    InvalidParams,
    NotCausal,
    TooLarge,
)
from .process_tree import Node, ScenarioTree, _frozen, _memo

Direction = Literal["x_to_y", "y_to_x"]

ORACLE_MAX_PAIRS = 10_000
ORACLE_MAX_HORIZON = 3
# plan cells per batched last-stage solve; bounds the kernel's temporaries
_BATCH_CELLS = 1 << 18


@dataclass(frozen=True)
class AWParams:
    """Order of the distance; the conjugate exponent is always derived."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise InvalidParams(f"the order p must lie in (1, inf), got {self.p}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))


@dataclass(frozen=True)
class PairNode:
    """Node of a synchronized product tree: one x node, one y node, a joint
    transition probability given the parent pair."""

    id: int
    time: int
    x_node: int
    y_node: int
    cond_prob: float
    parent: int | None


class CouplingTree:
    """A coupling between two scenario trees as a synchronized product tree.

    Construction validates that projecting the joint path probabilities onto
    either coordinate reproduces the corresponding tree's node probabilities.
    Causality is a property of the transition kernels and is *not* enforced
    here; use :func:`check_causal`.
    """

    __slots__ = ("first", "second", "pair_nodes", "children", "prob", "root")

    def __init__(
        self,
        first: ScenarioTree,
        second: ScenarioTree,
        pair_nodes: Sequence[PairNode],
        marginal_tol: float = 1e-10,
    ):
        if first.horizon != second.horizon:
            raise HorizonMismatch("coupled trees must share one horizon")
        pair_nodes = list(pair_nodes)
        n = len(pair_nodes)
        for k, pn in enumerate(pair_nodes):
            if pn.id != k:
                raise InvalidCoupling(f"pair node ids must equal list positions; got {pn.id} at {k}")
        roots = [pn for pn in pair_nodes if pn.parent is None]
        if len(roots) != 1 or roots[0].x_node != first.root or roots[0].y_node != second.root:
            raise InvalidCoupling("expected exactly one root pair covering both tree roots")
        root = roots[0].id

        children: list[list[int]] = [[] for _ in range(n)]
        for pn in pair_nodes:
            if pn.parent is None:
                continue
            par = pair_nodes[pn.parent]
            if pn.time != par.time + 1:
                raise InvalidCoupling(f"pair node {pn.id} skips time levels")
            if pn.x_node not in first.children[par.x_node]:
                raise InvalidCoupling(f"pair node {pn.id} breaks the first tree's edges")
            if pn.y_node not in second.children[par.y_node]:
                raise InvalidCoupling(f"pair node {pn.id} breaks the second tree's edges")
            if not (0.0 < pn.cond_prob <= 1.0):
                raise InvalidCoupling(f"pair node {pn.id} has cond_prob outside (0, 1]")
            children[pn.parent].append(pn.id)

        prob = [0.0] * n
        prob[root] = 1.0
        order = [root]
        for nid in order:
            kids = children[nid]
            if kids:
                s = sum(pair_nodes[c].cond_prob for c in kids)
                if abs(s - 1.0) > 1e-9:
                    raise InvalidCoupling(f"joint kernel at pair node {nid} sums to {s!r}")
                seenxy = set()
                for c in kids:
                    key = (pair_nodes[c].x_node, pair_nodes[c].y_node)
                    if key in seenxy:
                        raise InvalidCoupling(f"duplicate child pair {key} under pair node {nid}")
                    seenxy.add(key)
                    prob[c] = prob[nid] * pair_nodes[c].cond_prob
                    order.append(c)
            elif pair_nodes[nid].time != first.horizon:
                raise InvalidCoupling(f"pair node {nid} ends before the horizon")
        if len(order) != n:
            raise InvalidCoupling("coupling contains pair nodes unreachable from the root")

        marg_x = [0.0] * len(first.node_prob)
        marg_y = [0.0] * len(second.node_prob)
        for pn in pair_nodes:
            marg_x[pn.x_node] += prob[pn.id]
            marg_y[pn.y_node] += prob[pn.id]
        for nid, target in enumerate(first.node_prob):
            if abs(marg_x[nid] - target) > marginal_tol:
                raise InvalidCoupling(
                    f"first marginal off by {marg_x[nid] - target!r} at node {nid}"
                )
        for nid, target in enumerate(second.node_prob):
            if abs(marg_y[nid] - target) > marginal_tol:
                raise InvalidCoupling(
                    f"second marginal off by {marg_y[nid] - target!r} at node {nid}"
                )

        self.first = first
        self.second = second
        self.pair_nodes = tuple(pair_nodes)
        self.children = tuple(tuple(c) for c in children)
        self.prob = tuple(prob)
        self.root = root

    def stage_costs(self, p: float) -> tuple[float, ...]:
        """E[|X_t - Y_t|^p] per stage under the coupling."""
        T = self.first.horizon
        out = [0.0] * T
        for pn in self.pair_nodes:
            if pn.time == 0:
                continue
            dx = self.first.nodes[pn.x_node].value - self.second.nodes[pn.y_node].value
            out[pn.time - 1] += self.prob[pn.id] * abs(dx) ** p
        return tuple(out)


@dataclass(frozen=True)
class AWResult:
    """Adapted distance with its p-th power, per-stage costs and optimal coupling."""

    distance: float
    pth_power: float
    per_stage_costs: tuple[float, ...]
    coupling: CouplingTree


def check_causal(coupling: CouplingTree, direction: Direction, tol: float = 1e-10) -> bool:
    """Kernel-factorization causality check.

    ``x_to_y`` verifies that, at every reachable pair node, projecting the
    joint transition kernel onto the first coordinate reproduces the first
    tree's kernel: given the joint past, the next step of X carries no
    information about Y's past.  This one-step factorization at every node is
    equivalent to the conditional-independence form of causality, and it
    needs no division by small path probabilities.
    """
    if direction == "x_to_y":
        tree = coupling.first
        pick = operator.attrgetter("x_node")
    elif direction == "y_to_x":
        tree = coupling.second
        pick = operator.attrgetter("y_node")
    else:
        raise InvalidParams(f"unknown direction {direction!r}")
    for pn in coupling.pair_nodes:
        kids = coupling.children[pn.id]
        if not kids:
            continue
        proj: dict[int, float] = {}
        for c in kids:
            child = coupling.pair_nodes[c]
            proj[pick(child)] = proj.get(pick(child), 0.0) + child.cond_prob
        for marg_child in tree.children[pick(pn)]:
            expected = tree.nodes[marg_child].cond_prob
            if abs(proj.pop(marg_child, 0.0) - expected) > tol:
                return False
        if proj:
            return False
    return True


def is_bicausal(coupling: CouplingTree, tol: float = 1e-10) -> bool:
    return check_causal(coupling, "x_to_y", tol) and check_causal(coupling, "y_to_x", tol)


def product_coupling(P: ScenarioTree, Q: ScenarioTree) -> CouplingTree:
    """Independent coupling: the joint kernel is the product of the marginals."""
    if P.horizon != Q.horizon:
        raise HorizonMismatch("product coupling needs equal horizons")
    pairs = [PairNode(0, 0, P.root, Q.root, 1.0, None)]
    queue = [(0, P.root, Q.root)]
    while queue:
        pid, xn, yn = queue.pop()
        for xc in P.children[xn]:
            for yc in Q.children[yn]:
                w = P.nodes[xc].cond_prob * Q.nodes[yc].cond_prob
                nid = len(pairs)
                pairs.append(PairNode(nid, P.nodes[xc].time, xc, yc, w, pid))
                queue.append((nid, xc, yc))
    return CouplingTree(P, Q, pairs)


# -- exact distance via backward recursion ------------------------------------


def _node_arrays(tree: ScenarioTree) -> tuple[np.ndarray, np.ndarray]:
    """Per node: its index within its time level and its conditional
    probability; cached per structure."""

    def build():
        pos = np.empty(len(tree.node_prob), dtype=np.intp)
        for level in tree.levels:
            pos[list(level)] = np.arange(len(level))
        return _frozen(pos), _frozen(np.array([nd.cond_prob for nd in tree._template]))
    return _memo(tree._shared, "arrays", build)


def _sorted_families(tree: ScenarioTree, t: int):
    """Child families of the time-t nodes, grouped by size; cached per tree.

    Lists ``(rows, values, weights, order, parents)`` per family size: the
    parents' positions in level t, the children's values and conditional
    probabilities sorted by value (stable), the sorting permutation, and the
    parent ids.
    """
    def build():
        pos, weights = _node_arrays(tree)
        out = []
        for parents, kids in tree._sibling_groups(t):
            order = _frozen(np.argsort(tree.values[kids], axis=1, kind="stable"))
            kids = np.take_along_axis(kids, order, axis=1)
            out.append((_frozen(pos[list(parents)]), _frozen(tree.values[kids]),
                        _frozen(weights[kids]), order, parents))
        return tuple(out)
    return _memo(tree._cache, ("sorted", t), build)


def _last_stage(P: ScenarioTree, Q: ScenarioTree, p: float, plans: dict | None) -> np.ndarray:
    """Values of all time-(T-1) node pairs, batched 1-d solves per size class.

    There the cost is the stage cost alone, submodular on sorted atoms, so
    the north-west-corner plan is optimal.  With ``plans`` given, each pair's
    plan is stored in the children's original order.
    """
    t = P.horizon - 1
    value = np.empty((len(P.levels[t]), len(Q.levels[t])))
    yfam = _sorted_families(Q, t)
    for xrows, xv, xw, ox, xpar in _sorted_families(P, t):
        m = xv.shape[1]
        for yrows, yv, yw, oy, ypar in yfam:
            cy, n = yv.shape
            step = max(1, _BATCH_CELLS // (cy * m * n))
            for lo in range(0, len(xpar), step):
                bx = slice(lo, lo + step)
                cx = len(xpar[bx])
                plan, obj = solve_sorted_1d_batch(
                    np.repeat(xv[bx], cy, axis=0), np.repeat(xw[bx], cy, axis=0),
                    np.tile(yv, (cx, 1)), np.tile(yw, (cx, 1)), p,
                )
                value[np.ix_(xrows[bx], yrows)] = obj.reshape(cx, cy)
                if plans is None:
                    continue
                unsorted = np.empty_like(plan)
                unsorted[
                    np.arange(cx * cy)[:, None, None],
                    np.repeat(ox[bx], cy, axis=0)[:, :, None],
                    np.tile(oy, (cx, 1))[:, None, :],
                ] = plan
                for f, (xn, yn) in enumerate(itertools.product(xpar[bx], ypar)):
                    plans[(xn, yn)] = (unsorted[f], P.children[xn], Q.children[yn])
    return value


def _families(tree: ScenarioTree, t: int):
    """Per time-t node: its id, its children's ids and level positions,
    their conditional probabilities as floats and the sum of those, in the
    tree's child order; cached per structure.  Each family passes the
    weight checks of :class:`TransportProblem` here, once."""
    def build():
        pos, weights = _node_arrays(tree)
        out = []
        for nid in tree.levels[t]:
            kids = _frozen(np.array(tree.children[nid], dtype=np.intp))
            w = weights[kids]
            out.append((nid, kids, _frozen(pos[kids]), tuple(w.tolist()),
                        float(check_weights(w))))
        return tuple(out)
    return _memo(tree._shared, ("families", t), build)


def _recursion(P: ScenarioTree, Q: ScenarioTree, p: float, plans: dict | None) -> float:
    """p-th power of the adapted distance by backward recursion.

    ``value`` holds one level's pair values as a matrix indexed by the two
    nodes' level positions.  Interior stages add the children's values to
    the stage cost, which breaks submodularity, so they run the simplex.
    Per x node, one block holds the costs against every child of the y
    level, so each node pair's cost matrix is a column gather of it; each
    block passes the finiteness check of :class:`TransportProblem`, and
    the second marginal is rescaled as :func:`solve_exact` rescales it.
    """
    if P.horizon != Q.horizon:
        raise HorizonMismatch(f"horizons differ: {P.horizon} vs {Q.horizon}")
    value = _last_stage(P, Q, p, plans)
    for t in range(P.horizon - 2, -1, -1):
        yfam = _families(Q, t)
        yvals = Q.values[list(Q.levels[t + 1])]
        level = np.empty((len(P.levels[t]), len(yfam)))
        for a, (xn, xkids, xpos, xw, xsum) in enumerate(_families(P, t)):
            block = np.abs(P.values[xkids][:, None] - yvals[None, :]) ** p + value[xpos]
            check_cost(block)
            for b, (yn, _, ypos, yw, ysum) in enumerate(yfam):
                ratio = xsum / ysum
                plan, obj, _, _ = transport_simplex(xw, [w * ratio for w in yw], block[:, ypos])
                level[a, b] = obj
                if plans is not None:
                    plans[(xn, yn)] = (plan, P.children[xn], Q.children[yn])
        value = level
    return float(value[0, 0])


def aw_pth_power(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> float:
    """p-th power of the adapted distance, without coupling or stage costs.

    Runs the recursion of :func:`aw_distance` and keeps no plans, so it
    returns ``aw_distance(P, Q, params).pth_power`` bit for bit; the
    distance is ``aw_pth_power(P, Q, params) ** (1.0 / params.p)``.
    """
    return _recursion(P, Q, params.p, None)


def aw_distance(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> AWResult:
    """Exact adapted distance by dynamic programming over node pairs.

    The last stage has no value-function addend, so all its family pairs
    are solved at once by the monotone 1-d kernel, grouped by family size;
    interior stages solve the full transport problem per node pair.  Every
    sum runs in the order of the per-pair solvers (``np.vdot`` over the
    row-major plan), so the distance, plans and coupling do not depend on
    the batching.  The optimal plans then assemble into the coupling.
    """
    p = params.p
    plans: dict[tuple[int, int], tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]] = {}
    pth_power = _recursion(P, Q, p, plans)
    T = P.horizon
    pairs = [PairNode(0, 0, P.root, Q.root, 1.0, None)]
    queue = [(0, P.root, Q.root)]
    while queue:
        pid, xn, yn = queue.pop()
        plan, xc, yc = plans[(xn, yn)]
        for i, j in zip(*np.nonzero(plan > 1e-15)):
            nid = len(pairs)
            pairs.append(
                PairNode(nid, P.nodes[xc[i]].time, xc[i], yc[j], float(plan[i, j]), pid)
            )
            if P.nodes[xc[i]].time < T:
                queue.append((nid, xc[i], yc[j]))
    coupling = CouplingTree(P, Q, pairs)
    return AWResult(
        distance=pth_power ** (1.0 / p),
        pth_power=pth_power,
        per_stage_costs=coupling.stage_costs(p),
        coupling=coupling,
    )


def flat_wasserstein(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> tuple[float, float]:
    """Ordinary Wasserstein-p distance with cost sum_t |x_t - y_t|^p.

    One transport problem over whole paths, ignoring both filtrations.
    Returns ``(distance, pth_power)``.
    """
    if P.horizon != Q.horizon:
        raise HorizonMismatch(f"horizons differ: {P.horizon} vs {Q.horizon}")
    xp = P.paths
    yq = Q.paths
    cost = np.abs(xp.values[:, None, :] - yq.values[None, :, :]) ** params.p
    plan = solve_exact(TransportProblem(xp.probs, yq.probs, cost.sum(axis=2)))
    return plan.objective ** (1.0 / params.p), plan.objective


# -- brute-force oracle --------------------------------------------------------


def _prefix_groups(tree: ScenarioTree, t: int) -> list[np.ndarray]:
    """Path indices grouped by their time-t ancestor node."""
    anc = tree.ancestor_matrix[:, t]
    return [np.nonzero(anc == nid)[0] for nid in tree.levels[t]]


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

    def var(i: int, j: int) -> int:
        return i * n + j

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    rhs: list[float] = []

    def add_row(entries: dict[int, float], b: float) -> None:
        r = len(rhs)
        for c, val in entries.items():
            rows.append(r)
            cols.append(c)
            data.append(val)
        rhs.append(b)

    for i in range(m):
        add_row({var(i, j): 1.0 for j in range(n)}, float(xp.probs[i]))
    for j in range(n):
        add_row({var(i, j): 1.0 for i in range(m)}, float(yq.probs[j]))

    def causality_rows(groups_a, groups_b, w_a, swap: bool) -> None:
        for ga in groups_a:
            if len(ga) < 2:
                continue
            rep = int(ga[0])
            for other in ga[1:]:
                other = int(other)
                for gb in groups_b:
                    entries: dict[int, float] = {}
                    for jb in gb:
                        jb = int(jb)
                        key = var(jb, rep) if swap else var(rep, jb)
                        entries[key] = entries.get(key, 0.0) - float(w_a[other])
                        key = var(jb, other) if swap else var(other, jb)
                        entries[key] = entries.get(key, 0.0) + float(w_a[rep])
                    add_row(entries, 0.0)

    for t in range(1, T):
        causality_rows(_prefix_groups(P, t), _prefix_groups(Q, t), xp.probs, swap=False)
        causality_rows(_prefix_groups(Q, t), _prefix_groups(P, t), yq.probs, swap=True)

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
    pi = res.x.reshape(m, n)
    pth_power = float(res.fun)
    per_stage = tuple(
        float(np.sum(pi * np.abs(xp.values[:, None, t] - yq.values[None, :, t]) ** params.p))
        for t in range(T)
    )
    coupling = coupling_from_path_matrix(P, Q, pi, marginal_tol=1e-7)
    return AWResult(
        distance=pth_power ** (1.0 / params.p),
        pth_power=pth_power,
        per_stage_costs=per_stage,
        coupling=coupling,
    )


def coupling_from_path_matrix(
    P: ScenarioTree,
    Q: ScenarioTree,
    pi: np.ndarray,
    mass_tol: float = 1e-12,
    marginal_tol: float = 1e-8,
) -> CouplingTree:
    """Fold a joint law over path pairs into a synchronized product tree.

    Entries below ``mass_tol`` are dropped and each transition family is
    renormalized, so solver dust does not produce spurious pair nodes.
    """
    T = P.horizon
    ancP, ancQ = P.ancestor_matrix, Q.ancestor_matrix
    pairs = [PairNode(0, 0, P.root, Q.root, 1.0, None)]
    live = [(i, j) for i, j in zip(*np.nonzero(pi > mass_tol))]

    def rec(pid: int, members: list[tuple[int, int]], mass: float, t: int) -> None:
        if t > T:
            return
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, j in members:
            groups.setdefault((int(ancP[i, t]), int(ancQ[j, t])), []).append((i, j))
        masses = {key: sum(float(pi[i, j]) for i, j in grp) for key, grp in groups.items()}
        total = sum(masses.values())
        for key in sorted(groups):
            grp = groups[key]
            nid = len(pairs)
            pairs.append(PairNode(nid, t, key[0], key[1], masses[key] / total, pid))
            rec(nid, grp, masses[key], t + 1)

    rec(0, live, 1.0, 1)
    return CouplingTree(P, Q, pairs, marginal_tol=marginal_tol)


# -- bicausalization (discrete second-marginal perturbation) -------------------


def bicausalize(coupling: CouplingTree, delta: float) -> tuple[CouplingTree, ScenarioTree]:
    """Perturb the second marginal by at most ``delta`` so the coupling
    becomes bicausal.

    Each coupled y value is snapped to the grid ``delta * floor(y / delta)``
    and then shifted by a sub-delta offset that injectively encodes the
    paired x value, so the x coordinate becomes readable from the perturbed y
    coordinate.  The input must already be causal in the x-to-y direction.
    """
    if delta <= 0.0:
        raise InvalidParams(f"delta must be positive, got {delta}")
    if not check_causal(coupling, "x_to_y"):
        raise NotCausal("bicausalize requires a coupling causal from x to y")
    P, Q = coupling.first, coupling.second
    parent = [pn.parent for pn in coupling.pair_nodes]
    time = [pn.time for pn in coupling.pair_nodes]
    x_node = [pn.x_node for pn in coupling.pair_nodes]
    yv = Q.values.tolist()
    y_value = [yv[pn.y_node] for pn in coupling.pair_nodes]  # the root's is never read
    prob = list(coupling.prob)
    return _bicausalize_pairs(P, parent, time, x_node, y_value, prob, delta)


def _bicausalize_pairs(
    P: ScenarioTree,
    parent: list[int | None],
    time: list[int],
    x_node: list[int],
    y_value: list[float | None],
    prob: list[float],
    delta: float,
) -> tuple[CouplingTree, ScenarioTree]:
    """Shared quotient construction behind :func:`bicausalize`.

    The pair tree is given explicitly (parents, x nodes, raw y values, joint
    node probabilities); the output merges pair nodes with equal perturbed
    y histories into canonical nodes of the new second-marginal tree.
    """
    T = P.horizon
    n = len(parent)
    offsets: list[dict[float, float]] = [{} for _ in range(T + 1)]
    for t in range(1, T + 1):
        vals = sorted({P.nodes[nid].value for nid in P.levels[t]})
        for k, v in enumerate(vals):
            offsets[t][v] = (k + 1) * delta / (2.0 * (len(vals) + 1))

    cell = [0] * n
    ynew = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    root = None
    for pid in range(n):
        if parent[pid] is None:
            root = pid
            continue
        children[parent[pid]].append(pid)
        t = time[pid]
        xval = P.nodes[x_node[pid]].value
        cell[pid] = math.floor(y_value[pid] / delta)
        ynew[pid] = cell[pid] * delta + offsets[t][xval]

    q_nodes = [Node(0, 0, None, 1.0, None)]
    new_pairs = [PairNode(0, 0, P.root, 0, 1.0, None)]
    # classes: members share one x node and one perturbed-y history
    stack = [(0, [root], 1.0)]
    while stack:
        new_pid, members, mass = stack.pop()
        kids = [c for pid in members for c in children[pid]]
        if not kids:
            continue
        groups: dict[float, list[int]] = {}
        for c in sorted(kids, key=lambda c: (ynew[c], x_node[c])):
            groups.setdefault(ynew[c], []).append(c)
        for yv, grp in groups.items():
            keys = {(cell[c], P.nodes[x_node[c]].value) for c in grp}
            if len(keys) > 1:
                raise DeltaTooSmall(
                    f"encoded values collide at {yv!r}; decrease the atom count or increase delta"
                )
            gmass = sum(prob[c] for c in grp)
            qid = len(q_nodes)
            parent_qid = new_pairs[new_pid].y_node
            q_nodes.append(Node(qid, time[grp[0]], yv, gmass / mass, parent_qid))
            npid = len(new_pairs)
            new_pairs.append(
                PairNode(npid, time[grp[0]], x_node[grp[0]], qid, gmass / mass, new_pid)
            )
            stack.append((npid, grp, gmass))
    q_tree = ScenarioTree(T, q_nodes)
    return CouplingTree(P, q_tree, new_pairs), q_tree
