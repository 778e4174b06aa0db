"""Adapted (bicausal) Wasserstein distance between scenario trees.

The distance is computed exactly by a backward recursion over synchronized
node pairs: at each pair of time-t nodes, one finite transport problem is
solved between the two child distributions, with the transported cost equal
to the stage cost |x - y|^p plus the already-computed value of the child
pair.  The recursion's optimal plans assemble into a coupling tree that is
bicausal by construction.

Node pairs are solved per pair of family sizes, in chunks.  At the last
stage the cost is |x - y|^p alone, so every pair of child families is a
sorted 1-d problem, solved by the lockstep north-west-corner kernel.
Interior stages add the children's values, which breaks submodularity: a
chunk of at least ``_SIMPLEX_BATCH_MIN`` pairs runs the transportation
simplex in lockstep, a smaller one per node pair, and both give the same
bits.  Each chunk's costs are one gather, and the transport checks run
once per size class and chunk rather than per pair.  What the families'
weights alone decide (the last stage's plans, given the sibling orders,
and the per-pair interior starts) is kept in the structure cache for trees
of one structure, on levels of at most ``_BATCH_CELLS`` cells, so the ball
checks of a robust curve, which measure many ``with_values`` candidates
against one base tree, build it once.  One recursion serves two entries:
:func:`aw_distance` (distance, per-stage costs, coupling) and the
distance-only :func:`aw_pth_power`, which keeps no plans.  Batching never
changes a summation order: each objective is summed over the row-major
plan as ``np.vdot`` sums it, so results are bit-identical to solving one
node pair at a time.

A brute-force LP over joint path probabilities with explicit (cross-
multiplied) causality constraints serves as an independent oracle for the
same quantity at small scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .discrete_ot import (
    TransportProblem,
    _northwest_batch,
    _northwest_corner,
    _objectives,
    check_cost,
    check_weights,
    solve_exact,
    transport_simplex,
    transport_simplex_batch,
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
# plan cells per batched solve, or tree-mask cells, (m + n)^2 per problem, for
# the simplex; bounds the kernels' temporaries
_BATCH_CELLS = 1 << 18
# interior pairs per chunk from which the lockstep simplex beats per-pair solves
_SIMPLEX_BATCH_MIN = 16


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

    Pair node ``k`` couples node ``x_node[k]`` of the first tree with node
    ``y_node[k]`` of the second at ``time[k]``; ``parent[k]`` is its parent
    pair (-1 at the root pair ``root``), ``cond_prob[k]`` the joint
    transition probability given that parent and ``prob[k]`` the joint
    probability.  These read-only arrays are the coupling; the
    :class:`PairNode` records ``pair_nodes`` and the child id tuples
    ``children`` are built from them on first read.

    Every construction validates, from records or arrays alike: one root
    pair covers both roots, each edge steps one time level along both
    trees' edges, conditional probabilities lie in (0, 1], each joint
    kernel sums to 1 without repeating a child pair, pairs end only at the
    horizon, and projecting the joint node probabilities onto either
    coordinate reproduces that tree's node probabilities within
    ``marginal_tol``.  Causality is a property of the transition kernels
    and is *not* enforced here; use :func:`check_causal`.
    """

    __slots__ = ("first", "second", "parent", "time", "x_node", "y_node", "cond_prob", "prob",
                 "root", "_pair_nodes", "_children")

    def __init__(
        self,
        first: ScenarioTree,
        second: ScenarioTree,
        pair_nodes: Sequence[PairNode],
        marginal_tol: float = 1e-10,
    ):
        pair_nodes = tuple(pair_nodes)
        for k, pn in enumerate(pair_nodes):
            if pn.id != k:
                raise InvalidCoupling(f"pair node ids must equal list positions; got {pn.id} at {k}")

        def ints(name, values):
            a = np.array(values)
            if a.size and a.dtype.kind not in "iu":
                raise InvalidCoupling(f"pair node field {name!r} must hold integers")
            return a.astype(np.intp)

        self._check(
            first, second,
            ints("parent", [-1 if pn.parent is None else pn.parent for pn in pair_nodes]),
            ints("time", [pn.time for pn in pair_nodes]),
            ints("x_node", [pn.x_node for pn in pair_nodes]),
            ints("y_node", [pn.y_node for pn in pair_nodes]),
            np.array([pn.cond_prob for pn in pair_nodes], dtype=np.float64),
            marginal_tol,
        )
        self._pair_nodes = pair_nodes

    @classmethod
    def _from_arrays(cls, first, second, parent, time, x_node, y_node, cond_prob,
                     marginal_tol: float = 1e-10) -> CouplingTree:
        """The coupling held by these pair arrays, validated as the records are."""
        out = object.__new__(cls)
        out._check(first, second, parent, time, x_node, y_node, cond_prob, marginal_tol)
        out._pair_nodes = None
        return out

    def _check(self, first, second, parent, time, x_node, y_node, cond_prob, marginal_tol):
        """Validate the pair arrays and keep them with the joint probabilities.

        A failure names the pair node the per-record checks met first: the
        edge checks run in id order, the family checks in breadth-first
        order.  Every pair is reachable once the edge checks pass, because
        each parent chain then steps down one time level per edge until it
        ends at the only root.
        """
        if first.horizon != second.horizon:
            raise HorizonMismatch("coupled trees must share one horizon")
        n = len(parent)
        roots = np.flatnonzero(parent == -1)
        if len(roots) != 1 or x_node[roots[0]] != first.root or y_node[roots[0]] != second.root:
            raise InvalidCoupling("expected exactly one root pair covering both tree roots")
        root = int(roots[0])

        stray = (parent < -1) | (parent >= n)
        par = np.where(stray, root, parent)
        par[root] = root
        faults = (
            (stray, "references unknown parent {}"),
            (time != time[par] + 1, "skips time levels"),
            (~_on_edges(first, x_node, par), "breaks the first tree's edges"),
            (~_on_edges(second, y_node, par), "breaks the second tree's edges"),
            (~((cond_prob > 0.0) & (cond_prob <= 1.0)), "has cond_prob outside (0, 1]"),
        )
        bad = np.logical_or.reduce([f for f, _ in faults])
        bad[root] = False
        if bad.any():
            k = int(np.argmax(bad))
            msg = next(m for f, m in faults if f[k])
            raise InvalidCoupling(f"pair node {k} " + msg.format(parent[k]))

        kids = np.flatnonzero(parent >= 0)
        nkids = np.bincount(parent[kids], minlength=n)
        ksum = np.bincount(parent[kids], weights=cond_prob[kids], minlength=n)
        kernel_off = (nkids > 0) & (np.abs(ksum - 1.0) > 1e-9)
        early = (nkids == 0) & (time != first.horizon)
        # the edge checks make a child pair's key fix its parent's, so a key
        # repeats anywhere only if it repeats under one parent
        key = x_node * len(second.node_prob) + y_node
        skey = np.sort(key)
        if kernel_off.any() or early.any() or (skey[1:] == skey[:-1]).any():
            children = _child_lists(parent)
            order = [root]
            for v in order:
                order.extend(children[v])
            for v in order:
                if early[v]:
                    raise InvalidCoupling(f"pair node {v} ends before the horizon")
                if kernel_off[v]:
                    raise InvalidCoupling(
                        f"joint kernel at pair node {v} sums to {float(ksum[v])!r}"
                    )
                seen = set()
                for c in children[v]:
                    xy = (int(x_node[c]), int(y_node[c]))
                    if xy in seen:
                        raise InvalidCoupling(f"duplicate child pair {xy} under pair node {v}")
                    seen.add(xy)

        # joint probabilities one time level at a time, parents first
        by_time = np.argsort(time, kind="stable")
        prob = np.empty(n)
        prob[root] = 1.0
        for idx in np.split(by_time, np.flatnonzero(np.diff(time[by_time])) + 1)[1:]:
            prob[idx] = prob[parent[idx]] * cond_prob[idx]

        for tree, nodes, which in ((first, x_node, "first"), (second, y_node, "second")):
            off = np.bincount(nodes, weights=prob, minlength=len(tree.node_prob))
            off -= tree.node_prob
            miss = np.flatnonzero(np.abs(off) > marginal_tol)
            if miss.size:
                raise InvalidCoupling(
                    f"{which} marginal off by {float(off[miss[0]])!r} at node {miss[0]}"
                )

        self.first = first
        self.second = second
        self.parent, self.time, self.x_node, self.y_node, self.cond_prob, self.prob = (
            _frozen(a) for a in (parent, time, x_node, y_node, cond_prob, prob)
        )
        self.root = root
        self._children = None

    @property
    def pair_nodes(self) -> tuple[PairNode, ...]:
        """The pair records, in id order; built on first read."""
        if self._pair_nodes is None:
            cols = (a.tolist() for a in (self.time, self.x_node, self.y_node, self.cond_prob,
                                         self.parent))
            self._pair_nodes = tuple(
                PairNode(k, t, x, y, c, None if par < 0 else par)
                for k, (t, x, y, c, par) in enumerate(zip(*cols))
            )
        return self._pair_nodes

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child pair ids per pair, in id order; built on first read."""
        if self._children is None:
            self._children = tuple(tuple(c) for c in _child_lists(self.parent))
        return self._children

    def stage_costs(self, p: float) -> tuple[float, ...]:
        """E[|X_t - Y_t|^p] per stage under the coupling, summed in pair-id order."""
        k = np.flatnonzero(self.time > 0)
        dx = np.abs(self.first.values[self.x_node[k]] - self.second.values[self.y_node[k]])
        # Python's float power: numpy's may differ from it in the last bit
        cost = self.prob[k] * np.array([d ** p for d in dx.tolist()])
        return tuple(np.bincount(self.time[k] - 1, weights=cost,
                                 minlength=self.first.horizon).tolist())


def _on_edges(tree: ScenarioTree, nodes: np.ndarray, par: np.ndarray) -> np.ndarray:
    """Per pair: whether its node is a child of its parent pair's node."""
    up = tree.parent
    known = (nodes >= 0) & (nodes < len(up))
    up = np.where(known, up[np.where(known, nodes, 0)], -1)
    return (up >= 0) & (up == nodes[par])


def _child_lists(parent: np.ndarray) -> list[list[int]]:
    """Child ids per id, in id order, of a parent array with -1 at roots."""
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.argsort(parent[kids], kind="stable")]
    counts = np.bincount(parent[kids], minlength=len(parent))
    return [c.tolist() for c in np.split(order, np.cumsum(counts)[:-1])]


def _child_index(tree: ScenarioTree):
    """``(size, start, flat, rank)``: per node its family size, the start of
    its children in ``flat`` (all children, grouped by parent id, in tree
    order) and its own rank among its siblings; cached per structure."""
    def build():
        parent = tree.parent
        size = np.bincount(parent[parent >= 0], minlength=len(parent))
        flat = np.argsort(parent, kind="stable")[1:]  # the root's -1 sorts first
        start = np.cumsum(size) - size
        rank = np.zeros(len(parent), dtype=np.intp)
        rank[flat] = np.arange(len(flat)) - start[parent[flat]]
        return tuple(_frozen(a) for a in (size, start, flat, rank))
    return _memo(tree._shared, "child index", build)


@dataclass(frozen=True)
class AWResult:
    """Adapted distance with its p-th power, per-stage costs and optimal coupling."""

    distance: float
    pth_power: float
    per_stage_costs: tuple[float, ...]
    coupling: CouplingTree


def check_causal(coupling: CouplingTree, direction: Direction, tol: float = 1e-10) -> bool:
    """Kernel-factorization causality check.

    ``x_to_y`` verifies that, at every pair node with children, projecting
    the joint transition kernel onto the first coordinate reproduces the
    first tree's kernel: given the joint past, the next step of X carries
    no information about Y's past.  This one-step factorization at every
    node is equivalent to the conditional-independence form of causality,
    and it needs no division by small path probabilities.  All projections
    are one ``np.bincount`` over (parent pair, marginal child) slots, each
    summed in pair-id order.
    """
    if direction == "x_to_y":
        tree, nodes = coupling.first, coupling.x_node
    elif direction == "y_to_x":
        tree, nodes = coupling.second, coupling.y_node
    else:
        raise InvalidParams(f"unknown direction {direction!r}")
    size, start, flat, rank = _child_index(tree)
    kids = np.flatnonzero(coupling.parent >= 0)
    par = coupling.parent[kids]
    # one slot per child of each parent pair's node; validation put every
    # child pair's node among them
    width = np.where(np.bincount(par, minlength=len(nodes)) > 0, size[nodes], 0)
    off = np.cumsum(width) - width
    total = int(width.sum())
    proj = np.bincount(off[par] + rank[nodes[kids]], weights=coupling.cond_prob[kids],
                       minlength=total)
    want = tree.cond_prob[flat[np.repeat(start[nodes] - off, width) + np.arange(total)]]
    return not (np.abs(proj - want) > tol).any()


def is_bicausal(coupling: CouplingTree, tol: float = 1e-10) -> bool:
    return check_causal(coupling, "x_to_y", tol) and check_causal(coupling, "y_to_x", tol)


def product_coupling(P: ScenarioTree, Q: ScenarioTree) -> CouplingTree:
    """Independent coupling: the joint kernel is the product of the marginals."""
    if P.horizon != Q.horizon:
        raise HorizonMismatch("product coupling needs equal horizons")

    def kernels(t, a, b, xp, yp):
        (_, xrow, xf), (_, yrow, yf) = _size_classes(P, t), _size_classes(Q, t)
        return xf[a][3][xrow[xp]][:, :, None] * yf[b][3][yrow[yp]][:, None, :]

    return CouplingTree._from_arrays(P, Q, *_assemble(P, Q, kernels, -np.inf))


def _assemble(P: ScenarioTree, Q: ScenarioTree, kernels, cutoff: float):
    """Pair arrays ``(parent, time, x_node, y_node, cond_prob)`` of the
    synchronized tree in which each node pair moves to the cells of its
    joint kernel that carry more than ``cutoff``.

    ``kernels(t, a, b, xp, yp)`` returns the (k, m, n) kernels of the
    time-t node pairs at level positions ``(xp[k], yp[k])`` whose families
    lie in size class ``a`` of ``_size_classes(P, t)`` and ``b`` of
    ``_size_classes(Q, t)``, with rows and columns in the children's tree
    order.  The tree is grown one level at a time, and the ids are those of
    a last-in-first-out expansion from the root pair: the popped pair gives
    its cells the next ids in row-major order and pushes those before the
    horizon, so its last child is expanded next.
    """
    T = P.horizon
    xpos, ypos = P.level_pos, Q.level_pos
    # per level: parent (position in the level above), x node, y node, cond_prob
    levels = [(np.array([-1]), np.array([P.root]), np.array([Q.root]), np.array([1.0]))]
    for t in range(T):
        _, xs, ys, _ = levels[-1]
        (xcls, xrow, xfam), (ycls, yrow, yfam) = _size_classes(P, t), _size_classes(Q, t)
        xp, yp = xpos[xs], ypos[ys]
        group = xcls[xp] * len(yfam) + ycls[yp]
        parts = []
        for g in np.flatnonzero(np.bincount(group)).tolist():
            sel = np.flatnonzero(group == g)
            a, b = divmod(g, len(yfam))
            plan = kernels(t, a, b, xp[sel], yp[sel])
            f, i, j = np.nonzero(plan > cutoff)
            parts.append((sel[f], xfam[a][1][xrow[xp[sel]][f], i],
                          yfam[b][1][yrow[yp[sel]][f], j], plan[f, i, j]))
        level = [np.concatenate(col) for col in zip(*parts)]
        if len(parts) > 1:  # back to parent order; each parent's cells stay row-major
            o = np.argsort(level[0], kind="stable")
            level = [col[o] for col in level]
        levels.append(tuple(level))

    sizes = [len(lv[0]) for lv in levels]
    nkids = [np.bincount(levels[t + 1][0], minlength=sizes[t]) for t in range(T)]
    # pairs each pushed pair's subtree pops, itself included (the horizon is never pushed)
    pops = [np.ones(sizes[T - 1], dtype=np.intp)]
    for t in range(T - 2, -1, -1):
        below = np.bincount(levels[t + 1][0], weights=pops[0], minlength=sizes[t])
        pops.insert(0, 1 + below.astype(np.intp))
    # pop position: after the parent and after the subtrees of later siblings
    popped = [np.zeros(1, dtype=np.intp)]
    for t in range(1, T):
        par = levels[t][0]
        popped.append(popped[-1][par] + 1 + np.cumsum(pops[t - 1] - 1)[par] - np.cumsum(pops[t]))
    at = np.concatenate(popped)
    given = np.empty(len(at), dtype=np.intp)
    given[at] = np.concatenate(nkids)
    first_id = (np.cumsum(given) - given + 1)[at]  # per pushed pair, in level order

    n = sum(sizes)
    parent, time, x_node, y_node = (np.empty(n, dtype=np.intp) for _ in range(4))
    cond = np.empty(n)
    ids = np.zeros(1, dtype=np.intp)
    parent[0], time[0], x_node[0], y_node[0], cond[0] = -1, 0, P.root, Q.root, 1.0
    done = 0
    for t in range(1, T + 1):
        par, xs, ys, w = levels[t]
        lead = first_id[done:done + sizes[t - 1]] - (np.cumsum(nkids[t - 1]) - nkids[t - 1])
        done += sizes[t - 1]
        kid_ids = lead[par] + np.arange(sizes[t])
        parent[kid_ids], time[kid_ids], x_node[kid_ids], y_node[kid_ids] = ids[par], t, xs, ys
        cond[kid_ids] = w
        ids = kid_ids
    return parent, time, x_node, y_node, cond


# -- exact distance via backward recursion ------------------------------------


def _size_classes(tree: ScenarioTree, t: int):
    """The time-t families grouped by size as ``tree._sibling_groups(t)``
    groups them; cached per structure.

    Returns ``(cls, row, families)``: per node, by level position, its
    class and its row there, and per class ``(at, kids, below, weights,
    sums)`` with one row per family: the parents' level positions, the
    children's ids and level positions in tree order, their conditional
    probabilities, which pass the weight checks of
    :class:`TransportProblem` here, once, and those rows' sums.
    """
    def build():
        pos, cond = tree.level_pos, tree.cond_prob
        cls = np.empty(len(tree.levels[t]), dtype=np.intp)
        row = np.empty_like(cls)
        families = []
        for c, (parents, kids) in enumerate(tree._sibling_groups(t)):
            at = _frozen(pos[list(parents)])
            cls[at] = c
            row[at] = np.arange(len(parents))
            w = _frozen(cond[kids])
            families.append((at, kids, _frozen(pos[kids]), w, _frozen(check_weights(w))))
        return _frozen(cls), _frozen(row), tuple(families)
    return _memo(tree._shared, ("classes", t), build)


def _stage(P: ScenarioTree, Q: ScenarioTree, t: int, p: float, value: np.ndarray | None,
           kept: dict | None) -> np.ndarray:
    """Values of all time-t node pairs, given ``value``, those of the
    time-(t+1) pairs (None at the last stage), by level positions.

    The pairs are solved per pair of size classes of :func:`_size_classes`
    and in chunks of about ``_BATCH_CELLS`` cells; a chunk's costs are one
    broadcast, checked for finiteness once.  At the last stage the cost is
    the stage cost alone, submodular on atoms sorted as the trees' sibling
    sorts sort them, so the chunk's lockstep north-west plans are optimal.
    Interior stages add the children's values to the stage cost, which
    breaks submodularity: a chunk of at least ``_SIMPLEX_BATCH_MIN`` pairs
    runs the lockstep simplex of :func:`transport_simplex_batch`, which
    equals the per-pair :func:`transport_simplex` bit for bit and below
    that size is slower than it, and a smaller one runs :func:`_per_pair`.
    Either way the second marginal is rescaled as :func:`solve_exact`
    rescales it.

    The families' weights alone decide the last stage's plans, given both
    sibling orders, and the per-pair north-west starts.  Two trees of one
    structure (``with_values`` candidates and their base) share the
    weights, so for them, on a level of at most ``_BATCH_CELLS`` cells
    (one chunk per pair of classes), these live in the structure cache,
    read-only: the last stage's plans as one entry per pair of classes
    with the orders they were built for, replaced when a pair's orders
    differ, which is rare since a small shift keeps the order of siblings.
    Larger levels, and pairs of different structures, build them afresh,
    so the cache holds at most ``_BATCH_CELLS`` cells per level.

    With ``kept`` given, the plans of the pairs of families in classes
    ``a`` and ``b`` are kept, with the children in tree order, as one
    array ``kept[a, b]`` of shape (F, m, n): the pair of rows ``i`` and
    ``j`` is plan ``i * len(class b) + j``.
    """
    level = np.empty((len(P.levels[t]), len(Q.levels[t])))
    xfam, yfam = _size_classes(P, t)[2], _size_classes(Q, t)[2]

    def cells(m, n):  # per pair: plan cells, or tree-mask cells for the simplex
        return m * n if value is None else (m + n) ** 2

    # a pair of one structure keeps the weight-only starts of a level of at
    # most _BATCH_CELLS cells, which is one chunk per pair of classes; the
    # level's cell count is itself kept per structure
    shared = None
    if P._shared is Q._shared and _memo(P._shared, ("cells", t, value is None), lambda: sum(
            len(xw) * len(yw) * cells(xw.shape[1], yw.shape[1])
            for *_, xw, _ in xfam for *_, yw, _ in yfam)) <= _BATCH_CELLS:
        shared = P._shared
    if value is None:
        xsorted, ysorted = P._cache[("sorted", t)], Q._cache[("sorted", t)]
    for a, (xat, xkids, xbelow, xw, xsum) in enumerate(xfam):
        m = xw.shape[1]
        for b, (yat, ykids, ybelow, yw, ysum) in enumerate(yfam):
            cy, n = yw.shape
            step = max(1, _BATCH_CELLS // (cy * cells(m, n)))
            for lo in range(0, len(xat), step):
                bx = slice(lo, lo + step)
                cx = len(xat[bx])
                if value is None:
                    (xv, ox), (yv, oy) = xsorted[a], ysorted[b]
                    ox = ox[bx]
                    cost = np.abs(xv[bx][:, None, :, None] - yv[None, :, None, :]) ** p
                    cost = cost.reshape(cx * cy, m, n)
                    check_cost(cost)
                    plan = _monotone_plans(shared, ("plans", t, a, b), xw[bx], ox, yw, oy)
                    obj = _objectives(plan, cost)
                else:
                    xv, yv = P.values[xkids[bx]], Q.values[ykids]
                    cost = (np.abs(xv[:, None, :, None] - yv[None, :, None, :]) ** p
                            + value[xbelow[bx][:, None, :, None], ybelow[None, :, None, :]])
                    cost = cost.reshape(cx * cy, m, n)
                    check_cost(cost)
                    if len(cost) >= _SIMPLEX_BATCH_MIN:
                        plan, obj, _, _ = transport_simplex_batch(
                            *_marginals(xw[bx], xsum[bx], yw, ysum), cost)
                    else:
                        starts = _memo(shared, ("starts", t, a, b),
                                       lambda: _starts(xw[bx], xsum[bx], yw, ysum))
                        plan, obj = _per_pair(starts, cost)
                del cost  # before the kept plans are allocated
                level[xat[bx, None], yat] = obj.reshape(cx, cy)
                if kept is not None:
                    if lo == 0:  # after the first solve, so its temporaries are gone
                        kept[a, b] = whole = np.empty((len(xat) * cy, m, n))
                    rows = slice(lo * cy, (lo + cx) * cy)
                    if value is None:
                        whole[rows][np.arange(cx * cy)[:, None, None],
                                    np.repeat(ox, cy, axis=0)[:, :, None],
                                    np.tile(oy, (cx, 1))[:, None, :]] = plan
                    else:
                        whole[rows] = plan
    return level


def _marginals(xw, xsum, yw, ysum):
    """Both marginals of each pair of an x family (rows of ``xw``, which
    sum to ``xsum``) and a y family (rows of ``yw``), x-major, the second
    rescaled as :func:`solve_exact` rescales it."""
    ratio = (xsum[:, None] / ysum[None, :]).reshape(-1, 1)
    return np.repeat(xw, len(yw), axis=0), np.tile(yw, (len(xw), 1)) * ratio


def _starts(xw, xsum, yw, ysum) -> tuple:
    """The north-west start of each pair of :func:`_marginals`, as
    :func:`transport_simplex` takes it: its cells in walk order, which is
    the order the simplex hangs its first basis tree in."""
    mu, nu = _marginals(xw, xsum, yw, ysum)
    return tuple(map(_northwest_corner, mu.tolist(), nu.tolist()))


def _monotone_plans(shared: dict | None, key, xw, ox, yw, oy) -> np.ndarray:
    """The last stage's plans of each pair of an x family (rows of ``xw``)
    and a y family (rows of ``yw``), x-major, with the children sorted by
    ``ox`` and ``oy``: the north-west plans of the sorted weights.  With
    ``shared`` given, the plans kept there under ``key`` for the same
    orders, or new plans kept in their place."""
    if shared is not None:
        hit = shared.get(key)
        if hit and hit[0].tobytes() == ox.tobytes() and hit[1].tobytes() == oy.tobytes():
            return hit[2]
    xw, yw = np.take_along_axis(xw, ox, axis=1), np.take_along_axis(yw, oy, axis=1)
    plan = _frozen(_northwest_batch(*_marginals(xw, xw.sum(axis=-1), yw, yw.sum(axis=-1)))[0])
    if shared is not None:
        shared[key] = (ox, oy, plan)
    return plan


def _per_pair(starts, cost: np.ndarray):
    """The transportation simplex on each problem of the (F, m, n)
    ``cost`` from its start in ``starts``, one at a time; returns the plans
    and objectives, built from all the optimal flows at once as
    :func:`transport_simplex_batch` builds them: one scatter, one clip and
    :func:`_objectives`."""
    _, m, n = cost.shape
    at: list[int] = []
    mass: list[float] = []
    for k, (cells, masses) in enumerate(starts):
        flow = transport_simplex(cells, masses, cost[k])[0]
        at += [(k * m + i) * n + j for i, j in flow]
        mass += flow.values()
    plans = np.zeros(cost.shape)
    plans.reshape(-1)[at] = mass
    np.maximum(plans, 0.0, out=plans)  # np.clip(plans, 0.0, None), without its wrapper
    return plans, _objectives(plans, cost)


def _recursion(P: ScenarioTree, Q: ScenarioTree, p: float, plans: dict | None) -> float:
    """p-th power of the adapted distance by backward recursion.

    ``value`` holds one level's pair values as a matrix indexed by the two
    nodes' level positions; :func:`_stage` computes each level from the one
    below.  With ``plans`` given, ``plans[t]`` keeps the optimal plans of
    the time-t node pairs as :func:`_stage` keeps them.
    """
    if P.horizon != Q.horizon:
        raise HorizonMismatch(f"horizons differ: {P.horizon} vs {Q.horizon}")
    value = None
    for t in range(P.horizon - 1, -1, -1):
        value = _stage(P, Q, t, p, value, None if plans is None else plans.setdefault(t, {}))
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
    interior stages solve the full transport problem by the simplex, in
    lockstep batches or per node pair (see :func:`_stage`).  Every sum runs
    in the order of the per-pair solvers (``np.vdot`` over the row-major
    plan), so the distance, plans and coupling do not depend on the
    batching.  The plan cells above 1e-15 of the pairs reached from the
    root then become the coupling's pair arrays, level by level.
    """
    p = params.p
    plans: dict = {}
    pth_power = _recursion(P, Q, p, plans)

    def kernels(t, a, b, xp, yp):
        (_, xrow, _), (_, yrow, yfam) = _size_classes(P, t), _size_classes(Q, t)
        return plans[t][a, b][xrow[xp] * len(yfam[b][0]) + yrow[yp]]

    arrays = _assemble(P, Q, kernels, 1e-15)
    plans.clear()
    coupling = CouplingTree._from_arrays(P, Q, *arrays)
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
    return _bicausalize_pairs(
        coupling.first, coupling.parent.tolist(), coupling.time.tolist(),
        coupling.x_node.tolist(),
        coupling.second.values[coupling.y_node].tolist(),  # the root's is never read
        coupling.prob.tolist(), delta,
    )


def _bicausalize_pairs(
    P: ScenarioTree,
    parent: list[int],
    time: list[int],
    x_node: list[int],
    y_value: list[float | None],
    prob: list[float],
    delta: float,
) -> tuple[CouplingTree, ScenarioTree]:
    """Shared quotient construction behind :func:`bicausalize`.

    The pair tree is given explicitly (parents, -1 at the root, x nodes,
    raw y values, joint node probabilities); the output merges pair nodes
    with equal perturbed y histories into canonical nodes of the new
    second-marginal tree.
    """
    T = P.horizon
    n = len(parent)
    pv = P.values.tolist()
    offsets: list[dict[float, float]] = [{} for _ in range(T + 1)]
    for t in range(1, T + 1):
        vals = sorted({pv[nid] for nid in P.levels[t]})
        for k, v in enumerate(vals):
            offsets[t][v] = (k + 1) * delta / (2.0 * (len(vals) + 1))

    cell = [0] * n
    ynew = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    root = None
    for pid in range(n):
        if parent[pid] < 0:
            root = pid
            continue
        children[parent[pid]].append(pid)
        t = time[pid]
        xval = pv[x_node[pid]]
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
            keys = {(cell[c], pv[x_node[c]]) for c in grp}
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
