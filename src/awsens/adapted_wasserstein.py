"""Adapted (bicausal) Wasserstein distance between scenario trees.

The distance is computed exactly by a backward recursion over synchronized
node pairs: at each pair of time-t nodes, one finite transport problem is
solved between the two child distributions, with the transported cost equal
to the stage cost |x - y|^p plus the already-computed value of the child
pair.  The recursion's optimal plans assemble into a coupling tree that is
bicausal by construction.

A pair's value depends only on the two subtrees below it, so each level
of each tree is split into subtree classes (:func:`_subtree_classes`):
nodes whose children, in child order, carry the same value bits,
``cond_prob`` bits and classes.  Two pairs in the same two classes pose
the same transport problem bit for bit, so one representative pair per
pair of classes is solved, and each level's values and kept plans are
held by class; random trees, whose nodes are all their own classes, run
the per-position layout unchanged.

Node pairs are solved per pair of family sizes, in chunks of at most
``_BATCH_CELLS`` cells.  At the last stage the cost is |x - y|^p alone,
so every pair of child families is a sorted 1-d problem, solved by the
lockstep north-west-corner kernel on the families as the trees sort them
on first read.  Interior stages add the children's values, which breaks
submodularity: each chunk is one :func:`~awsens.discrete_ot.solve_batch`
call, and that module alone chooses between its lockstep and per-problem
simplex kernels, which give the same bits.  Each interior pair starts
from the north-west plan of its children sorted by value, optimal for the
stage cost alone, or in tree order when its two marginals are equal.
Each chunk's costs are one gather, and the transport checks run once per
size class and chunk rather than per pair.  The last stage's plans, which
the families' weights alone decide given the sibling orders, are kept in
the structure cache for trees of one structure when they fit
``_BATCH_CELLS`` cells, so the ball checks of a robust curve, which
measure many ``with_values`` candidates against one base tree, build them
once.  One recursion serves two entries: :func:`aw_distance` (distance,
per-stage costs, coupling), which keeps the interior plans and rebuilds
the last stage's plans of only the pairs its coupling reaches, and the
distance-only :func:`aw_pth_power`, which keeps no plans.  Batching
never changes a summation order: each objective is summed over the
row-major plan as ``np.vdot`` sums it, so results are bit-identical to
solving one node pair at a time.  For two trees of one
structure, :func:`aw_pth_power` first tries
:func:`_certified_pth_power`, which solves only what the identity plans
read: the diagonal node pairs above the last stage, once a negative-cycle
certificate shows the identity plan optimal at each of them, and the
last stage's pairs of siblings below them, with the same bits.

The independent oracles for the same quantity live in :mod:`awsens.oracles`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .discrete_ot import _northwest_batch, _objectives, check_cost, check_weights, solve_batch
from .errors import (
    DeltaTooSmall,
    HorizonMismatch,
    InvalidCoupling,
    InvalidParams,
    NotCausal,
    is_number,
    tolerance,
)
from .process_tree import ScenarioTree, _child_lists, _frozen, _memo

Direction = Literal["x_to_y", "y_to_x"]

# plan cells per batched solve, or tree-mask cells, (m + n)^2 per problem, for
# the simplex; bounds the kernels' temporaries
_BATCH_CELLS = 1 << 18
# the identity certificate's margin, in m^2 * eps * (1 + max cost) for families
# of m children (see _identity_certified)
_CERTIFY_MARGIN = 8.0
_EPS = float(np.finfo(np.float64).eps)
# trees of one structure whose costs could reach this take the full recursion
_COST_CEILING = 1e300


@dataclass(frozen=True)
class AWParams:
    """Order of the distance; the conjugate exponent is always derived."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not (is_number(self.p) and 1.0 < self.p <= sys.float_info.max):
            raise InvalidParams(f"the order p must lie in (1, inf), got {self.p!r}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))


class CouplingTree:
    """A coupling between two scenario trees as a synchronized product tree.

    Pair node ``k`` couples node ``x_node[k]`` of the first tree with node
    ``y_node[k]`` of the second at ``time[k]``; ``parent[k]`` is its parent
    pair (-1 at the root pair ``root``), ``cond_prob[k]`` the joint
    transition probability given that parent and ``prob[k]`` the joint
    probability.  These read-only arrays are the coupling.

    The constructor takes the first five as 1-d sequences of one length,
    integers and numbers (see :func:`_pair_field`), and validates: one root
    pair covers both roots, each edge steps one time level along both
    trees' edges, conditional probabilities lie in (0, 1], each joint
    kernel sums to 1 without repeating a child pair, pairs end only at the
    horizon, and projecting the joint node probabilities onto either
    coordinate reproduces that tree's node probabilities within
    ``marginal_tol``.  A failure names the pair node the checks meet
    first: the edge checks run in id order, the family checks breadth
    first.  Causality is a property of the transition kernels and is
    *not* enforced here; use :func:`check_causal`.
    """

    __slots__ = ("first", "second", "parent", "time", "x_node", "y_node", "cond_prob", "prob",
                 "root")

    def __init__(self, first: ScenarioTree, second: ScenarioTree, parent, time, x_node, y_node,
                 cond_prob, marginal_tol: float = 1e-10):
        marginal_tol = tolerance(marginal_tol, "marginal_tol")
        if first.horizon != second.horizon:
            raise HorizonMismatch("coupled trees must share one horizon")
        parent, time, x_node, y_node = (
            _pair_field(name, v, "iu")
            for name, v in (("parent", parent), ("time", time), ("x_node", x_node),
                            ("y_node", y_node))
        )
        cond_prob = _pair_field("cond_prob", cond_prob, "iuf")
        n = len(parent)
        if any(len(a) != n for a in (time, x_node, y_node, cond_prob)):
            raise InvalidCoupling("pair node fields must share one length")
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

        # every pair is now reachable: each parent chain steps down one time
        # level per edge until it ends at the only root
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
            for v in order:  # breadth first
                order.extend(children[v])
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
        self.parent, self.time, self.x_node, self.y_node, self.cond_prob = (
            parent, time, x_node, y_node, cond_prob)
        self.prob = _frozen(prob)
        self.root = root

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


def _pair_field(name: str, values, kinds: str) -> np.ndarray:
    """Pair field ``name`` as a read-only 1-d array, or ``InvalidCoupling``
    unless it is a 1-d array of a dtype kind in ``kinds`` ("iu" for ids,
    "iuf" for numbers), or a sequence of numbers by
    :func:`~awsens.errors.is_number` (no booleans, strings or None) that
    numpy reads as one, which it does not for integers beyond 64 bits.  A
    read-only array of the field's dtype is kept as it is, any other input
    copied."""
    a = values
    if not (isinstance(a, np.ndarray) and a.dtype.kind in kinds):
        items = list(a) if np.iterable(a) else [None]  # a scalar is refused below
        # is_number reads the type alone, so one value of each type decides
        numbers = all(map(is_number, dict(zip(map(type, items), items)).values()))
        a = np.array(items) if numbers else None
    if a is None or a.ndim != 1 or (a.size and a.dtype.kind not in kinds):
        what = "numbers within the float range" if "f" in kinds else "integers"
        raise InvalidCoupling(f"pair node field {name!r} must hold {what} in a 1-d array")
    return _frozen(a.astype(np.float64 if "f" in kinds else np.intp, copy=a.flags.writeable))


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
    tol = tolerance(tol, "tol")
    if direction == "x_to_y":
        tree, nodes = coupling.first, coupling.x_node
    elif direction == "y_to_x":
        tree, nodes = coupling.second, coupling.y_node
    else:
        raise InvalidParams(f"unknown direction {direction!r}")
    size, start, flat, rank = tree._child_index()
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

    return CouplingTree(P, Q, *_assemble(P, Q, kernels, -np.inf))


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
    return tuple(map(_frozen, (parent, time, x_node, y_node, cond)))


# -- exact distance via backward recursion ------------------------------------


def _size_classes(tree: ScenarioTree, t: int):
    """The time-t families grouped by size as ``tree._sibling_groups(t)``
    groups them; cached per structure.

    Returns ``(cls, row, families)``: per node, by level position, its
    class and its row there, and per class ``(at, kids, below, weights)``
    with one row per family: the parents' level positions, the children's
    ids and level positions in tree order, and their conditional
    probabilities, which pass the weight checks of
    :class:`TransportProblem` here, once.
    """
    def build():
        pos, cond = tree.level_pos, tree.cond_prob
        cls = np.empty(len(tree.levels[t]), dtype=np.intp)
        row = np.empty_like(cls)
        families = []
        for c, (parents, kids) in enumerate(tree._sibling_groups(t)):
            at = _frozen(pos[parents])
            cls[at] = c
            row[at] = np.arange(len(parents))
            w = _frozen(cond[kids])
            check_weights(w)
            families.append((at, kids, _frozen(pos[kids]), w))
        return _frozen(cls), _frozen(row), tuple(families)
    return _memo(tree._shared, ("classes", t), build)


def _class_key(values: np.ndarray, cond: np.ndarray, below: np.ndarray) -> np.ndarray:
    """One row per family of one size: its children's value bits,
    ``cond_prob`` bits and subtree classes, in tree order."""
    return np.concatenate([values.view(np.int64), cond.view(np.int64), below], axis=1)


def _subtree_classes(tree: ScenarioTree):
    """Per level t < horizon, the subtree classes of the time-t nodes;
    computed bottom-up on first use and kept in the per-tree cache, since
    they depend on the values.

    The leaves form one class, and two nodes of one level share a class
    when their keys (:func:`_class_key`) are equal.  Their subtrees are
    then equal bit for bit, with the children in the same order, so every
    pair of nodes in two given classes has the same transport problem, and
    the recursion solves one representative pair per pair of classes.  The
    classes of a level are numbered by their first member in level order,
    so a level of distinct subtrees numbers them by level position.

    Returns per level ``(count, row, families, keep)``: the number of
    classes; per node, by level position, the row of its class in
    ``families``; per size class of :func:`_size_classes` ``(at, kids,
    below, weights)`` of each class's first member: the class ids, the
    children's ids, the children's classes and their weights; and per size
    class the rows of these members in :func:`_size_classes`.  When each
    class of this level and the next is one node, ``keep`` is empty and
    the rest is :func:`_size_classes`'s own layout.
    """
    def build():
        T = tree.horizon
        below, distinct = np.zeros(len(tree.levels[T]), dtype=np.intp), True
        layouts = []
        for t in range(T - 1, -1, -1):
            _, row, fam = _size_classes(tree, t)
            # per node, its class's first member; no np.unique, which imports numpy.ma
            first = np.arange(len(row))
            for at, kids, pos, _ in fam:
                key = _class_key(tree.values[kids], tree.cond_prob[kids], below[pos])
                head = np.sort(key[:, 0])
                if (head[1:] != head[:-1]).all():  # distinct first children
                    continue
                o = np.lexsort(key.T)  # stable: each run of equal keys starts at its first
                new = np.ones(len(o), dtype=bool)
                new[1:] = (key[o[1:]] != key[o[:-1]]).any(axis=1)
                first[at[o]] = at[o[np.maximum.accumulate(np.where(new, np.arange(len(o)), 0))]]
            rep = first == np.arange(len(row))
            count, cls = int(rep.sum()), (np.cumsum(rep) - 1)[first]
            if count == len(row) and distinct:
                layouts.append((count, row, fam, ()))
            else:
                keep = tuple(_frozen(np.flatnonzero(rep[at])) for at, *_ in fam)
                crow = np.empty(count, dtype=np.intp)
                families = []
                for (at, kids, pos, w), k in zip(fam, keep):
                    c = cls[at[k]]
                    crow[c] = np.arange(len(k))
                    families.append(tuple(map(_frozen, (c, kids[k], below[pos[k]], w[k]))))
                layouts.append((count, _frozen(crow[cls]), tuple(families), keep))
            below, distinct = cls, count == len(row)
        return tuple(layouts[::-1])
    return _memo(tree._cache, "subtree classes", build)


def _stage(P: ScenarioTree, Q: ScenarioTree, t: int, p: float, value: np.ndarray | None,
           kept: dict | None) -> np.ndarray:
    """Values of the time-t node pairs, given ``value``, those of the
    time-(t+1) pairs (None at the last stage), by the two nodes' subtree
    classes of :func:`_subtree_classes`: one representative pair per pair
    of classes is solved.

    The pairs are solved per pair of size classes of :func:`_size_classes`
    and in chunks of at most ``_BATCH_CELLS`` cells (or of one pair, when
    that alone is larger): a chunk takes as many y families as fit, and as
    many x families as fit with them.  A chunk's costs are one broadcast,
    checked for finiteness once.  At the last stage the cost is the stage
    cost alone, submodular on atoms sorted as the trees'
    :meth:`~awsens.process_tree.ScenarioTree._sorted_families` sort them,
    so the chunk's lockstep north-west plans are optimal.  Interior stages
    add the children's values to the stage cost, which breaks
    submodularity, so each chunk is one :func:`solve_batch` call, which
    chooses the simplex kernel by the chunk's size.  It starts each pair
    from the north-west plan of the children sorted by value (a stable
    argsort, made here and kept nowhere), the plan that is optimal for the
    stage cost alone, with the second marginal rescaled as
    :func:`solve_exact` rescales the sorted one.  A pair whose two
    marginals are equal starts in tree order instead, from the identity
    plan with the exact masses, as :func:`_certified_pth_power` needs.
    The solved plans go back to tree order before :func:`_objectives`.

    The families' weights alone decide the last stage's plans, given both
    sibling orders.  Two trees of one structure (``with_values`` candidates
    and their base) share the weights, so for them, when the last stage
    has at most ``_BATCH_CELLS`` plan cells (one chunk per pair of
    classes) and each node is its own class, its plans live in the
    structure cache, read-only, as one entry per pair of classes with the
    orders they were built for, replaced when a pair's orders differ,
    which is rare since a small shift keeps the order of siblings.  A
    larger last stage, merged classes (whose representatives, and so
    whose weights, depend on the values), interior stages and pairs of
    different structures build everything afresh.

    With ``kept`` given, at an interior stage, the plans of the
    representative pairs of families in size classes ``a`` and ``b`` are
    kept, with the children in tree order, as one array ``kept[a, b]``:
    the pair of rows ``i`` and ``j`` is plan ``kept[a, b][i, j]``.
    """
    (xn, _, xfam, xkeep), (yn, _, yfam, ykeep) = _subtree_classes(P)[t], _subtree_classes(Q)[t]
    level = np.empty((xn, yn))

    # a pair of one structure keeps the last stage's plans when they fit
    # _BATCH_CELLS cells, which is one chunk per pair of classes, and when
    # no classes merge, so its rows are the structure's, with its weights
    shared = None
    if value is None:
        xsorted, ysorted = _sorted_reps(P, t, xkeep), _sorted_reps(Q, t, ykeep)
        if P._shared is Q._shared and not (xkeep or ykeep) and sum(
                xw.size * yw.size for *_, xw in xfam for *_, yw in yfam) <= _BATCH_CELLS:
            shared = P._shared
    for a, (xat, xkids, xbelow, xw) in enumerate(xfam):
        m = xw.shape[1]
        for b, (yat, ykids, ybelow, yw) in enumerate(yfam):
            fy, n = yw.shape
            # per pair: plan cells, or tree-mask cells for the simplex
            size = m * n if value is None else (m + n) ** 2
            ystep = min(fy, max(1, _BATCH_CELLS // size))
            xstep = max(1, _BATCH_CELLS // (ystep * size))
            for lo, ylo in itertools.product(range(0, len(xat), xstep), range(0, fy, ystep)):
                bx, by = slice(lo, lo + xstep), slice(ylo, ylo + ystep)
                cx, cy = len(xat[bx]), len(yat[by])
                if value is None:
                    (xv, ox), (yv, oy) = xsorted[a], ysorted[b]
                    xv, yv = xv[bx], yv[by]
                else:
                    xv, yv = P.values[xkids[bx]], Q.values[ykids[by]]
                cost = np.abs(xv[:, None, :, None] - yv[None, :, None, :]) ** p
                if value is not None:
                    cost += value[xbelow[bx][:, None, :, None], ybelow[by][None, :, None, :]]
                cost = cost.reshape(cx * cy, m, n)
                check_cost(cost)
                if value is None:
                    plan = _monotone_plans(shared, ("plans", t, a, b), xw[bx], ox[bx], yw[by],
                                           oy[by])
                else:
                    xo, yo = (np.argsort(v, axis=1, kind="stable") for v in (xv, yv))
                    ox, oy = np.repeat(xo, cy, axis=0), np.tile(yo, (cx, 1))
                    mu, nu = _sorted_marginals(xw[bx], xo, yw[by], yo, paired=False)
                    if m == n:  # a pair with equal marginals keeps the identity start
                        same = np.logical_and.reduce(
                            [xw[bx, None, k] == yw[None, by, k] for k in range(m)]).reshape(-1)
                        ox[same] = oy[same] = np.arange(m)
                        mu[same] = nu[same] = np.repeat(xw[bx], cy, axis=0)[same]
                    cut = _tree_cells(ox, oy)
                    plan = np.empty_like(cost)
                    plan.reshape(-1)[cut] = solve_batch(mu, nu, cost.reshape(-1)[cut])
                level[xat[bx, None], yat[by]] = _objectives(plan, cost).reshape(cx, cy)
                del cost  # before the kept plans are allocated
                if kept is not None:
                    if lo == ylo == 0:  # after the first solve, so its temporaries are gone
                        kept[a, b] = whole = np.empty((len(xat), fy, m, n))
                    whole[bx, by] = plan.reshape(cx, cy, m, n)
    return level


def _sorted_reps(tree: ScenarioTree, t: int, keep: tuple):
    """``tree._sorted_families(t)`` at the rows ``keep`` of each size
    class (all rows when ``keep`` is empty)."""
    families = tree._sorted_families(t)
    return tuple((v[k], o[k]) for (v, o), k in zip(families, keep)) if keep else families


def _sorted_marginals(xw, ox, yw, oy, paired: bool):
    """Both marginals, with the children sorted by ``ox`` and ``oy``, of
    row k of ``xw`` and row k of ``yw``, or, not ``paired``, of each pair
    of a row of ``xw`` and a row of ``yw``, x-major; the second is rescaled
    to the first's total as :func:`solve_exact` rescales it."""
    xw, yw = np.take_along_axis(xw, ox, axis=1), np.take_along_axis(yw, oy, axis=1)
    xs, ys = xw.sum(axis=1), yw.sum(axis=1)
    if not paired:
        F, G = len(xw), len(yw)
        xw, xs = np.repeat(xw, G, axis=0), np.repeat(xs, G)
        yw, ys = np.tile(yw, (F, 1)), np.tile(ys, F)
    return xw, yw * (xs / ys)[:, None]


def _tree_cells(ox, oy):
    """Per cell of the (F, m, n) plans of children sorted by ``ox`` (F, m)
    and ``oy`` (F, n), the flat index of that cell in tree order."""
    (F, m), n = ox.shape, oy.shape[1]
    rows = np.repeat((ox + m * np.arange(F)[:, None]) * n, n, axis=1)
    return (rows + np.tile(oy, (1, m))).reshape(F, m, n)


def _monotone_plans(shared: dict | None, key, xw, ox, yw, oy, paired: bool = False) -> np.ndarray:
    """The last stage's plans of the pairs of :func:`_sorted_marginals`
    (x-major unless ``paired``), with the children sorted by ``ox`` and
    ``oy``: the north-west plans of the sorted weights.  With ``shared``
    given, the plans kept there under ``key`` for the same orders, or new
    plans kept in their place."""
    if shared is not None:
        hit = shared.get(key)
        if hit and hit[0].tobytes() == ox.tobytes() and hit[1].tobytes() == oy.tobytes():
            return hit[2]
    plan = _frozen(_northwest_batch(*_sorted_marginals(xw, ox, yw, oy, paired))[0])
    if shared is not None:
        shared[key] = (_frozen(ox), _frozen(oy), plan)
    return plan


def _last_plans(P: ScenarioTree, Q: ScenarioTree, a: int, b: int, i, j, shared: dict | None):
    """The last-stage pairs of row ``i[k]`` of class ``a`` of P's families
    and row ``j[k]`` of class ``b`` of Q's, in chunks of at most
    ``_BATCH_CELLS`` plan cells (or of one pair): per chunk, its slice of
    the pairs, both families' values and orders as the trees'
    :meth:`~awsens.process_tree.ScenarioTree._sorted_families` sort them,
    and the plans of :func:`_monotone_plans` on them, paired, kept in
    ``shared`` when the pairs fit one chunk."""
    t = P.horizon - 1
    (xv, ox), (yv, oy) = P._sorted_families(t)[a], Q._sorted_families(t)[b]
    xw, yw = _size_classes(P, t)[2][a][3], _size_classes(Q, t)[2][b][3]
    step = max(1, _BATCH_CELLS // (xw.shape[1] * yw.shape[1]))
    shared = shared if len(i) <= step else None
    for lo in range(0, len(i), step):
        k = slice(lo, lo + step)
        ci, cj = i[k], j[k]
        yield k, xv[ci], yv[cj], ox[ci], oy[cj], _monotone_plans(
            shared, ("siblings", a, b), xw[ci], ox[ci], yw[cj], oy[cj], paired=True)


def _recursion(P: ScenarioTree, Q: ScenarioTree, p: float, plans: dict | None) -> float:
    """p-th power of the adapted distance by backward recursion.

    ``value`` holds one level's pair values as a matrix indexed by the two
    nodes' subtree classes; :func:`_stage` computes each level from the
    one below.  With ``plans`` given, ``plans[t]`` keeps the optimal plans
    of the representative time-t node pairs above the last stage as
    :func:`_stage` keeps them.
    """
    if P.horizon != Q.horizon:
        raise HorizonMismatch(f"horizons differ: {P.horizon} vs {Q.horizon}")
    value = None
    for t in range(P.horizon - 1, -1, -1):
        value = _stage(P, Q, t, p, value,
                       None if plans is None or value is None else plans.setdefault(t, {}))
    return float(value[0, 0])


def _identity_certified(cost: np.ndarray) -> np.ndarray:
    """Per problem of the (F, m, m) ``cost``: whether the identity plan,
    which sends each row k to column k, is certified optimal.

    Moving mass around the cycle k1 -> k2 -> ... -> k1 (row k_i to column
    k_{i+1} instead of k_i) changes the cost by the sum of ``d_kl = c_kl -
    c_kk`` along it, so the identity is optimal exactly when no cycle of
    ``d`` weighs less than 0 (Ahuja, Magnanti & Orlin, *Network Flows*,
    1993, ch. 9).  The lightest cycle through each k is the diagonal of the
    min-plus closure of ``d`` with +inf on its diagonal, m vectorised
    Floyd-Warshall steps.  Each ``d`` entry is off by at most eps/2 * max
    c, and each of a cycle's at most m - 1 additions by eps/2 * m * max c,
    so a computed weight is within m^2 eps/2 * max c of the exact weight
    of the float costs.  A problem is certified when every lightest cycle
    computes above ``_CERTIFY_MARGIN * m^2 * eps * (1 + max c)``: then every
    cycle exactly weighs more than 7.5 m^2 eps * (1 + max c), a tie or near
    tie is refused, and :func:`_certified_pth_power` has the headroom its
    argument needs.  A family of one child has no cycle and is certified.
    """
    F, m, _ = cost.shape
    eye = np.arange(m)
    d = cost - cost[:, eye, eye][:, :, None]
    d[:, eye, eye] = np.inf
    for j in range(m):
        np.minimum(d, d[:, :, j, None] + d[:, None, j, :], out=d)
    margin = _CERTIFY_MARGIN * m * m * _EPS * (1.0 + cost.reshape(F, -1).max(axis=1))
    return (d[:, eye, eye] > margin[:, None]).all(axis=1)


def _sibling_pairs(tree: ScenarioTree):
    """The last-stage node pairs that the diagonal pairs of the
    next-to-last level read: the pairs of children of one time-(T-2) node;
    cached per structure.

    Returns ``(groups, pairs)``.  The ``pairs`` pairs are numbered as the
    (F, m, m) cost blocks of :func:`_size_classes` at T - 2 list them:
    class after class, family after family, the pair of children ``i`` and
    ``j`` at ``i * m + j``.  ``groups`` holds one ``(a, b, at, xrow, yrow)``
    per pair of last-stage classes: the numbers of its pairs and the rows
    of their two families in classes ``a`` and ``b`` of
    ``_size_classes(tree, T - 1)``.
    """
    def build():
        cls, row, fam = _size_classes(tree, tree.horizon - 1)
        # per family of the level above, its children's level positions as (m, m) pairs
        blocks = [np.broadcast_arrays(below[:, :, None], below[:, None, :])
                  for *_, below, _ in _size_classes(tree, tree.horizon - 2)[2]]
        kx, ky = (np.concatenate([k.reshape(-1) for k in ks]) for ks in zip(*blocks))
        group = cls[kx] * len(fam) + cls[ky]
        groups = []
        for g in np.flatnonzero(np.bincount(group)).tolist():
            at = np.flatnonzero(group == g)
            groups.append((*divmod(g, len(fam)), _frozen(at), _frozen(row[kx[at]]),
                           _frozen(row[ky[at]])))
        return tuple(groups), len(kx)
    return _memo(tree._shared, "sibling pairs", build)


def _certified_pth_power(P: ScenarioTree, Q: ScenarioTree, p: float) -> float | None:
    """The recursion's p-th power for two trees of one structure, solving
    only the sibling pairs of the last stage and the diagonal node pairs
    above it; None when some family's identity plan is not certified, and
    :func:`_recursion` must decide.

    Both trees have the same families with the same weights, so node i of
    P and node i of Q have equal marginals.  Each level above the last
    solves only its diagonal pairs, one (F, m, m) cost block per size
    class: |x - y|^p plus the level below's values.  A diagonal pair (u, u)
    couples the children of u with each other, so the next-to-last level
    reads the last stage's values only at the pairs of siblings, children
    of one time-(T-2) node (:func:`_sibling_pairs`), F_{T-2} m^2 pairs of
    the F_{T-1}^2 the recursion solves.  Those are solved as :func:`_stage`
    solves the last stage: the same sorted costs, the north-west plans of
    :func:`_monotone_plans` on the same weights and ratio
    (:func:`_last_plans`), kept in the structure cache under their own key
    per pair of classes that fits ``_BATCH_CELLS`` cells, and the same
    :func:`_objectives`, each pair alone, so each value has the
    recursion's bits.  Further up only the
    diagonal values are known, so the other cells take 0 in their place, a
    lower bound of their cost, since values are nonnegative and fl(a + b)
    >= a for b >= 0.  The recursion's costs equal the block on the
    diagonal and are at least as large off it, so if
    :func:`_identity_certified` accepts every block, the identity is
    optimal for the recursion's costs too, and the pair's value is the
    identity plan's, summed by the same :func:`_objectives`.  The blocks
    and values of every level are computed first, and the blocks of one
    family size are certified together, one :func:`_identity_certified`
    call per size, which decides each block alone.  This is the
    recursion's value bit for bit:

    - With equal marginals :func:`_stage` keeps the children in tree
      order, the rescale ratio is exactly 1, and the north-west start is
      the identity plan with the families' exact masses, plus zero-mass
      cells next to the diagonal.  A start sorted by value would put the
      two sides in different orders wherever the candidate reorders a
      family's children, and the argument would not hold there.
    - Only a cycle whose losing cells all hold mass, all diagonal, can move
      mass (θ > 0), and its reduced cost is that cycle's weight, computed
      from potentials along a basis path of under 2m cells.  Their rounding
      stays within about 4 m^2 eps * max c of the exact weight, which the
      certificate puts above 7.5 m^2 eps * (1 + max c), so the reduced cost
      is positive and that cell never enters, in either simplex kernel.
    - Degenerate pivots move no mass, so the optimal plan is the identity
      plan; the clip turns its zeros into +0.0, and a +0.0 cell adds +0.0
      to the objective whatever finite cost it holds.

    By induction over the levels each diagonal value, and with it each
    diagonal cost, equals the recursion's.

    Every cost of the full recursion, and every value it sums, stays within
    rounding of T * (2 r)^p, r the largest |value| in either tree; the path
    refuses trees whose bound reaches ``_COST_CEILING``, so no pair it skips
    could have had an infinite cost, and the costs it computes are finite.
    Refused pairs go to :func:`_recursion`, which raises the same errors as
    ever.
    """
    T = P.horizon
    reach = 2.0 * max(float(np.abs(P.values).max()), float(np.abs(Q.values).max()))
    if not reach < (_COST_CEILING / T) ** (1.0 / p):
        return None
    if T == 1:
        return float(_stage(P, Q, 0, p, None, None)[0, 0])
    groups, pairs = _sibling_pairs(P)
    sibling = np.empty(pairs)
    for a, b, at, xrow, yrow in groups:
        for k, xv, yv, *_, plan in _last_plans(P, Q, a, b, xrow, yrow, P._shared):
            sibling[at[k]] = _objectives(plan, np.abs(xv[:, :, None] - yv[:, None, :]) ** p)
    diag, done, blocks = None, 0, {}
    for t in range(T - 2, -1, -1):
        level = np.empty(len(P.levels[t]))
        for at, kids, below, w in _size_classes(P, t)[2]:
            F, m = w.shape
            cost = np.abs(P.values[kids][:, :, None] - Q.values[kids][:, None, :]) ** p
            if diag is None:  # the level below is the last stage: its sibling pairs
                cost += sibling[done:done + F * m * m].reshape(F, m, m)
                done += F * m * m
            else:
                cost.reshape(F, m * m)[:, ::m + 1] += diag[below]
            blocks.setdefault(m, []).append(cost)
            level[at] = _objectives(w[:, :, None] * np.eye(m), cost)  # +0.0 off the diagonal
        diag = level
    if all(_identity_certified(np.concatenate(c)).all() for c in blocks.values()):
        return float(diag[0])
    return None


def aw_pth_power(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> float:
    """p-th power of the adapted distance, without coupling or stage costs.

    Returns ``aw_distance(P, Q, params).pth_power`` bit for bit; the
    distance is ``aw_pth_power(P, Q, params) ** (1.0 / params.p)``.  Two
    trees of one structure, such as a base tree and its ``with_values``
    candidates, take :func:`_certified_pth_power`, which solves the
    diagonal node pairs above the last stage and the sibling pairs at it
    only.  Its certificate, no cycle of ``c_kl - c_kk`` at or below a
    margin of a few eps * (1 + max c) in any family's cost block, shows
    that the simplex would end at the identity plan there, so the value
    has the recursion's bits (the argument is in its docstring); when the
    certificate refuses, the pair falls back to the recursion.
    Other pairs run the recursion of :func:`aw_distance` and keep no plans.
    """
    if P._shared is Q._shared:
        pth_power = _certified_pth_power(P, Q, params.p)
        if pth_power is not None:
            return pth_power
    return _recursion(P, Q, params.p, None)


def aw_distance(P: ScenarioTree, Q: ScenarioTree, params: AWParams) -> AWResult:
    """Exact adapted distance by dynamic programming over node pairs.

    The last stage has no value-function addend, so all its family pairs
    are solved at once by the monotone 1-d kernel, grouped by family size;
    interior stages solve the full transport problem by the simplex, in
    lockstep batches or per node pair, each from the north-west plan of
    its children sorted by value (see :func:`_stage`).  Every sum runs in
    the order of the per-pair solvers (``np.vdot`` over the row-major
    plan), so the distance, plans and coupling do not depend on the
    batching.  The plan cells above 1e-15 of the pairs reached from the
    root then become the coupling's pair arrays, level by level, each
    pair reading the plan of its two subtree classes' representatives,
    which has its own plan's bits (see :func:`_subtree_classes`).  The
    recursion keeps only the interior plans: of the last stage's pairs of
    classes the coupling reaches a few per node, and :func:`_last_plans`
    rebuilds just those, once per pair of classes, with the arithmetic of
    :func:`_monotone_plans` and so the same bits, in chunks of at most
    ``_BATCH_CELLS`` plan cells.
    """
    p = params.p
    plans: dict = {}
    pth_power = _recursion(P, Q, p, plans)

    def kernels(t, a, b, xp, yp):
        (_, xrow, xfam, xkeep), (_, yrow, yfam, ykeep) = (_subtree_classes(P)[t],
                                                          _subtree_classes(Q)[t])
        i, j = xrow[xp], yrow[yp]
        if t in plans:
            return plans[t][a, b][i, j]
        fy, n = yfam[b][3].shape
        pair = i * fy + j
        reached = np.sort(pair)
        reached = reached[np.concatenate(([True], reached[1:] != reached[:-1]))]
        i, j = np.divmod(reached, fy)
        plan = np.empty((len(reached), xfam[a][3].shape[1], n))
        for k, *_, ox, oy, part in _last_plans(P, Q, a, b, xkeep[a][i] if xkeep else i,
                                               ykeep[b][j] if ykeep else j, None):
            plan[k].reshape(-1)[_tree_cells(ox, oy)] = part
        return plan[np.searchsorted(reached, pair)]

    arrays = _assemble(P, Q, kernels, 1e-15)
    plans.clear()
    coupling = CouplingTree(P, Q, *arrays)
    return AWResult(pth_power ** (1.0 / p), pth_power, coupling.stage_costs(p), coupling)


# -- bicausalization (discrete second-marginal perturbation) -------------------


def bicausalize(coupling: CouplingTree, delta: float) -> tuple[CouplingTree, ScenarioTree]:
    """Perturb the second marginal by at most ``delta`` so the coupling
    becomes bicausal.

    Each coupled y value is snapped to the grid ``delta * floor(y / delta)``
    and then shifted by a sub-delta offset that injectively encodes the
    paired x value, so the x coordinate becomes readable from the perturbed y
    coordinate.  The input must already be causal in the x-to-y direction.
    """
    if not 0.0 < delta < math.inf:  # NaN fails too
        raise InvalidParams(f"delta must be positive and finite, got {delta}")
    if not check_causal(coupling, "x_to_y"):
        raise NotCausal("bicausalize requires a coupling causal from x to y")
    return _bicausalize_pairs(coupling.first, coupling.parent, coupling.time, coupling.x_node,
                              coupling.second.values[coupling.y_node],  # the root's is never read
                              coupling.prob, delta)


def _bicausalize_pairs(P: ScenarioTree, parent, time, x_node, y_value, prob,
                       delta: float) -> tuple[CouplingTree, ScenarioTree]:
    """Shared quotient construction behind :func:`bicausalize`.

    The pair tree is given as arrays by pair id (parents, -1 at the root,
    times, x nodes, raw y values, joint node probabilities); the output
    merges pair nodes with equal perturbed y histories into canonical
    nodes of the new second-marginal tree.
    """
    children = _child_lists(parent)
    time, x_node, y_value, prob = (np.asarray(a).tolist() for a in (time, x_node, y_value, prob))
    T = P.horizon
    pv = P.values.tolist()
    offsets = []
    for t in range(T + 1):
        vals = sorted(set(P.values[P.levels[t]].tolist()))
        offsets.append({v: (k + 1) * delta / (2.0 * (len(vals) + 1)) for k, v in enumerate(vals)})
    # the root, the only pair at time 0, keeps no cell
    cell = [math.floor(y / delta) if t else 0 for y, t in zip(y_value, time)]
    ynew = [c * delta + offsets[t][pv[x]] for c, t, x in zip(cell, time, x_node)]

    # row k: node k of the new tree (parent, time, value, cond_prob) and the
    # node of P that pair k couples with it
    rows = [(-1, 0, 0.0, 1.0, P.root)]
    # classes: members share one x node and one perturbed-y history
    stack = [(0, [time.index(0)], 1.0)]
    while stack:
        new_pid, members, mass = stack.pop()
        groups = {}
        for c in sorted((c for pid in members for c in children[pid]),
                        key=lambda c: (ynew[c], x_node[c])):
            groups.setdefault(ynew[c], []).append(c)
        for yv, grp in groups.items():
            if len({(cell[c], pv[x_node[c]]) for c in grp}) > 1:
                raise DeltaTooSmall(
                    f"encoded values collide at {yv!r}; decrease the atom count or increase delta"
                )
            gmass = sum(prob[c] for c in grp)
            rows.append((new_pid, time[grp[0]], yv, gmass / mass, x_node[grp[0]]))
            stack.append((len(rows) - 1, grp, gmass))
    *fields, x_new = zip(*rows)
    q = ScenarioTree._from_arrays(T, *fields)
    return CouplingTree(P, q, q.parent, q.time, x_new, np.arange(len(x_new)), q.cond_prob), q
