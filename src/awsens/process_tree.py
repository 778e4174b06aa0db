"""Finitely supported adapted processes encoded as rooted scenario trees.

A scenario tree holds the law of a real-valued discrete-time process together
with its natural filtration: nodes at depth t are the atoms of the time-t
filtration, the root (time 0) carries no value, and every root-to-leaf path is
one support point of the law.  Sibling values must be pairwise distinct so
that the tree filtration coincides with the filtration generated by the
process itself.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidParams, InvalidTree, is_number

PROB_TOL = 1e-12
GEN_MAX_NODES = 1 << 20  # most nodes a generator builds


@dataclass(frozen=True)
class Node:
    """One atom of the filtration.

    ``value`` is the coordinate of the process on this atom and is ``None``
    exactly at the root.  ``cond_prob`` is the transition probability given
    the parent (stored as 1.0 at the root).
    """

    id: int
    time: int
    value: float | None
    cond_prob: float
    parent: int | None


@dataclass(frozen=True)
class PathTable:
    """All root-to-leaf paths: leaf ids, value vectors and path probabilities."""

    leaf_ids: tuple[int, ...]
    values: np.ndarray  # shape (n_paths, T)
    probs: np.ndarray  # shape (n_paths,)

    def __len__(self) -> int:
        return len(self.leaf_ids)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, float]]:
        for k, leaf in enumerate(self.leaf_ids):
            yield leaf, self.values[k], float(self.probs[k])


def _int_field(error: type, what: str, values) -> np.ndarray:
    """``values`` as an intp array; ``error`` saying that ``what`` must
    hold integers unless numpy reads them all as integers: floats,
    strings, None, booleans alone and integers beyond 64 bits are
    refused."""
    a = np.array(values)
    if a.size and a.dtype.kind not in "iu":
        raise error(f"{what} must hold integers")
    return a.astype(np.intp)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _memo(cache: dict | None, key, build):
    """``cache[key]``, computed by ``build()`` on first use; ``build()``
    itself when there is no cache."""
    if cache is None:
        return build()
    if key not in cache:
        cache[key] = build()
    return cache[key]


class ScenarioTree:
    """Immutable rooted tree with one value per non-root node.

    Node ids are their indices in ``nodes``.  The tree holds its nodes as
    read-only arrays by id: ``parent`` (-1 at the root), ``time``,
    ``cond_prob`` and ``values`` (0.0 at the root).  Its level layout lists
    the nodes breadth first: ``level_order`` holds the ids level by level,
    level t at ``level_order[level_start[t]:level_start[t + 1]]``, and
    ``level_pos`` gives each node's position in its level; the children of
    one parent are contiguous there, in ``children`` order.  The structure
    (these arrays but ``values``, children, levels, leaves, node
    probabilities, ancestor matrix, path probabilities) is computed once at
    construction and shared, with one structure cache, by every tree
    :meth:`with_values` derives from it.  What algorithms derive from a tree
    is cached on it on first use as read-only arrays, so instances are safe
    to share between workers: so are a level's families sorted by value,
    which the adapted distance reads at the last stage only, built on the
    first read of :meth:`_sorted_families`, and the subtree classes its
    recursion solves by, which depend on the values too.
    """

    _STRUCTURE = (
        "horizon", "root", "children", "levels", "leaves", "node_prob", "parent", "time",
        "cond_prob", "level_order", "level_pos", "level_start", "_ancestors", "_shared",
    )
    __slots__ = _STRUCTURE + ("values", "_paths", "_nodes", "_cache")

    def __init__(self, horizon: int, nodes: Sequence[Node]):
        nodes = list(nodes)
        n = len(nodes)
        _int_field(InvalidTree, "tree field 'horizon'", [horizon])
        if horizon < 1:
            raise InvalidTree(f"horizon must be >= 1, got {horizon}")
        ids = _int_field(InvalidTree, "node field 'id'", [nd.id for nd in nodes])
        bad = np.flatnonzero(ids != np.arange(n))
        if bad.size:
            raise InvalidTree(f"node ids must equal list positions; nodes[{bad[0]}] has id "
                              f"{ids[bad[0]]}")
        _int_field(InvalidTree, "node field 'time'", [nd.time for nd in nodes])
        _int_field(InvalidTree, "node field 'parent'",
                   [nd.parent for nd in nodes if nd.parent is not None])
        for name, vals in (("value", [nd.value for nd in nodes if nd.value is not None]),
                           ("cond_prob", [nd.cond_prob for nd in nodes])):
            # is_number reads the type alone, so one value of each type decides
            if not all(map(is_number, dict(zip(map(type, vals), vals)).values())):
                raise InvalidTree(f"node field {name!r} must hold numbers")

        roots = [nd.id for nd in nodes if nd.parent is None]
        if len(roots) != 1:
            raise InvalidTree(f"expected exactly one root, found {len(roots)}")
        root = roots[0]
        rn = nodes[root]
        if rn.time != 0 or rn.value is not None:
            raise InvalidTree("root must sit at time 0 and carry no value")

        children: list[list[int]] = [[] for _ in range(n)]
        for nd in nodes:
            if nd.parent is None:
                continue
            if not (0 <= nd.parent < n):
                raise InvalidTree(f"node {nd.id} references unknown parent {nd.parent}")
            par = nodes[nd.parent]
            if nd.time != par.time + 1:
                raise InvalidTree(f"node {nd.id} at time {nd.time} has parent at time {par.time}")
            if nd.time > horizon:
                raise InvalidTree(f"node {nd.id} lies beyond the horizon {horizon}")
            if nd.value is None or not abs(nd.value) <= sys.float_info.max:  # NaN fails too
                raise InvalidTree(f"node {nd.id} must carry a finite value")
            if not (0.0 < nd.cond_prob <= 1.0):
                raise InvalidTree(f"node {nd.id} has cond_prob {nd.cond_prob} outside (0, 1]")
            children[nd.parent].append(nd.id)

        for nd in nodes:
            kids = children[nd.id]
            if not kids:
                if nd.time != horizon:
                    raise InvalidTree(f"node {nd.id} is a leaf at time {nd.time} != horizon {horizon}")
                continue
            s = sum(nodes[c].cond_prob for c in kids)
            if abs(s - 1.0) > PROB_TOL:
                raise InvalidTree(f"children of node {nd.id} have probabilities summing to {s!r}")

        levels: list[list[int]] = [[] for _ in range(horizon + 1)]
        order: list[int] = [root]
        node_prob = [0.0] * n
        node_prob[root] = 1.0
        for nid in order:
            levels[nodes[nid].time].append(nid)
            for c in children[nid]:
                node_prob[c] = node_prob[nid] * nodes[c].cond_prob
                order.append(c)
        if len(order) != n:
            raise InvalidTree("tree contains nodes unreachable from the root")

        leaves = levels[horizon]
        total = sum(node_prob[leaf] for leaf in leaves)
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidTree(f"leaf path probabilities sum to {total!r}")

        self.horizon = horizon
        self.root = root
        self.children = tuple(tuple(c) for c in children)
        self.levels = tuple(tuple(lv) for lv in levels)
        self.leaves = tuple(leaves)
        self.node_prob = tuple(node_prob)
        self.parent = _frozen(np.array([-1 if nd.parent is None else nd.parent for nd in nodes],
                                       dtype=np.intp))
        # the root's cond_prob goes unchecked above and is stored as 1.0
        self.cond_prob = _frozen(np.array([1.0 if nd.parent is None else nd.cond_prob
                                           for nd in nodes], dtype=np.float64))
        sizes = [len(lv) for lv in levels]
        self.level_order = _frozen(np.fromiter(order, np.intp, n))
        self.level_start = _frozen(np.cumsum([0] + sizes))
        pos, time = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        pos[self.level_order] = np.arange(n) - np.repeat(self.level_start[:-1], sizes)
        time[self.level_order] = np.repeat(np.arange(horizon + 1), sizes)
        self.level_pos, self.time = _frozen(pos), _frozen(time)
        anc = np.empty((len(leaves), horizon + 1), dtype=np.int64)
        anc[:, horizon] = leaves
        for t in range(horizon, 0, -1):
            anc[:, t - 1] = self.parent[anc[:, t]]
        self._ancestors = _frozen(anc)
        self._shared: dict = {}
        self._nodes = None
        probs = _frozen(np.array([node_prob[leaf] for leaf in leaves]))
        self._set_values(np.array([0.0 if nd.value is None else nd.value for nd in nodes]), probs)

    def _set_values(self, values: np.ndarray, probs: np.ndarray) -> None:
        """Check finiteness and sibling distinctness; gather the path values
        and start an empty per-tree cache.

        The check sorts each family size once over all levels; nothing of
        it is kept, since the adapted distance reads one level's sorts, and
        only for some trees (see :meth:`_sorted_families`).
        """
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InvalidTree(f"node {bad[0]} must carry a finite value")
        clash = self._collision(values)
        if clash is not None:
            raise InvalidTree(f"children of node {clash} carry duplicate values")
        self.values = _frozen(values)
        self._paths = PathTable(self.leaves, _frozen(values[self._ancestors[:, 1:]]), probs)
        self._cache: dict = {}

    def with_values(self, values: Sequence[float | None]) -> ScenarioTree:
        """This tree with ``values[k]`` at each non-root node ``k`` (the
        root's entry is ignored), sharing its structure and structure cache.
        Raises :class:`InvalidTree` exactly where the constructor would."""
        v = np.array(values, dtype=np.float64)
        if v.shape != (len(self.node_prob),):
            raise InvalidTree(f"expected {len(self.node_prob)} node values, got shape {v.shape}")
        v[self.root] = 0.0
        out = object.__new__(type(self))
        for name in self._STRUCTURE:
            setattr(out, name, getattr(self, name))
        out._nodes = None
        out._set_values(v, self._paths.probs)
        return out

    def _sorted_families(self, t: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per size class of :meth:`_sibling_groups` at level t < horizon:
        the families' ``values`` sorted along each row (stable, as the
        adapted-distance recursion sorts them) and the sorting permutation,
        both read-only; built on first read and kept in the per-tree cache
        as its ``("sorted", t)`` entry."""
        def build():
            level = []
            for _, kids in self._sibling_groups(t):
                s = self.values[kids]
                order = np.argsort(s, axis=1, kind="stable")
                level.append((_frozen(s[np.arange(len(s))[:, None], order]), _frozen(order)))
            return tuple(level)
        return _memo(self._cache, ("sorted", t), build)

    def _collision(self, values: np.ndarray) -> int | None:
        """Smallest id of a node whose children carry equal values, or None:
        one sort per family size of :meth:`_families`, over all levels."""
        clash = []
        for parents, kids in self._families():
            s = np.sort(values[kids], axis=1)
            hit = (s[:, 1:] == s[:, :-1]).any(axis=1)
            if hit.any():
                clash.append(int(parents[hit].min()))
        return min(clash, default=None)

    def _families(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Families of two or more children, grouped by size over all
        levels: ``(parents, kids)`` with one row of child ids per parent id,
        read-only; cached per structure."""
        def build():
            by_size: dict[int, list[int]] = {}
            for nid, kids in enumerate(self.children):
                if len(kids) > 1:
                    by_size.setdefault(len(kids), []).append(nid)
            return tuple((_frozen(np.array(ps)), _frozen(np.array([self.children[p] for p in ps])))
                         for ps in by_size.values())
        return _memo(self._shared, "families", build)

    def _sibling_groups(self, t: int) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """Families of the time-t nodes grouped by size, in level order:
        ``(parents, kids)`` with one row of child ids per parent; cached
        per structure."""
        def build():
            by_size: dict[int, list[int]] = {}
            for nid in self.levels[t]:
                by_size.setdefault(len(self.children[nid]), []).append(nid)
            return tuple((tuple(ps), _frozen(np.array([self.children[c] for c in ps])))
                         for ps in by_size.values())
        return _memo(self._shared, ("groups", t), build)

    def average_children(self, t: int, v: np.ndarray) -> np.ndarray:
        """Conditional expectation one level up: ``v`` holds one value or
        one row per time-(t+1) node, in level order, and the result one per
        time-t node.

        Each is ``sum(cond_prob[c] * v[c] for c in children)``, added in
        children order from 0.0: one ``np.bincount`` over the children's
        parent positions, which adds in index order, since each family is
        contiguous in its level.
        """
        def build():
            kids = self.level_order[self.level_start[t + 1]:self.level_start[t + 2]]
            size = int(self.level_start[t + 1] - self.level_start[t])
            return _frozen(self.level_pos[self.parent[kids]]), _frozen(self.cond_prob[kids]), size
        at, w, size = _memo(self._shared, ("up", t), build)
        if v.ndim == 1:
            return np.bincount(at, weights=w * v, minlength=size)
        k = v.shape[1]
        cells = (at[:, None] * k + np.arange(k)).ravel()
        out = np.bincount(cells, weights=(w[:, None] * v).ravel(), minlength=size * k)
        return out.reshape(size, k)

    # -- structural views ---------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The node records, built from the arrays on first access."""
        if self._nodes is None:
            self._nodes = _records(self.time, self.values, self.cond_prob, self.parent)
        return self._nodes

    @property
    def paths(self) -> PathTable:
        return self._paths

    def ancestor(self, leaf: int, t: int) -> int:
        """Node id of the time-t ancestor of ``leaf`` (t = horizon gives the leaf)."""
        _check_time(t, self.horizon)
        try:
            k = self.leaves.index(leaf)
        except ValueError:
            raise InvalidParams(f"node {leaf!r} is not a leaf") from None
        return int(self._ancestors[k, t])

    @property
    def ancestor_matrix(self) -> np.ndarray:
        """(n_paths, horizon + 1) matrix: column t holds the time-t node of each path."""
        return self._ancestors


def _records(time, values, cond_prob, parent) -> tuple[Node, ...]:
    """Node records of per-node arrays, with ids by position."""
    cols = zip(time.tolist(), values.tolist(), cond_prob.tolist(), parent.tolist())
    return tuple(Node(k, t, None if par < 0 else v, c, None if par < 0 else par)
                 for k, (t, v, c, par) in enumerate(cols))


def backward_sweep(tree: ScenarioTree, leaf_values: np.ndarray) -> list[np.ndarray]:
    """E[V | F_t] for t = 0..T of leaf values V, one row per leaf in leaf
    order (any trailing shape): entry t holds one row per time-t node, in
    level order, averaged level by level by
    :meth:`ScenarioTree.average_children`."""
    out = [np.asarray(leaf_values, dtype=np.float64)]
    for t in range(tree.horizon - 1, -1, -1):
        out.append(tree.average_children(t, out[-1]))
    return out[::-1]


def _check_time(t, horizon: int) -> None:
    """``InvalidParams`` unless ``t`` is an integer in 0..``horizon``."""
    if isinstance(t, bool) or not isinstance(t, numbers.Integral):
        raise InvalidParams(f"time must be an integer, got {t!r}")
    if not (0 <= t <= horizon):
        raise InvalidParams(f"time {t} outside 0..{horizon}")


def conditional_expectation(
    tree: ScenarioTree, leaf_values: Mapping[int, float], t: int
) -> dict[int, float]:
    """Conditional expectation of a leaf function given the time-t filtration.

    Computed by one backward averaging sweep (:func:`backward_sweep`), so
    applying it at time t and then coarsening to s <= t runs through the
    same arithmetic as conditioning at s directly.
    """
    _check_time(t, tree.horizon)
    try:
        vals = [float(leaf_values[leaf]) for leaf in tree.leaves]
    except KeyError as e:
        raise InvalidParams(f"leaf_values is missing leaf {e.args[0]}") from None
    return dict(zip(tree.levels[t], backward_sweep(tree, vals)[t].tolist()))


# -- generators --------------------------------------------------------------


class _Builder:
    """Accumulates nodes in BFS order."""

    def __init__(self) -> None:
        self.records: list[Node] = [Node(0, 0, None, 1.0, None)]

    def add(self, parent: int, time: int, value: float, cond_prob: float) -> int:
        nid = len(self.records)
        self.records.append(Node(nid, time, float(value), float(cond_prob), parent))
        return nid

    def build(self, horizon: int) -> ScenarioTree:
        return ScenarioTree(horizon, self.records)


def tree_from_nested(horizon: int, spec: Sequence) -> ScenarioTree:
    """Build a tree from nested ``(value, cond_prob, children)`` triples.

    ``spec`` lists the children of the root; each entry is
    ``(value, prob, [children...])`` with the child list omitted or empty at
    the leaves.
    """
    b = _Builder()

    def rec(parent: int, time: int, entries: Sequence) -> None:
        for entry in entries:
            value, prob = entry[0], entry[1]
            kids = entry[2] if len(entry) > 2 else ()
            nid = b.add(parent, time, value, prob)
            if kids:
                rec(nid, time + 1, kids)

    rec(0, 1, spec)
    return b.build(horizon)


def _check_node_budget(T: int, branching: int) -> None:
    """``InvalidParams`` when the full tree of horizon ``T`` and ``branching``
    has over ``GEN_MAX_NODES`` nodes, counted only that far."""
    nodes = width = 1
    for _ in range(T):
        width *= branching
        nodes += width
        if nodes > GEN_MAX_NODES:
            raise InvalidParams(f"a tree of horizon {T} with {branching} children per node has "
                                f"over {GEN_MAX_NODES} nodes")


def gen_binomial(
    T: int, start: float, up: float, down: float, p_up: float, drift: float = 0.0
) -> ScenarioTree:
    """Binomial tree: X_t = X_{t-1} + drift + {up, down}, X_0 = start.

    Recombination is never merged; the result has 2^T leaves.
    """
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    if not (0.0 < p_up < 1.0):
        raise InvalidParams(f"p_up must lie in (0, 1), got {p_up}")
    if up == down:
        raise InvalidParams("up and down steps must differ")
    return gen_lattice(T, start, (up, down), (p_up, 1.0 - p_up), drift)


def gen_lattice(
    T: int,
    start: float,
    steps: Sequence[float],
    probs: Sequence[float],
    drift: float = 0.0,
) -> ScenarioTree:
    """Random walk with an arbitrary finite step distribution, emitted as a full tree."""
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    try:
        steps = [float(s) for s in steps]
        probs = [float(w) for w in probs]
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidParams(f"steps and probs must be sequences of numbers: {e}") from None
    if len(steps) < 2 or len(steps) != len(probs):
        raise InvalidParams("steps and probs must have equal length >= 2")
    if len(set(steps)) != len(steps):
        raise InvalidParams("steps must be pairwise distinct")
    if any(w <= 0.0 for w in probs):
        raise InvalidParams("step probabilities must be strictly positive")
    if abs(sum(probs) - 1.0) > PROB_TOL:
        raise InvalidParams(f"step probabilities sum to {sum(probs)!r}")
    _check_node_budget(T, len(steps))
    b = _Builder()
    frontier = [(0, float(start))]
    for t in range(1, T + 1):
        nxt = []
        for parent, x in frontier:
            for step, prob in zip(steps, probs):
                v = x + drift + step
                nid = b.add(parent, t, v, prob)
                nxt.append((nid, v))
        frontier = nxt
    return b.build(T)


def gen_random(T: int, branching: int, seed: int) -> ScenarioTree:
    """Deterministic random tree with dyadic transition probabilities.

    Probabilities are multiples of 2^-10, at least one each, and values are
    multiples of 2^-20, so families sum to exactly 1.0 in binary64 and
    repeated calls with one seed reproduce the tree bit for bit.
    """
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    if not 2 <= branching <= 1024:
        raise InvalidParams(f"branching must lie in 2..1024, got {branching}")
    if seed < 0:
        raise InvalidParams(f"seed must be nonnegative, got {seed}")
    _check_node_budget(T, branching)
    rng = np.random.default_rng(seed)
    b = _Builder()
    frontier = [(0, 0.0)]
    for t in range(1, T + 1):
        nxt = []
        for parent, x in frontier:
            counts = rng.multinomial(1024 - branching, [1.0 / branching] * branching) + 1
            incs = rng.choice(2**21, size=branching, replace=False)
            for k in range(branching):
                prob = counts[k] / 1024.0
                v = x + (int(incs[k]) - 2**20) / 2.0**20
                nid = b.add(parent, t, v, prob)
                nxt.append((nid, v))
        frontier = nxt
    return b.build(T)


# -- structural utilities ----------------------------------------------------


def is_isomorphic(a: ScenarioTree, b: ScenarioTree) -> bool:
    """Labeled-tree isomorphism: same branching values and probabilities.

    Sibling-distinct values make this equivalent to equality of the adapted
    laws, hence to a vanishing adapted distance.
    """
    if a.horizon != b.horizon:
        return False
    av, bv = a.values.tolist(), b.values.tolist()
    ac, bc = a.cond_prob.tolist(), b.cond_prob.tolist()

    def rec(na: int, nb: int) -> bool:
        ka, kb = a.children[na], b.children[nb]
        if len(ka) != len(kb):
            return False
        sa = sorted(ka, key=av.__getitem__)
        sb = sorted(kb, key=bv.__getitem__)
        for ca, cb in zip(sa, sb):
            if av[ca] != bv[cb]:
                return False
            if ac[ca] != bc[cb]:
                return False
            if not rec(ca, cb):
                return False
        return True

    return rec(a.root, b.root)
