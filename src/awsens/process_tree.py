"""Finitely supported adapted processes encoded as rooted scenario trees.

A scenario tree holds the law of a real-valued discrete-time process together
with its natural filtration: nodes at depth t are the atoms of the time-t
filtration, the root (time 0) carries no value, and every root-to-leaf path is
one support point of the law.  Sibling values must be pairwise distinct so
that the tree filtration coincides with the filtration generated by the
process itself.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidParams, InvalidTree, finite_count, finite_number, is_number

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

    leaf_ids: np.ndarray  # the tree's leaves
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


def _child_lists(parent: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Child ids per id, in id order, of a parent array with -1 at roots."""
    kids = np.flatnonzero(parent >= 0)
    order = kids[np.argsort(parent[kids], kind="stable")].tolist()
    ends = np.cumsum(np.bincount(parent[kids], minlength=len(parent))).tolist()
    return tuple(tuple(order[a:b]) for a, b in zip([0] + ends, ends))


def _check_horizon(horizon) -> None:
    _int_field(InvalidTree, "tree field 'horizon'", [horizon])
    if horizon < 1:
        raise InvalidTree(f"horizon must be >= 1, got {horizon}")


class ScenarioTree:
    """Immutable rooted tree with one value per non-root node.

    A tree is its read-only arrays by node id: ``parent`` (-1 at the
    root), ``time``, ``cond_prob`` (1.0 at the root) and ``values`` (0.0
    there).  One array validator, :meth:`_from_arrays`, checks and lays
    out every tree; ``ScenarioTree(horizon, nodes)`` reads :class:`Node`
    records into it, and :attr:`nodes` views a tree as records again.
    The layout lists the nodes breadth first: ``levels[t]`` is the time-t
    slice of ``level_order``, from ``level_start[t]``, ``leaves`` is
    ``levels[horizon]`` and ``level_pos`` a node's position in its level,
    where each family is contiguous, in id order.  ``node_prob`` holds
    the node probabilities, and ``children``, built on first read, the
    child ids per node as tuples.  The structure (all but ``values`` and
    what depends on them) is shared, with one structure cache, by every
    tree :meth:`with_values` derives from it.  What algorithms derive
    from a tree is cached on it on first use as read-only arrays, so
    instances are safe to share between workers: so are a level's
    families sorted by value (:meth:`_sorted_families`) and the subtree
    classes of the adapted distance, which depend on the values too.
    """

    _STRUCTURE = (
        "horizon", "root", "levels", "leaves", "node_prob", "parent", "time", "cond_prob",
        "level_order", "level_pos", "level_start", "_ancestors", "_shared",
    )
    _PER_TREE = ("values", "_paths", "_nodes", "_cache")
    __slots__ = _STRUCTURE + _PER_TREE

    def __init__(self, horizon: int, nodes: Sequence[Node]):
        nodes = list(nodes)
        _check_horizon(horizon)
        ids = _int_field(InvalidTree, "node field 'id'", [nd.id for nd in nodes])
        bad = np.flatnonzero(ids != np.arange(len(nodes)))
        if bad.size:
            raise InvalidTree(f"node ids must equal list positions; nodes[{bad[0]}] has id "
                              f"{ids[bad[0]]}")
        tree = _read_records(horizon, [nd.time for nd in nodes], [nd.value for nd in nodes],
                             [nd.cond_prob for nd in nodes], [nd.parent for nd in nodes])
        for name in self._STRUCTURE + self._PER_TREE:
            setattr(self, name, getattr(tree, name))

    @classmethod
    def _from_arrays(cls, horizon: int, parent, time, values, cond_prob,
                     shown=None) -> ScenarioTree:
        """The tree of these per-node arrays (the root's value and
        ``cond_prob`` are ignored), or ``InvalidTree`` naming the first
        fault: one root at time 0; per node in id order, a known parent one
        level up, a time within the horizon, a finite value, a ``cond_prob``
        in (0, 1]; per node in id order, children below the horizon, their
        ``cond_prob`` summing to 1 (a left fold in id order, as the leaf sum
        is in level order); leaf path probabilities summing to 1; distinct
        sibling values.  Once the per-node checks pass, every parent chain
        steps down one level per edge and so ends at the root.  Messages
        show the parents and ``cond_prob`` of ``shown`` if given.
        """
        _check_horizon(horizon)
        tree = object.__new__(cls)
        parent = np.array(parent, dtype=np.intp)
        time = np.array(time, dtype=np.intp)
        values = np.array(values, dtype=np.float64)
        cond = np.array(cond_prob, dtype=np.float64)
        n = len(parent)
        roots = np.flatnonzero(parent == -1)
        if len(roots) != 1:
            raise InvalidTree(f"expected exactly one root, found {len(roots)}")
        root = int(roots[0])
        if time[root] != 0:
            raise InvalidTree("root must sit at time 0 and carry no value")
        values[root], cond[root] = 0.0, 1.0

        stray = (parent < -1) | (parent >= n)
        par = np.where(stray, root, parent)
        faults = (
            (stray, "references unknown parent {p}"),
            (time != time[par] + 1, "at time {t} has parent at time {pt}"),
            (time > horizon, "lies beyond the horizon {h}"),
            (~np.isfinite(values), "must carry a finite value"),
            (~((cond > 0.0) & (cond <= 1.0)), "has cond_prob {c} outside (0, 1]"),
        )
        bad = np.logical_or.reduce([f for f, _ in faults])
        bad[root] = False
        if bad.any():
            k = int(np.argmax(bad))
            msg = next(m for f, m in faults if f[k])
            p, c = shown or (parent, cond_prob)
            raise InvalidTree(f"node {k} " + msg.format(p=p[k], t=time[k], pt=time[par[k]],
                                                        h=horizon, c=c[k]))

        kids = np.flatnonzero(parent >= 0)
        nkids = np.bincount(parent[kids], minlength=n)
        ksum = np.bincount(parent[kids], weights=cond[kids], minlength=n)
        early = (nkids == 0) & (time != horizon)
        off = (nkids > 0) & (np.abs(ksum - 1.0) > PROB_TOL)
        if (early | off).any():
            k = int(np.argmax(early | off))
            raise InvalidTree(f"node {k} is a leaf at time {time[k]} != horizon {horizon}"
                              if early[k] else
                              f"children of node {k} have probabilities summing to "
                              f"{float(ksum[k])!r}")

        # breadth first, level by level: each level's ids in id order,
        # stably sorted by their parents' level positions
        start = np.concatenate(([0], np.cumsum(np.bincount(time, minlength=horizon + 1))))
        order = np.argsort(time, kind="stable")
        pos, prob = np.zeros(n, dtype=np.intp), np.ones(n)
        for t in range(1, horizon + 1):
            ids = order[start[t]:start[t + 1]]
            ids[:] = ids[np.argsort(pos[parent[ids]], kind="stable")]
            pos[ids] = np.arange(len(ids))
            prob[ids] = prob[parent[ids]] * cond[ids]
        leaves = order[start[horizon]:]
        total = float(np.bincount(np.zeros_like(leaves), weights=prob[leaves])[0])
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidTree(f"leaf path probabilities sum to {total!r}")

        tree.horizon, tree.root = horizon, root
        tree.parent, tree.time, tree.cond_prob = _frozen(parent), _frozen(time), _frozen(cond)
        tree.level_order, tree.level_start = _frozen(order), _frozen(start)
        tree.level_pos = _frozen(pos)
        tree.levels = tuple(order[a:b] for a, b in zip(start[:-1], start[1:]))
        tree.leaves, tree.node_prob = tree.levels[horizon], _frozen(prob)
        anc = np.empty((len(leaves), horizon + 1), dtype=np.int64)
        anc[:, horizon] = leaves
        for t in range(horizon, 0, -1):
            anc[:, t - 1] = parent[anc[:, t]]
        tree._ancestors = _frozen(anc)
        tree._shared, tree._nodes = {}, None
        tree._set_values(values, _frozen(prob[leaves]))
        return tree

    def _set_values(self, values: np.ndarray, probs: np.ndarray) -> None:
        """Check sibling distinctness of finite ``values`` (no sort is kept:
        see :meth:`_sorted_families`); gather the path values and start an
        empty per-tree cache."""
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
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise InvalidTree(f"node {bad[0]} must carry a finite value")
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
        one sort per family size over all levels, of the :meth:`_groups` of
        the families of two or more, cached per structure."""
        families = _memo(self._shared, "families",
                         lambda: self._groups(np.flatnonzero(self._child_index()[0] > 1)))
        clash = []
        for parents, kids in families:
            s = np.sort(values[kids], axis=1)
            hit = (s[:, 1:] == s[:, :-1]).any(axis=1)
            if hit.any():
                clash.append(int(parents[hit].min()))
        return min(clash, default=None)

    def _child_index(self):
        """``(size, start, flat, rank)``: per node its family size, the
        start of its children in ``flat`` (all children, grouped by parent
        id, in id order) and its own rank among its siblings; read-only,
        cached per structure."""
        def build():
            parent = self.parent
            size = np.bincount(parent[parent >= 0], minlength=len(parent))
            flat = np.argsort(parent, kind="stable")[1:]  # the root's -1 sorts first
            start = np.cumsum(size) - size
            rank = np.zeros(len(parent), dtype=np.intp)
            rank[flat] = np.arange(len(flat)) - start[parent[flat]]
            return tuple(_frozen(a) for a in (size, start, flat, rank))
        return _memo(self._shared, "child index", build)

    def _groups(self, parents: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``parents`` grouped by family size, sizes in order of first
        appearance: ``(parents, kids)`` with one row of child ids, in id
        order, per parent, read-only."""
        size, start, flat, _ = self._child_index()
        sizes, out = size[parents], []
        for s in dict.fromkeys(sizes.tolist()):
            ps = parents[sizes == s]
            out.append((_frozen(ps), _frozen(flat[start[ps][:, None] + np.arange(s)])))
        return tuple(out)

    def _sibling_groups(self, t: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """:meth:`_groups` of the time-t nodes, in level order; cached per
        structure."""
        return _memo(self._shared, ("groups", t), lambda: self._groups(self.levels[t]))

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
            kids = self.levels[t + 1]
            at = self.level_pos[self.parent[kids]]
            return _frozen(at), _frozen(self.cond_prob[kids]), len(self.levels[t])
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
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Child ids per node id, in id order; built on first read and
        cached per structure."""
        return _memo(self._shared, "children", lambda: _child_lists(self.parent))

    @property
    def paths(self) -> PathTable:
        return self._paths

    def ancestor(self, leaf: int, t: int) -> int:
        """Node id of the time-t ancestor of ``leaf`` (t = horizon gives the leaf)."""
        _check_time(t, self.horizon)
        _check_int(leaf, "node id")
        if not (0 <= leaf < len(self.time) and self.time[leaf] == self.horizon):
            raise InvalidParams(f"node {leaf!r} is not a leaf")
        return int(self._ancestors[self.level_pos[leaf], t])

    @property
    def ancestor_matrix(self) -> np.ndarray:
        """(n_paths, horizon + 1) matrix: column t holds the time-t node of each path."""
        return self._ancestors


def _records(time, values, cond_prob, parent) -> tuple[Node, ...]:
    """Node records of per-node arrays, with ids by position."""
    cols = zip(time.tolist(), values.tolist(), cond_prob.tolist(), parent.tolist())
    return tuple(Node(k, t, None if par < 0 else v, c, None if par < 0 else par)
                 for k, (t, v, c, par) in enumerate(cols))


def _read_records(horizon, time, value, cond_prob, parent) -> ScenarioTree:
    """The tree of record fields by id, None as the root's parent and
    value, as the constructor and the CLI's tree reader read them: type
    checks, the root's None value, then :meth:`ScenarioTree._from_arrays`."""
    time = _int_field(InvalidTree, "node field 'time'", time)
    _int_field(InvalidTree, "node field 'parent'", [p for p in parent if p is not None])
    for name, vals in (("value", [v for v in value if v is not None]), ("cond_prob", cond_prob)):
        # is_number reads the type alone, so one value of each type decides
        if not all(map(is_number, dict(zip(map(type, vals), vals)).values())):
            raise InvalidTree(f"node field {name!r} must hold numbers")
    roots = [k for k, p in enumerate(parent) if p is None]
    if len(roots) == 1 and value[roots[0]] is not None:
        raise InvalidTree("root must sit at time 0 and carry no value")
    # -1 marks the root alone: an unknown parent, -1 too, goes in as n, and
    # numbers beyond the float range as infinities; messages show them as given
    n, big = len(parent), sys.float_info.max
    ids = [-1 if p is None else p if 0 <= p < n else n for p in parent]
    values = [math.nan if v is None else v if abs(v) <= big else math.inf for v in value]
    cond = [c if abs(c) <= big else math.inf for c in cond_prob]
    return ScenarioTree._from_arrays(horizon, ids, time, values, cond, (parent, cond_prob))


def backward_sweep(tree: ScenarioTree, leaf_values: np.ndarray) -> list[np.ndarray]:
    """E[V | F_t] for t = 0..T of leaf values V, one row per leaf in leaf
    order (any trailing shape): entry t holds one row per time-t node, in
    level order, averaged level by level by
    :meth:`ScenarioTree.average_children`."""
    out = [np.asarray(leaf_values, dtype=np.float64)]
    for t in range(tree.horizon - 1, -1, -1):
        out.append(tree.average_children(t, out[-1]))
    return out[::-1]


def _check_int(v, what: str) -> None:
    """``InvalidParams`` unless ``v`` is an integer; a boolean is not."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise InvalidParams(f"{what} must be an integer, got {v!r}")


def _check_time(t, horizon: int) -> None:
    """``InvalidParams`` unless ``t`` is an integer in 0..``horizon``."""
    _check_int(t, "time")
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
        vals = [float(leaf_values[leaf]) for leaf in tree.leaves.tolist()]
    except KeyError as e:
        raise InvalidParams(f"leaf_values is missing leaf {e.args[0]}") from None
    return dict(zip(tree.levels[t].tolist(), backward_sweep(tree, vals)[t].tolist()))


# -- generators --------------------------------------------------------------


def tree_from_nested(horizon: int, spec: Sequence) -> ScenarioTree:
    """Build a tree from nested ``(value, cond_prob, children)`` triples.

    ``spec`` lists the children of the root; each entry is
    ``(value, prob, [children...])`` with the child list omitted or empty at
    the leaves.  Ids are depth first, in ``spec`` order.
    """
    rows = [(-1, 0, 0.0, 1.0)]  # (parent, time, value, cond_prob) per node

    def rec(par: int, t: int, entries: Sequence) -> None:
        for entry in entries:
            kids = entry[2] if len(entry) > 2 else ()
            rows.append((par, t, float(entry[0]), float(entry[1])))
            if kids:
                rec(len(rows) - 1, t + 1, kids)

    rec(0, 1, spec)
    return ScenarioTree._from_arrays(horizon, *zip(*rows))


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


def _horizon(T) -> int:
    """A generator's ``T`` as an int >= 1, or ``InvalidParams``."""
    T = finite_count(T, "T", "generator")
    if T < 1:
        raise InvalidParams(f"T must be >= 1, got {T}")
    return T


def _full_tree(T: int, b: int, x0: float, cond: np.ndarray, grow) -> ScenarioTree:
    """The full tree of horizon ``T`` with ``b`` children per node, ids
    breadth first: ``cond`` holds the families' ``cond_prob`` rows, one per
    parent or one for all; ``grow(x, at)`` gives the children's values, in
    turn, of the values ``x`` (``x0`` at the root) of the parents ``at``, a
    slice of ids."""
    sizes = b ** np.arange(T + 1)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    n = int(bounds[-1])
    x, values = np.array([x0]), [np.zeros(1)]
    with np.errstate(over="ignore"):  # an infinite value is refused as such
        for t in range(1, T + 1):
            x = grow(x, slice(bounds[t - 1], bounds[t]))
            values.append(x)
    cond = np.broadcast_to(cond, ((n - 1) // b, b)).ravel()
    return ScenarioTree._from_arrays(T, (np.arange(n) - 1) // b, np.repeat(np.arange(T + 1), sizes),
                                     np.concatenate(values), np.concatenate(([1.0], cond)))


def gen_binomial(
    T: int, start: float, up: float, down: float, p_up: float, drift: float = 0.0
) -> ScenarioTree:
    """Binomial tree: X_t = X_{t-1} + drift + {up, down}, X_0 = start.

    Recombination is never merged; the result has 2^T leaves.
    """
    T = _horizon(T)
    up, down, p_up = (finite_number(v, k, "generator")
                      for k, v in (("up", up), ("down", down), ("p_up", p_up)))
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
    T = _horizon(T)
    start, drift = (finite_number(v, name, "generator")
                    for name, v in (("start", start), ("drift", drift)))
    try:
        steps, probs = ([finite_number(v, name, "generator") for v in seq]
                        for name, seq in (("steps", steps), ("probs", probs)))
    except (TypeError, InvalidParams) as e:
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
    step = np.array(steps)
    return _full_tree(T, len(steps), start, np.array(probs),
                      lambda x, at: ((x + drift)[:, None] + step).ravel())


def gen_random(T: int, branching: int, seed: int) -> ScenarioTree:
    """Deterministic random tree with dyadic transition probabilities.

    Probabilities are multiples of 2^-10, at least one each, and values are
    multiples of 2^-20, so families sum to exactly 1.0 in binary64 and
    repeated calls with one seed reproduce the tree bit for bit.
    """
    T = _horizon(T)
    b = finite_count(branching, "branching", "generator")
    seed = finite_count(seed, "seed", "generator")
    if not 2 <= b <= 1024:
        raise InvalidParams(f"branching must lie in 2..1024, got {b}")
    _check_node_budget(T, b)
    rng = np.random.default_rng(seed)
    # one family per parent, in id order: its counts, then its increments
    m = (b ** T - 1) // (b - 1)
    counts, incs = np.empty((m, b), dtype=np.int64), np.empty((m, b), dtype=np.int64)
    for k in range(m):
        counts[k] = rng.multinomial(1024 - b, [1.0 / b] * b) + 1
        incs[k] = rng.choice(2**21, size=b, replace=False)
    step = (incs - 2**20) / 2.0**20
    return _full_tree(T, b, 0.0, counts / 1024.0,
                      lambda x, at: (x[:, None] + step[at]).ravel())


# -- structural utilities ----------------------------------------------------


def is_isomorphic(a: ScenarioTree, b: ScenarioTree) -> bool:
    """Labeled-tree isomorphism: same branching values and probabilities.

    Sibling-distinct values make this equivalent to equality of the adapted
    laws, hence to a vanishing adapted distance.
    """
    def canonical(tree: ScenarioTree, nid: int) -> list:
        # siblings sort by their values alone, which are distinct
        return sorted((tree.values[c], tree.cond_prob[c], canonical(tree, c))
                      for c in tree.children[nid])

    return a.horizon == b.horizon and canonical(a, a.root) == canonical(b, b.root)
