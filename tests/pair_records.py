"""Pair records for tests: a coupling written as one record per pair node.

``CouplingTree`` holds a coupling as arrays by pair id.  Tests that write a
coupling by hand, or walk one pair at a time, use the records here instead:
``PairNode(id, time, x_node, y_node, cond_prob, parent)``, with ``parent``
None at the root pair, the form ``awsens aw --coupling-out`` writes.
"""

from typing import NamedTuple

from awsens import CouplingTree


class PairNode(NamedTuple):
    id: int
    time: int
    x_node: int
    y_node: int
    cond_prob: float
    parent: int | None


def records(coupling: CouplingTree) -> list[PairNode]:
    """The coupling's pairs as records, in id order."""
    cols = (a.tolist() for a in (coupling.time, coupling.x_node, coupling.y_node,
                                 coupling.cond_prob, coupling.parent))
    return [PairNode(k, t, x, y, c, None if par < 0 else par)
            for k, (t, x, y, c, par) in enumerate(zip(*cols))]


def arrays(pairs) -> tuple[list, list, list, list, list]:
    """``(parent, time, x_node, y_node, cond_prob)`` of records whose ids
    are their list positions, with -1 for a parent of None."""
    pairs = list(pairs)
    assert [pn.id for pn in pairs] == list(range(len(pairs))), "ids must be list positions"
    return ([-1 if pn.parent is None else pn.parent for pn in pairs],
            [pn.time for pn in pairs], [pn.x_node for pn in pairs],
            [pn.y_node for pn in pairs], [pn.cond_prob for pn in pairs])


def coupling_of(first, second, pairs, marginal_tol: float = 1e-10) -> CouplingTree:
    """The coupling these records describe, through the one constructor."""
    return CouplingTree(first, second, *arrays(pairs), marginal_tol=marginal_tol)


def child_ids(coupling: CouplingTree) -> tuple[tuple[int, ...], ...]:
    """Child pair ids per pair, in id order."""
    out = [[] for _ in coupling.parent]
    for k, par in enumerate(coupling.parent.tolist()):
        if par >= 0:
            out[par].append(k)
    return tuple(map(tuple, out))
