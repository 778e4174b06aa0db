"""The array-built scenario tree against the per-record construction it replaced.

``ScenarioTree._from_arrays`` checks and lays out every tree; the
constructor only reads ``Node`` records into its arrays.  The reference
below is the record-by-record validation the constructor ran before: the
array validator must accept exactly the trees it accepts and refuse the
others with its message, naming the node it named.  Generators, the nested
builder, the CLI reader and the bicausal repair build no records at all,
and the trees they build equal, bit for bit, those the records rebuild.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import (
    InvalidTree,
    ScenarioTree,
    bicausalize,
    gen_binomial,
    gen_lattice,
    gen_random,
    product_coupling,
    tree_from_nested,
)
from awsens import process_tree
from awsens.cli import load_tree, parse_tree
from awsens.process_tree import PROB_TOL

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# -- the reference: the per-record validation ----------------------------------


def _reference_validate(horizon, nodes):
    """The record-by-record checks, type checks left out; returns
    ``(levels, node_prob)``.  Sums are left folds from 0.0, which is what
    ``sum`` computed on floats before Python 3.12 made it compensated."""
    nodes = list(nodes)
    n = len(nodes)
    if horizon < 1:
        raise InvalidTree(f"horizon must be >= 1, got {horizon}")
    roots = [nd.id for nd in nodes if nd.parent is None]
    if len(roots) != 1:
        raise InvalidTree(f"expected exactly one root, found {len(roots)}")
    root = roots[0]
    rn = nodes[root]
    if rn.time != 0 or rn.value is not None:
        raise InvalidTree("root must sit at time 0 and carry no value")

    children = [[] for _ in range(n)]
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
        if nd.value is None or not abs(nd.value) <= sys.float_info.max:
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
        s = 0.0
        for c in kids:
            s += nodes[c].cond_prob
        if abs(s - 1.0) > PROB_TOL:
            raise InvalidTree(f"children of node {nd.id} have probabilities summing to {s!r}")

    levels = [[] for _ in range(horizon + 1)]
    order = [root]
    node_prob = [0.0] * n
    node_prob[root] = 1.0
    for nid in order:
        levels[nodes[nid].time].append(nid)
        for c in children[nid]:
            node_prob[c] = node_prob[nid] * nodes[c].cond_prob
            order.append(c)
    if len(order) != n:
        raise InvalidTree("tree contains nodes unreachable from the root")

    total = 0.0
    for leaf in levels[horizon]:
        total += node_prob[leaf]
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidTree(f"leaf path probabilities sum to {total!r}")
    for nd in nodes:
        kids = children[nd.id]
        if len({nodes[c].value for c in kids}) != len(kids):
            raise InvalidTree(f"children of node {nd.id} carry duplicate values")
    return levels, node_prob


def _outcome(build):
    try:
        return build()
    except InvalidTree as e:
        return ("InvalidTree", str(e))


@st.composite
def _nested_trees(draw):
    """A tree of horizon <= 3 with family sizes 1..3 and dyadic
    probabilities; ids are depth first, so not in level order."""
    horizon = draw(st.integers(1, 3))

    def family(depth):
        size = draw(st.integers(1, 3))
        probs = [0.5, 0.25, 0.25][:size] if size > 1 else [1.0]
        if size == 2:
            probs = [0.5, 0.5]
        return [(float(k), p, family(depth + 1) if depth < horizon else [])
                for k, p in enumerate(probs)]

    return tree_from_nested(horizon, family(1))


_SMALL_TREES = st.one_of(
    st.builds(gen_random, st.integers(1, 3), st.integers(2, 3), st.integers(0, 1000)),
    _nested_trees(),
)
_FAULTS = ["parent", "later level", "time", "second root", "valued root", "cond_prob",
           "family sum", "duplicate", "value", "horizon", "new value"]


@given(tree=_SMALL_TREES, data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_records_fail_as_the_record_checks_did(tree, data):
    horizon, nodes = tree.horizon, list(tree.nodes)
    n = len(nodes)
    non_root = st.integers(1, n - 1)
    for fault in data.draw(st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=3)):
        if fault == "horizon":  # leaves above it, or nodes beyond it
            horizon += data.draw(st.sampled_from([-1, 1]))
            continue
        k = data.draw(non_root)
        nd = nodes[k]
        if fault == "parent":
            change = {"parent": data.draw(st.sampled_from([n, n + 3, -1, -2]))}
        elif fault == "later level":
            change = {"parent": data.draw(st.sampled_from(
                [j for j in range(n) if nodes[j].time >= nd.time]))}
        elif fault == "time":
            change = {"time": nd.time + data.draw(st.sampled_from([-1, 1, 2]))}
        elif fault == "second root":
            change = {"parent": None, "value": data.draw(st.sampled_from([None, 1.0]))}
        elif fault == "valued root":
            k, change = tree.root, {"value": 3.0}
        elif fault == "cond_prob":
            change = {"cond_prob": data.draw(st.sampled_from([0.0, 0, -0.5, 1.0 + 2.0**-52,
                                                              math.nan, 1]))}
        elif fault == "family sum":
            # off by more than PROB_TOL, or within it
            change = {"cond_prob": nd.cond_prob + data.draw(st.sampled_from([2e-12, -2e-12,
                                                                             4e-13]))}
        elif fault == "duplicate":
            siblings = [j for j in range(1, n) if nodes[j].parent == nd.parent and j != k]
            change = {"value": nodes[siblings[0]].value if siblings else nd.value}
        elif fault == "value":
            change = {"value": data.draw(st.sampled_from([None, math.nan, math.inf, 10 ** 400]))}
        else:  # still a valid tree unless it meets a sibling's value
            change = {"value": k + 0.375}
        nodes[k] = dataclasses.replace(nodes[k], **change)
    want = _outcome(lambda: _reference_validate(horizon, nodes))
    got = _outcome(lambda: ScenarioTree(horizon, nodes))
    if isinstance(want, tuple) and want[0] == "InvalidTree":
        assert got == want
        return
    levels, node_prob = want
    assert [lv.tolist() for lv in got.levels] == levels
    assert [p.hex() for p in got.node_prob.tolist()] == [p.hex() for p in node_prob]


def test_negative_parents_are_unknown_parents_not_roots():
    nodes = list(gen_binomial(1, 0.0, 1.0, -1.0, 0.5).nodes)
    for parent in (-1, -2, 3, 10):
        bad = nodes[:2] + [dataclasses.replace(nodes[2], parent=parent)]
        with pytest.raises(InvalidTree, match=f"node 2 references unknown parent {parent}$"):
            ScenarioTree(1, bad)
    bad = nodes[:2] + [dataclasses.replace(nodes[2], cond_prob=10**400)]
    with pytest.raises(InvalidTree, match=f"node 2 has cond_prob {10**400} outside"):
        ScenarioTree(1, bad)


# -- nothing builds records -----------------------------------------------------


class _NoRecords:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a Node record was built")


def test_builders_build_no_node_records(monkeypatch, split_dirac_pair):
    P, Q = split_dirac_pair
    monkeypatch.setattr(process_tree, "Node", _NoRecords)
    gen_binomial(4, 0.0, 1.0, -1.0, 0.5)
    gen_lattice(3, 0.0, [1.0, 0.0, -1.0], [0.25, 0.5, 0.25])
    gen_random(3, 3, 0)
    tree_from_nested(2, [(1.0, 0.5, [(2.0, 1.0)]), (-1.0, 0.5, [(0.0, 1.0)])])
    parse_tree((FIXTURES / "drifted_binomial.json").read_text(encoding="utf-8"))
    coupling, q = bicausalize(product_coupling(P, Q), 0.01)
    assert len(q.values) == len(coupling.y_node)
    with pytest.raises(AssertionError, match="record was built"):
        P.nodes


# -- the arrays equal those the records rebuild -------------------------------


def _generated():
    for T in range(1, 7):
        yield gen_binomial(T, 0.1, 1.0, -1.0, 0.45, -0.1)
        yield gen_lattice(T, 0.5, [1.0, 0.0, -1.5], [0.25, 0.5, 0.25], 0.01)
        for branching in (2, 3):
            yield gen_random(T, branching, T)
    for path in sorted(FIXTURES.glob("*.json")):
        if not path.name.startswith("config"):
            yield load_tree(str(path))


def _bits(tree):
    hexes = [[v.hex() for v in a.tolist()]
             for a in (tree.values, tree.cond_prob, tree.node_prob, tree.paths.probs,
                       tree.paths.values.ravel())]
    ints = [a.tolist() for a in (tree.parent, tree.time, tree.level_order, tree.level_pos,
                                 tree.level_start, tree.leaves, tree.ancestor_matrix,
                                 tree.paths.leaf_ids)]
    return hexes, ints, [lv.tolist() for lv in tree.levels], tree.children


@pytest.mark.parametrize("tree", list(_generated()), ids=lambda t: f"T{t.horizon}n{len(t.values)}")
def test_built_trees_equal_the_record_rebuild_bit_for_bit(tree):
    assert _bits(tree) == _bits(ScenarioTree(tree.horizon, tree.nodes))
    for a in (tree.node_prob, tree.leaves, *tree.levels):
        assert not a.flags.writeable
    assert isinstance(tree.node_prob, np.ndarray)
