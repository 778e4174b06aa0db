import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import (
    InvalidParams,
    InvalidTree,
    Node,
    ScenarioTree,
    conditional_expectation,
    drop_last_stage,
    gen_binomial,
    gen_lattice,
    gen_random,
    is_isomorphic,
    pth_moment,
    tree_from_nested,
)


def test_single_path_tree():
    tree = tree_from_nested(2, [(1.0, 1.0, [(2.0, 1.0)])])
    table = tree.paths
    assert len(table) == 1
    leaf, values, prob = next(iter(table))
    assert prob == 1.0
    assert values.tolist() == [1.0, 2.0]


def test_symmetric_binomial_paths():
    tree = gen_binomial(T=2, start=0.0, up=1.0, down=-1.0, p_up=0.5)
    table = tree.paths
    assert len(table) == 4
    assert all(prob == 0.25 for _, _, prob in table)
    got = sorted(tuple(v) for _, v, _ in table)
    assert got == [(-1.0, -2.0), (-1.0, 0.0), (1.0, 0.0), (1.0, 2.0)]


def test_drifted_binomial_paths():
    # expected values recomputed here by the direct product recursion
    start, up, down, drift, p = 0.1, 1.0, -1.0, -0.1, 0.5
    expected = {}
    for s1 in (up, down):
        x1 = start + drift + s1
        for s2 in (up, down):
            x2 = x1 + drift + s2
            expected[(x1, x2)] = p * p
    tree = gen_binomial(T=2, start=start, up=up, down=down, p_up=p, drift=drift)
    got = {tuple(v): prob for _, v, prob in tree.paths}
    assert got == expected
    assert {v[0] for v in got} == {1.0, -1.0}


def test_cond_exp_at_horizon_is_identity(iid_signs):
    leaf_values = {leaf: float(k + 1) for k, leaf in enumerate(iid_signs.leaves)}
    out = conditional_expectation(iid_signs, leaf_values, iid_signs.horizon)
    assert out == leaf_values


def test_cond_exp_constant(iid_signs):
    out = conditional_expectation(iid_signs, {lf: 3.25 for lf in iid_signs.leaves}, 1)
    assert all(abs(v - 3.25) <= 1e-12 for v in out.values())


def test_cond_exp_martingale_binomial():
    tree = gen_binomial(T=2, start=0.0, up=1.0, down=-1.0, p_up=0.5)
    table = tree.paths
    leaf_values = {leaf: float(v[-1]) for leaf, v, _ in table}
    out = conditional_expectation(tree, leaf_values, 1)
    for nid in tree.levels[1]:
        assert out[nid] == tree.nodes[nid].value  # halves make this exact


def test_cond_exp_missing_leaf_raises(iid_signs):
    with pytest.raises(InvalidParams):
        conditional_expectation(iid_signs, {iid_signs.leaves[0]: 1.0}, 1)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_tower_property_random_trees(seed):
    # dyadic kernels make every family sum exactly one; the two-sweep
    # composition then agrees with the direct sweep to machine precision
    tree = gen_random(T=3, branching=2, seed=seed)
    rng = np.random.default_rng(seed)
    leaf_values = {leaf: float(v) for leaf, v in zip(tree.leaves, rng.normal(size=len(tree.leaves)))}
    at_two = conditional_expectation(tree, leaf_values, 2)
    expanded = {
        leaf: at_two[tree.ancestor(leaf, 2)] for leaf in tree.leaves
    }
    via_two = conditional_expectation(tree, expanded, 1)
    direct = conditional_expectation(tree, leaf_values, 1)
    for nid in tree.levels[1]:
        assert via_two[nid] == pytest.approx(direct[nid], rel=1e-13, abs=1e-13)


def test_tower_property_exact_for_halves():
    tree = gen_binomial(T=3, start=0.0, up=1.0, down=-1.0, p_up=0.5)
    rng = np.random.default_rng(7)
    leaf_values = {leaf: float(v) for leaf, v in zip(tree.leaves, rng.normal(size=len(tree.leaves)))}
    at_two = conditional_expectation(tree, leaf_values, 2)
    expanded = {leaf: at_two[tree.ancestor(leaf, 2)] for leaf in tree.leaves}
    assert conditional_expectation(tree, expanded, 1) == conditional_expectation(tree, leaf_values, 1)


@given(seed=st.integers(0, 10_000), branching=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_path_probabilities_sum_to_one(seed, branching):
    tree = gen_random(T=2, branching=branching, seed=seed)
    assert abs(float(tree.paths.probs.sum()) - 1.0) <= 1e-12


def test_path_probabilities_bulk():
    for seed in range(1000):
        tree = gen_random(T=2, branching=2, seed=20_000 + seed)
        assert abs(float(tree.paths.probs.sum()) - 1.0) <= 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_pth_moment_consistency(seed):
    tree = gen_random(T=2, branching=3, seed=seed)
    p = 2.5
    via_nodes = pth_moment(tree, p)
    table = tree.paths
    via_paths = float(np.sum(table.probs[:, None] * np.abs(table.values) ** p))
    assert math.isfinite(via_nodes)
    assert via_nodes == pytest.approx(via_paths, rel=1e-12)


def test_gen_binomial_one_period():
    tree = gen_binomial(T=1, start=0.0, up=1.0, down=-1.0, p_up=0.5)
    got = sorted((v[0], prob) for _, v, prob in tree.paths)
    assert got == [(-1.0, 0.5), (1.0, 0.5)]


def test_gen_binomial_no_recombination():
    tree = gen_binomial(T=2, start=0.0, up=1.0, down=-1.0, p_up=0.5)
    # the walk recombines in value (two paths hit 0) but not in the tree
    assert len(tree.leaves) == 4
    zeros = [nid for nid in tree.levels[2] if tree.nodes[nid].value == 0.0]
    assert len(zeros) == 2


def test_gen_random_deterministic():
    a = gen_random(T=2, branching=3, seed=7)
    b = gen_random(T=2, branching=3, seed=7)
    assert [(n.time, n.value, n.cond_prob, n.parent) for n in a.nodes] == [
        (n.time, n.value, n.cond_prob, n.parent) for n in b.nodes
    ]
    c = gen_random(T=2, branching=3, seed=8)
    assert not is_isomorphic(a, c)


def test_gen_lattice_matches_manual():
    tree = gen_lattice(T=2, start=0.0, steps=[1.0, 0.0, -1.0], probs=[0.25, 0.5, 0.25])
    assert len(tree.leaves) == 9
    assert abs(float(tree.paths.probs.sum()) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=0, start=0.0, up=1.0, down=-1.0, p_up=0.5),
        dict(T=1, start=0.0, up=1.0, down=1.0, p_up=0.5),
        dict(T=1, start=0.0, up=1.0, down=-1.0, p_up=0.0),
        dict(T=1, start=0.0, up=1.0, down=-1.0, p_up=1.0),
    ],
)
def test_gen_binomial_invalid_params(kwargs):
    with pytest.raises(InvalidParams):
        gen_binomial(**kwargs)


def test_gen_lattice_invalid_params():
    with pytest.raises(InvalidParams):
        gen_lattice(T=1, start=0.0, steps=[1.0, 1.0], probs=[0.5, 0.5])
    with pytest.raises(InvalidParams):
        gen_lattice(T=1, start=0.0, steps=[1.0, -1.0], probs=[0.6, 0.6])
    with pytest.raises(InvalidParams):
        gen_random(T=1, branching=1, seed=0)


@pytest.mark.parametrize("steps, probs", [
    (3.0, [0.5, 0.5]),
    ([1.0, -1.0], 0.5),
    (["up", "down"], [0.5, 0.5]),
    ([1.0, [2.0]], [0.5, 0.5]),
])
def test_gen_lattice_scalar_or_non_numeric_steps(steps, probs):
    with pytest.raises(InvalidParams, match="sequences of numbers"):
        gen_lattice(2, 0.0, steps, probs)


def test_invalid_trees_rejected():
    # probabilities not summing to one
    with pytest.raises(InvalidTree):
        ScenarioTree(1, [Node(0, 0, None, 1.0, None), Node(1, 1, 1.0, 0.7, 0)])
    # duplicate sibling values
    with pytest.raises(InvalidTree):
        tree_from_nested(1, [(1.0, 0.5), (1.0, 0.5)])
    # nonpositive transition probability
    with pytest.raises(InvalidTree):
        ScenarioTree(
            1,
            [Node(0, 0, None, 1.0, None), Node(1, 1, 1.0, 0.0, 0), Node(2, 1, 2.0, 1.0, 0)],
        )
    # leaf above the horizon
    with pytest.raises(InvalidTree):
        tree_from_nested(2, [(1.0, 1.0)])
    # root carrying a value
    with pytest.raises(InvalidTree):
        ScenarioTree(1, [Node(0, 0, 3.0, 1.0, None), Node(1, 1, 1.0, 1.0, 0)])
    # two roots
    with pytest.raises(InvalidTree):
        ScenarioTree(
            1,
            [Node(0, 0, None, 1.0, None), Node(1, 0, None, 1.0, None), Node(2, 1, 1.0, 1.0, 0)],
        )


def test_drop_last_stage(iid_signs):
    short = drop_last_stage(iid_signs)
    assert short.horizon == 1
    assert sorted(short.nodes[nid].value for nid in short.leaves) == [-1.0, 1.0]
    with pytest.raises(InvalidParams):
        drop_last_stage(short)


def test_is_isomorphic_ignores_node_order(iid_signs):
    flipped = tree_from_nested(
        2,
        [
            (-1.0, 0.5, [(-1.0, 0.5), (1.0, 0.5)]),
            (1.0, 0.5, [(-1.0, 0.5), (1.0, 0.5)]),
        ],
    )
    assert is_isomorphic(iid_signs, flipped)
    other = tree_from_nested(
        2,
        [
            (1.0, 0.5, [(1.0, 0.5), (-1.0, 0.5)]),
            (-1.0, 0.5, [(1.0, 0.5), (-2.0, 0.5)]),
        ],
    )
    assert not is_isomorphic(iid_signs, other)


# -- trees that share a structure ---------------------------------------------

_SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, math.nan, math.inf, -math.inf, None]


@st.composite
def _shaped_trees(draw):
    """A tree of horizon <= 4 and branching <= 4 (family sizes may differ)
    with dyadic probabilities; ids follow tree_from_nested's depth-first
    order, so they are not in level order."""
    horizon = draw(st.integers(1, 4))

    def family(depth):
        size = draw(st.integers(1, 4 if depth < 3 else 2))
        counts = [1 + draw(st.integers(0, 7)) for _ in range(size)]
        entries = []
        for k, c in enumerate(counts):
            prob = c / sum(counts)
            kids = family(depth + 1) if depth < horizon else []
            entries.append((float(k), prob, kids))
        # make the probabilities sum to 1 exactly
        last = entries[-1]
        entries[-1] = (last[0], 1.0 - math.fsum(e[1] for e in entries[:-1]), last[2])
        return entries

    return tree_from_nested(horizon, family(1))


def _public_views(tree):
    return (
        tree.horizon, tree.root, tree.children, tree.levels, tree.leaves, tree.node_prob,
        [(n.id, n.time, None if n.value is None else n.value.hex(), n.cond_prob.hex(), n.parent)
         for n in tree.nodes],
        tree.paths.leaf_ids, tree.paths.values.tobytes(), tree.paths.values.shape,
        tree.paths.probs.tobytes(), tree.ancestor_matrix.tobytes(), tree.values.tobytes(),
    )


@given(tree=_shaped_trees(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_with_values_matches_the_validating_constructor(tree, data):
    n = len(tree.nodes)
    # finite values only, or with NaN, infinities and missing values mixed in
    special = _SPECIAL_VALUES if data.draw(st.booleans()) else _SPECIAL_VALUES[:5]
    pool = st.one_of(st.sampled_from(special), st.floats(-4.0, 4.0, width=16))
    values = data.draw(st.lists(pool, min_size=n, max_size=n))
    nodes = [Node(nd.id, nd.time, None if nd.parent is None else values[nd.id], nd.cond_prob,
                  nd.parent) for nd in tree.nodes]
    try:
        want = ScenarioTree(tree.horizon, nodes)
    except InvalidTree as e:
        want = e
    try:
        got = tree.with_values(values)
    except InvalidTree as e:
        got = e
    # the reference rule, independent of both: values finite, siblings
    # distinct under Python's float equality (0.0 == -0.0)
    finite = all(v is not None and math.isfinite(v) for k, v in enumerate(values) if k != tree.root)
    distinct = finite and all(len({values[c] for c in kids}) == len(kids) for kids in tree.children)
    assert isinstance(got, InvalidTree) is isinstance(want, InvalidTree) is (not distinct)
    if not distinct:
        assert str(got) == str(want)
        return
    assert got._nodes is None  # Node records wait for the first access
    assert _public_views(got) == _public_views(want)
    # the structure is shared, not copied
    for name in ("children", "levels", "leaves", "node_prob", "ancestor_matrix"):
        assert getattr(got, name) is getattr(tree, name)
    assert got.paths.probs is tree.paths.probs


def test_with_values_reports_the_smallest_offending_id():
    # ids are depth first: node 5's family (level 1) is scanned before node
    # 2's (level 2), yet node 2 is reported, as the constructor's id order has it
    tree = tree_from_nested(3, [
        (0.0, 0.5, [(0.0, 1.0, [(1.0, 0.5), (2.0, 0.5)])]),
        (1.0, 0.5, [(0.0, 0.5, [(1.0, 1.0)]), (1.0, 0.5, [(1.0, 1.0)])]),
    ])
    assert tree.children[2] == (3, 4) and tree.children[5] == (6, 8)
    values = tree.values.copy()
    values[4], values[8] = values[3], values[6]
    with pytest.raises(InvalidTree, match="children of node 2 carry"):
        tree.with_values(values)
    nodes = [Node(nd.id, nd.time, nd.value if nd.parent is None else float(values[nd.id]),
                  nd.cond_prob, nd.parent) for nd in tree.nodes]
    with pytest.raises(InvalidTree, match="children of node 2 carry"):
        ScenarioTree(3, nodes)
    values[3] = math.nan
    with pytest.raises(InvalidTree, match="node 3 must carry a finite value"):
        tree.with_values(values)


def test_with_values_refuses_a_wrong_length(iid_signs):
    with pytest.raises(InvalidTree):
        iid_signs.with_values([1.0, 2.0])


def test_with_values_copies_its_input(iid_signs):
    values = np.array([0.0, 3.0, -3.0, 1.0, -1.0, 2.0, -2.0])
    moved = iid_signs.with_values(values)
    values[1] = 99.0
    assert moved.values[1] == 3.0 and moved.paths.values.max() == 3.0
    assert iid_signs.values[1] == 1.0
