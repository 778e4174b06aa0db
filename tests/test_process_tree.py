import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import (
    AmbiguousStopping,
    ControlBounds,
    FlatStep,
    InvalidParams,
    InvalidTree,
    Node,
    ScenarioTree,
    conditional_expectation,
    gen_binomial,
    gen_lattice,
    gen_random,
    is_isomorphic,
    make_cost_model,
    make_utility_model,
    sensitivity_control,
    sensitivity_stopping,
    sensitivity_terminal,
    solve_stopping,
    tree_from_nested,
    utility_first_order,
)
from awsens import process_tree
from awsens.sensitivity import leaf_gradients


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


@pytest.mark.parametrize("t", [1.5, 1.0, True, False, "1", None, -1, 3])
def test_cond_exp_time_must_be_an_integer_in_range(iid_signs, t):
    leaf_values = {lf: 1.0 for lf in iid_signs.leaves}
    with pytest.raises(InvalidParams):
        conditional_expectation(iid_signs, leaf_values, t)
    assert conditional_expectation(iid_signs, leaf_values, np.int64(1)) == {1: 1.0, 4: 1.0}


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


def pth_moment(tree: ScenarioTree, p: float) -> float:
    """Sum over stages of E|X_t|^p, computed from node probabilities: the
    reference for the path table."""
    return sum(tree.node_prob[nid] * abs(tree.nodes[nid].value) ** p
               for t in range(1, tree.horizon + 1) for nid in tree.levels[t])


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
    # probabilities are multiples of 2^-10, at least one each
    with pytest.raises(InvalidParams, match="branching"):
        gen_random(T=1, branching=1025, seed=0)
    with pytest.raises(InvalidParams, match="seed"):
        gen_random(T=1, branching=2, seed=-1)
    assert gen_random(T=1, branching=1024, seed=0).paths.probs.tolist() == [2.0**-10] * 1024


def test_generators_refuse_trees_over_the_node_budget(monkeypatch):
    # counted before anything is built, so a huge horizon costs nothing
    for build in (lambda T: gen_random(T, 2, 0), lambda T: gen_binomial(T, 0.0, 1.0, -1.0, 0.5),
                  lambda T: gen_lattice(T, 0.0, [1.0, 0.0, -1.0], [0.25, 0.5, 0.25])):
        for T in (40, 2**70):
            with pytest.raises(InvalidParams, match="nodes"):
                build(T)
    # the budget is inclusive: 7 nodes admit binomial T=2 and refuse T=3
    monkeypatch.setattr(process_tree, "GEN_MAX_NODES", 7)
    assert len(gen_binomial(2, 0.0, 1.0, -1.0, 0.5).values) == 7
    with pytest.raises(InvalidParams, match="over 7 nodes"):
        gen_binomial(3, 0.0, 1.0, -1.0, 0.5)


def test_ancestor_refuses_bad_times_and_non_leaves():
    tree = gen_binomial(2, 0.0, 1.0, -1.0, 0.5)
    leaf = tree.leaves[0]
    assert [tree.ancestor(leaf, t) for t in range(3)] == tree.ancestor_matrix[0].tolist()
    with pytest.raises(InvalidParams, match="outside"):
        tree.ancestor(leaf, -1)  # numpy would index from the end
    with pytest.raises(InvalidParams, match="outside"):
        tree.ancestor(leaf, 5)
    with pytest.raises(InvalidParams, match="not a leaf"):
        tree.ancestor(tree.root, 1)
    for node in (-1, len(tree.values), 10**30):
        with pytest.raises(InvalidParams, match="not a leaf"):
            tree.ancestor(node, 1)
    assert tree.ancestor(np.int64(leaf), 1) == tree.ancestor(leaf, 1)
    # a bool or a float is not a node id, though list.index would find one
    one = tree_from_nested(1, [(1.0, 0.5), (2.0, 0.5)])
    for node, t in ((True, 0), (1.0, 1), (2.5, 1), ("1", 1), (None, 1)):
        with pytest.raises(InvalidParams, match="node id must be an integer"):
            one.ancestor(node, t)


@pytest.mark.parametrize("build", [
    lambda: gen_random(2, 2, 1.5),
    lambda: gen_random(2, 2.5, 0),
    lambda: gen_random(2.0001, 2, 0),
    lambda: gen_random(True, 2, 0),
    lambda: gen_random(2, 2, "0"),
    lambda: gen_binomial(2.5, 0.0, 1.0, -1.0, 0.5),
    lambda: gen_binomial(True, 0.0, 1.0, -1.0, 0.5),
    lambda: gen_binomial(2, "a", 1, -1, 0.5),
    lambda: gen_binomial(2, 0, 1, -1, "0.5"),
    lambda: gen_binomial(2, 0, None, -1, 0.5),
    lambda: gen_binomial(2, 0, 1, -1, 0.5, math.nan),
    lambda: gen_binomial(2, 0, math.inf, -1, 0.5),
    lambda: gen_lattice(2, 0.0, [1.0, -1.0], [0.5, 0.5], "0"),
    lambda: gen_lattice(2, 10**400, [1.0, -1.0], [0.5, 0.5]),
    lambda: gen_lattice(2, 0.0, [1.0, math.nan], [0.5, 0.5]),
    lambda: gen_lattice(2, 0.0, [1.0, -1.0], [0.5, True]),
])
def test_generators_refuse_non_numbers_with_invalid_params(build):
    with pytest.raises(InvalidParams):
        build()


def test_generators_read_integral_floats_as_counts():
    assert gen_random(2.0, 2.0, 7.0).values.tobytes() == gen_random(2, 2, 7).values.tobytes()
    assert gen_binomial(np.int64(3), 0, 1, -1, 0.5).horizon == 3


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


def drop_last_stage(tree: ScenarioTree) -> ScenarioTree:
    """Forget the time-T coordinate, through the validating constructor:
    old time-(T-1) nodes become leaves."""
    if tree.horizon < 2:
        raise InvalidParams("cannot drop the last stage of a one-period tree")
    ids = [n.id for n in tree.nodes if n.time < tree.horizon]
    new = {old: k for k, old in enumerate(ids)}
    return ScenarioTree(tree.horizon - 1, [
        Node(new[n.id], n.time, n.value, n.cond_prob, None if n.parent is None else new[n.parent])
        for n in (tree.nodes[k] for k in ids)])


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


_NODE_ARRAYS = ("parent", "time", "cond_prob", "level_order", "level_pos", "level_start")


def _public_views(tree):
    return (
        tree.horizon, tree.root, tree.children, [lv.tolist() for lv in tree.levels],
        tree.leaves.tolist(), tree.node_prob.tobytes(),
        [(n.id, n.time, None if n.value is None else n.value.hex(), n.cond_prob.hex(), n.parent)
         for n in tree.nodes],
        tree.paths.leaf_ids.tolist(), tree.paths.values.tobytes(), tree.paths.values.shape,
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
    for name in _NODE_ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name))
    # the structure is shared, not copied, and its arrays are read-only
    for name in ("children", "levels", "leaves", "node_prob", "ancestor_matrix") + _NODE_ARRAYS:
        assert getattr(got, name) is getattr(tree, name)
    for name in _NODE_ARRAYS + ("values",):
        with pytest.raises(ValueError):
            getattr(got, name)[0] = 0
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


# -- the array sweep against the dict references ------------------------------


def _reference_conditional_expectation(tree, leaf_values, t):
    """The dict sweep the array sweep replaced.  Each family sum is a left
    fold from 0.0, which is what ``sum`` computed on floats before Python
    3.12 made it compensated."""
    vals = {leaf: float(leaf_values[leaf]) for leaf in tree.leaves}
    for u in range(tree.horizon - 1, t - 1, -1):
        nxt = {}
        for nid in tree.levels[u]:
            acc = 0.0
            for c in tree.children[nid]:
                acc += tree.nodes[c].cond_prob * vals[c]
            nxt[nid] = acc
        vals = nxt
    return {nid: vals[nid] for nid in tree.levels[t]}


def _reference_snell(tree, model):
    """The node-by-node Snell recursion and stopping rule the array sweep
    replaced: ``(value, stop_set, tau, envelope, continuation, margin)``."""
    T = tree.horizon
    xs = tree.paths.values
    stop_vals = np.empty((xs.shape[0], T))
    for t in range(1, T + 1):
        stop_vals[:, t - 1] = model.value_fn(xs, t)
    rep = {}
    for k, path in enumerate(tree.ancestor_matrix.tolist()):
        for nid in path:
            rep.setdefault(nid, k)
    cond = [nd.cond_prob for nd in tree.nodes]
    envelope, continuation = {}, {}
    for leaf in tree.leaves:
        envelope[leaf] = float(stop_vals[rep[leaf], T - 1])
    margin = math.inf
    for t in range(T - 1, -1, -1):
        for nid in tree.levels[t]:
            cont = 0.0
            for c in tree.children[nid]:
                cont += cond[c] * envelope[c]
            continuation[nid] = cont
            if t == 0:
                envelope[nid] = cont
                continue
            sv = float(stop_vals[rep[nid], t - 1])
            envelope[nid] = min(sv, cont)
            margin = min(margin, abs(sv - cont))
    stop_set = set()

    def descend(nid):
        t = tree.nodes[nid].time
        if t == T or stop_vals[rep[nid], t - 1] < continuation[nid]:
            stop_set.add(nid)
            return
        for c in tree.children[nid]:
            descend(c)

    for c in tree.children[tree.root]:
        descend(c)
    tau = {}
    for k, leaf in enumerate(tree.leaves):
        tau[leaf] = next(t for t in range(1, T + 1)
                         if int(tree.ancestor_matrix[k, t]) in stop_set)
    return envelope[tree.root], stop_set, tau, envelope, continuation, margin


def _bits(d):
    """A float dict as (key, hex) pairs in its order: tells -0.0 from 0.0."""
    return [(k, v.hex()) for k, v in d.items()]


def _bits_by_id(values, ref):
    """``_bits`` of an array by node id, read at the reference's ids in its order."""
    values = values.tolist()
    return _bits({nid: values[nid] for nid in ref})


def _reference_cond_grads(tree, grads):
    return {t: _reference_conditional_expectation(
        tree, {lf: float(grads[k, t - 1]) for k, lf in enumerate(tree.leaves)}, t)
        for t in range(1, tree.horizon + 1)}


def _assert_cond_grads(report, want):
    """The report's array against the per-stage reference dicts, through node
    ids; the one node no stage holds, the root, holds 0.0."""
    for t in want:
        assert _bits_by_id(report.cond_grads, want[t]) == _bits(want[t])
    rest = set(range(len(report.cond_grads))).difference(*want.values())
    assert [report.cond_grads[nid].hex() for nid in rest] == [(0.0).hex()]


@st.composite
def _sweep_trees(draw):
    """``gen_random``, ``gen_lattice`` or mixed-family-size trees, with
    signed zeros moved into some families' values."""
    kind = draw(st.sampled_from(["random", "lattice", "shaped"]))
    if kind == "random":
        tree = gen_random(draw(st.integers(1, 3)), draw(st.integers(2, 4)),
                          draw(st.integers(0, 10_000)))
    elif kind == "lattice":
        steps = draw(st.lists(st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 2.0]),
                              min_size=2, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 7), min_size=len(steps), max_size=len(steps)))
        probs = [w / sum(weights) for w in weights]
        probs[-1] = 1.0 - math.fsum(probs[:-1])
        tree = gen_lattice(draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.5])),
                           steps, probs)
    else:
        tree = draw(_shaped_trees())
    values = tree.values.copy()
    for kids in tree.children:
        k = draw(st.integers(-1, len(kids) - 1))
        if k >= 0:
            others = [c for c in kids if c != kids[k]]
            # a sibling already at zero moves above the family, away from zero
            values[[c for c in others if values[c] == 0.0]] = abs(max(values[others], default=0.0)) + 1.0
            values[kids[k]] = draw(st.sampled_from([0.0, -0.0]))
    return tree.with_values(values)


@given(tree=_sweep_trees(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_array_sweep_matches_the_dict_references_bit_for_bit(tree, data):
    T = tree.horizon
    pool = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 8.0, width=32))
    leaf_vals = data.draw(st.lists(pool, min_size=len(tree.leaves), max_size=len(tree.leaves)))
    leaf_map = dict(zip(tree.leaves, leaf_vals))
    for t in range(T + 1):
        got = conditional_expectation(tree, leaf_map, t)
        assert _bits(got) == _bits(_reference_conditional_expectation(tree, leaf_map, t))

    # terminal: signed-zero coefficients put signed zeros among the leaf gradients
    coeffs = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.75, -1.25]), min_size=T, max_size=T))
    for model in (make_cost_model("linear", {"coeffs": coeffs}, T),
                  make_cost_model("quadratic_tracking", None, T)):
        report = sensitivity_terminal(tree, model, 2.0)
        _assert_cond_grads(report, _reference_cond_grads(tree, leaf_gradients(tree, model, None)))

    # stopping: the whole Snell table, ties included (tol = -1 never refuses)
    stop = make_cost_model("markov_payoff", {"g": {"name": "identity"}}, T)
    value, policy, table = solve_stopping(tree, stop, tol=-1.0)
    ref_value, ref_set, ref_tau, ref_env, ref_cont, ref_margin = _reference_snell(tree, stop)
    assert value.hex() == ref_value.hex()
    assert len(ref_env) == len(table.envelope)
    assert _bits_by_id(table.envelope, ref_env) == _bits(ref_env)
    assert _bits_by_id(table.continuation, ref_cont) == _bits(ref_cont)
    assert table.continuation[list(tree.leaves)].tolist() == [math.inf] * len(tree.leaves)
    assert table.uniqueness_margin == ref_margin
    assert policy.stop_set == ref_set
    assert [(leaf, int(policy.tau[leaf])) for leaf in ref_tau] == list(ref_tau.items())
    assert np.count_nonzero(policy.tau) == len(ref_tau)  # 0 off the leaves
    try:
        report, tau = sensitivity_stopping(tree, stop, 2.0)
    except AmbiguousStopping:
        assert ref_margin <= 1e-9
    else:
        _assert_cond_grads(report, _reference_cond_grads(
            tree, leaf_gradients(tree, stop, policy)))

    # controlled: the control route and the hedging formula's two sweeps
    bounds = ControlBounds(5.0)
    report, control = sensitivity_control(
        tree, make_cost_model("quadratic_control", None, T), bounds, 2.0)
    _assert_cond_grads(report, _reference_cond_grads(
        tree, leaf_gradients(tree, make_cost_model("quadratic_control", None, T), control)))
    u = make_utility_model({"loss": {"name": "quadratic"}, "payoff": {"name": "mean"},
                            "x0": 0.125}, T)
    try:
        report, control = utility_first_order(tree, u, bounds, 2.0)
    except FlatStep:
        return
    xs = tree.paths.values
    lagged = np.concatenate([np.full((xs.shape[0], 1), u.x0), xs[:, :-1]], axis=1)
    lp = u.loss.deriv(u.payoff.value(xs)
                      + np.sum(control.path_matrix(tree) * (xs - lagged), axis=1))
    gpath = u.payoff.grad(xs)
    want = {}
    for t in range(1, T + 1):
        ce_lp = _reference_conditional_expectation(tree, dict(zip(tree.leaves, lp.tolist())), t)
        ce_lpg = _reference_conditional_expectation(
            tree, {lf: float(lp[k] * gpath[k, t - 1]) for k, lf in enumerate(tree.leaves)}, t)
        want[t] = {}
        for nid in tree.levels[t]:
            a_next = control.values[nid] if t < T else 0.0
            a_cur = control.values[tree.nodes[nid].parent]
            want[t][nid] = ce_lpg[nid] + (a_cur - a_next) * ce_lp[nid]
    _assert_cond_grads(report, want)
