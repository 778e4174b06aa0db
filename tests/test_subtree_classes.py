"""Subtree classes in the adapted-distance recursion.

The recursion solves one representative node pair per pair of subtree
classes.  Its reference is the same code with every node its own class,
patched in here by a key that numbers the families; against it the class
path keeps every bit of the distance, the stage costs and the coupling
arrays.  The work counts show that lattice pairs solve class pairs, not
level pairs, so a silent fallback to the full recursion fails a test.
"""

import pathlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awsens import AWParams, aw_distance, aw_pth_power, gen_binomial, gen_lattice, gen_random
from awsens import adapted_wasserstein, tree_from_nested
from awsens.cli import load_tree

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _bits(res) -> tuple:
    c = res.coupling
    return (res.distance.hex(), res.pth_power.hex(), [x.hex() for x in res.per_stage_costs],
            [a.tobytes() for a in (c.parent, c.time, c.x_node, c.y_node, c.cond_prob, c.prob)])


def _each_node_its_own_class(values, cond, below):
    return np.arange(len(values))[:, None]


def _assert_matches_full_recursion(make_pair, p: float) -> None:
    """``make_pair()`` builds two new trees on each call, so that neither
    run reads the other's cached classes."""
    params = AWParams(p)
    P, Q = make_pair()
    got, got_pth = aw_distance(P, Q, params), aw_pth_power(P, Q, params)
    with mock.patch.object(adapted_wasserstein, "_class_key", _each_node_its_own_class):
        A, B = make_pair()
        want, want_pth = aw_distance(A, B, params), aw_pth_power(A, B, params)
        assert all(count == len(A.levels[t])
                   for t, (count, *_) in enumerate(adapted_wasserstein._subtree_classes(A)))
    assert _bits(got) == _bits(want)
    assert got_pth.hex() == want_pth.hex() == got.pth_power.hex()


def _reference_classes(tree) -> list[int]:
    """Class counts per level t < horizon, keyed in plain Python: per
    child, in tree order, its value and cond_prob as hex and its class."""
    cls = {leaf: 0 for leaf in tree.leaves}
    counts = []
    for t in range(tree.horizon - 1, -1, -1):
        keys: dict = {}
        for v in tree.levels[t]:
            key = tuple((float(tree.values[c]).hex(), float(tree.cond_prob[c]).hex(), cls[c])
                        for c in tree.children[v])
            cls[v] = keys.setdefault(key, len(keys))
        counts.append(len(keys))
    return counts[::-1]


# the largest horizon per lattice width whose full recursion stays small
_HORIZONS = {2: 8, 3: 5, 4: 4}


@st.composite
def lattice_pairs(draw):
    k = draw(st.integers(2, 4))
    T = draw(st.integers(2, _HORIZONS[k]))
    steps = st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 1.5, 3.0, 0.1, -0.3]),
                     min_size=k, max_size=k, unique=True)
    probs = st.lists(st.integers(1, 8), min_size=k, max_size=k).map(
        lambda w: [x / sum(w) for x in w])
    drift = st.sampled_from([0.0, 0.0, 0.125, 0.1, -0.05])
    a = (draw(steps), draw(probs), draw(drift))
    b = (draw(steps), draw(probs), draw(drift))
    return T, a, b


@given(pair=lattice_pairs(), p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_lattice_pairs_match_the_full_recursion(pair, p):
    T, (sa, wa, da), (sb, wb, db) = pair
    _assert_matches_full_recursion(
        lambda: (gen_lattice(T, 0.0, sa, wa, da), gen_lattice(T, 0.0, sb, wb, db)), p)


@given(shape=st.sampled_from([(2, 2), (2, 4), (3, 2), (3, 3), (4, 2)]),
       seed=st.integers(0, 10_000), p=st.sampled_from([1.5, 2.0, 3.0]))
@settings(max_examples=20, deadline=None)
def test_random_pairs_match_the_full_recursion(shape, seed, p):
    T, b = shape
    _assert_matches_full_recursion(lambda: (gen_random(T, b, seed), gen_random(T, b, seed + 1)), p)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_fixture_and_binomial_pairs_match_the_full_recursion(p):
    _assert_matches_full_recursion(
        lambda: (load_tree(str(FIXTURES / "drifted_binomial.json")),
                 gen_binomial(2, 0.0, 1.0, -1.0, 0.5)), p)
    _assert_matches_full_recursion(
        lambda: (gen_binomial(6, 0.0, 1.0, -1.0, 0.5),
                 gen_binomial(6, 0.0, 1.1, -0.9, 0.45, 0.02)), p)


def _look_alikes():
    """A T=3 tree whose level-1 nodes come in look-alike pairs: equal child
    values but other probabilities, the same (value, probability) children
    in another order, and equal children with other grandchildren.  Each
    key that forgets what tells them apart merges them."""
    def leaf_pair(lo):
        return [(lo, 0.5), (lo + 1.0, 0.5)]

    def node(value, kids):
        return (value, 1.0 / 6.0, kids)

    return tree_from_nested(3, [
        node(1.0, [(0.0, 0.5, leaf_pair(0.0)), (1.0, 0.5, leaf_pair(2.0))]),
        node(2.0, [(0.0, 0.25, leaf_pair(0.0)), (1.0, 0.75, leaf_pair(2.0))]),
        node(3.0, [(0.0, 0.3, leaf_pair(4.0)), (1.0, 0.7, leaf_pair(6.0))]),
        node(4.0, [(1.0, 0.7, leaf_pair(6.0)), (0.0, 0.3, leaf_pair(4.0))]),
        node(5.0, [(0.0, 0.5, leaf_pair(8.0)), (1.0, 0.5, leaf_pair(2.0))]),
        node(6.0, [(0.0, 0.5, leaf_pair(9.0)), (1.0, 0.5, leaf_pair(2.0))]),
    ])


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_look_alike_subtrees_keep_their_own_classes(p):
    trap = _look_alikes()
    assert _reference_classes(trap) == [1, 6, 6]
    assert [c[0] for c in adapted_wasserstein._subtree_classes(trap)] == [1, 6, 6]
    lattice = (-1.0, 0.5, 1.0), (0.25, 0.25, 0.5)
    for make in (lambda: (_look_alikes(), gen_lattice(3, 0.0, *lattice)),
                 lambda: (gen_binomial(3, 0.5, 1.0, -1.0, 0.4), _look_alikes())):
        _assert_matches_full_recursion(make, p)


def _aw_binomial_pair():
    """The binomial pair of the ``aw`` benchmark workload at seed 0."""
    rng = np.random.default_rng([0, 0xA1])
    base = gen_binomial(8, 0.0, 1.0, -1.0, 0.5, 0.0)
    moved = gen_binomial(8, 0.0, 1.0 + float(rng.uniform(-0.1, 0.1)),
                         -1.0 + float(rng.uniform(-0.1, 0.1)),
                         0.5 + float(rng.uniform(-0.05, 0.05)), float(rng.uniform(-0.05, 0.05)))
    return base, moved


def _solved_per_level(P, Q, monkeypatch) -> tuple[Counter, Counter]:
    """Transport problems :func:`aw_distance` solves per level: interior
    ones by ``solve_batch``, last-stage ones by the north-west plans of the
    recursion; and the last-stage plans it rebuilds for the coupling."""
    solved, rebuilt, level = Counter(), Counter(), []
    real_stage, real_batch = adapted_wasserstein._stage, adapted_wasserstein.solve_batch
    real_plans = adapted_wasserstein._monotone_plans

    def stage(P, Q, t, *args):
        level.append(t)
        return real_stage(P, Q, t, *args)

    def batch(mu, nu, cost):
        solved[level[-1]] += len(cost)
        return real_batch(mu, nu, cost)

    def plans(shared, key, xw, ox, yw, oy, paired=False):
        if paired:
            rebuilt[P.horizon - 1] += len(xw)
        else:
            solved[level[-1]] += len(xw) * len(yw)
        return real_plans(shared, key, xw, ox, yw, oy, paired)

    monkeypatch.setattr(adapted_wasserstein, "_stage", stage)
    monkeypatch.setattr(adapted_wasserstein, "solve_batch", batch)
    monkeypatch.setattr(adapted_wasserstein, "_monotone_plans", plans)
    aw_distance(P, Q, AWParams(2.0))
    return solved, rebuilt


def test_lattice_pairs_solve_one_pair_per_pair_of_classes(monkeypatch):
    P, Q = _aw_binomial_pair()
    xc, yc = _reference_classes(P), _reference_classes(Q)
    # the base recombines exactly: t + 1 classes at level t; the moved
    # tree's steps do not, but its classes still grow far slower than 2^t
    assert xc == list(range(1, 9))
    assert yc[:5] == [1, 2, 3, 4, 5] and yc[-1] < 128
    assert [c[0] for c in adapted_wasserstein._subtree_classes(Q)] == yc
    solved, rebuilt = _solved_per_level(P, Q, monkeypatch)
    assert solved == {t: x * y for t, (x, y) in enumerate(zip(xc, yc))}
    assert sum(solved.values()) < 2_000 < sum(4**t for t in range(8))
    # the coupling reaches each last-stage class pair at most once
    assert 0 < rebuilt[7] <= xc[7] * yc[7]


def test_distinct_subtrees_solve_every_level_pair(monkeypatch):
    # the drifted fixture's and a binomial T=2's level-1 nodes carry
    # distinct children, so every node is its own class and every level
    # pair is solved, by the layout of the structure cache itself
    P = load_tree(str(FIXTURES / "drifted_binomial.json"))
    Q = gen_binomial(2, 0.0, 1.0, -1.0, 0.5)
    assert _reference_classes(P) == _reference_classes(Q) == [1, 2]
    for tree in (P, Q):
        count, row, families, keep = adapted_wasserstein._subtree_classes(tree)[1]
        assert keep == ()
        assert (row, families) == adapted_wasserstein._size_classes(tree, 1)[1:]
    solved, _ = _solved_per_level(P, Q, monkeypatch)
    assert solved == {0: 1, 1: 4}


def test_merged_classes_keep_no_last_stage_plans():
    # two candidates of one structure whose classes keep representatives
    # with the same sibling orders but other weights: plans kept for the
    # first would serve the second, so merged classes keep none
    def tree(leaves):
        return tree_from_nested(2, [
            (float(k), 0.25, [(lo, w), (lo + 1.0, 1.0 - w)])
            for k, (lo, w) in enumerate(zip(leaves, (0.5, 0.5, 0.25, 0.25)))])

    base = tree((10.0, 20.0, 30.0, 40.0))
    params = AWParams(2.0)
    for leaves in ((0.0, 0.0, 5.0, 7.0), (0.0, 2.0, 5.0, 5.0), (0.0, 0.0, 5.0, 7.0)):
        cand = base.with_values(tree(leaves).values)
        assert adapted_wasserstein._subtree_classes(cand)[1][0] == 3
        fresh = aw_distance(tree((10.0, 20.0, 30.0, 40.0)), tree(leaves), params)
        assert _bits(aw_distance(base, cand, params)) == _bits(fresh)
    assert not any(key[0] == "plans" for key in base._shared)
    # a pair of distinct subtrees keeps them
    aw_distance(base, base.with_values(tree((0.0, 2.0, 5.0, 7.0)).values), params)
    assert any(key[0] == "plans" for key in base._shared)
